"""Exact simplex kernel: known optima, duality, degeneracy, edge cases.

The revised simplex must reproduce, pivot for pivot, the dense tableau of
``helpers.dense_solve_max`` under the same Bland rule, so every test that
compares the two asserts equality of the whole :class:`LPSolution`:
value, primal point, duals and pivot count.  ``solve_max`` takes sparse
``(mask, entries)`` columns; the reference takes the same program as
dense rows, and ``helpers.sparse_columns`` converts one to the other.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_solve_max, prime_capacity, sparse_columns
from nonadd import Capacity, ProbabilityMeasure, SimpleFunction, StateSpace
from nonadd.convergence import PROFILES, random_capacity
from nonadd.integrals import (
    brute_force_cav_oracle,
    concave_integral,
    psp_integral,
    verify_dual_certificate,
)
from nonadd.sets import states_of, submasks
from nonadd import simplex
from nonadd.simplex import LPSolution, UnboundedProgramError, solve_max


def test_box_optimum():
    sol = solve_max([F(1), F(1)], [(0b01, ()), (0b10, ())], [F(1), F(2)])
    assert sol.value == 3
    assert sol.x == (F(1), F(2))
    assert sol.duals == (F(1), F(1))


def test_single_variable():
    sol = solve_max([F(3)], [(1, ())], [F(5, 2)])
    assert sol.value == F(15, 2)
    assert sol.duals == (F(3),)


def test_shared_constraint():
    # max 3/5 a + 3/5 b + c  with  a + c <= 1, b + c <= 1
    sol = solve_max(
        [F(3, 5), F(3, 5), F(1)],
        [(0b01, ()), (0b10, ()), (0b11, ())],
        [F(1), F(1)],
    )
    assert sol.value == F(6, 5)
    assert sol.x == (F(1), F(1), F(0))


def test_zero_rhs_degenerate():
    sol = solve_max([F(1), F(1)], [(0b11, ()), (0b01, ((1, F(2)),))], [F(0), F(1)])
    assert sol.value == 0


def test_fractional_data():
    sol = solve_max(
        [F(7, 3), F(1, 2)],
        [(0b10, ((0, F(2, 5)),)), (0b01, ((1, F(1, 7)),))],
        [F(3, 4), F(2, 3)],
    )
    # certificate identity is enforced internally; spot-check feasibility
    assert sol.x[0] * F(2, 5) + sol.x[1] <= F(3, 4)
    assert sol.x[0] + sol.x[1] * F(1, 7) <= F(2, 3)
    assert sol.value == sum(c * x for c, x in zip([F(7, 3), F(1, 2)], sol.x))


def test_unbounded_raises():
    with pytest.raises(UnboundedProgramError):
        solve_max([F(1), F(1)], [(1, ()), (0, ((0, F(-1)),))], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_max([F(1)], [(1, ())], [F(-1)])


def test_malformed_program_rejected():
    # a row past the last rhs entry, by mask bit or by entry
    with pytest.raises(ValueError, match="row outside"):
        solve_max([F(1)], [(0b10, ())], [F(1)])
    with pytest.raises(ValueError, match="row outside"):
        solve_max([F(1)], [(-1, ())], [F(1)])
    with pytest.raises(ValueError, match="row outside"):
        solve_max([F(1)], [(0, ((1, F(2)),))], [F(1)])
    # one column per objective entry
    with pytest.raises(ValueError, match="2 columns for 1 objective"):
        solve_max([F(1)], [(1, ()), (1, ())], [F(1)])
    with pytest.raises(ValueError, match="1 columns for 2 objective"):
        solve_max([F(1), F(1)], [(1, ())], [F(1)])
    # a negative right-hand side
    with pytest.raises(ValueError, match="is negative"):
        solve_max([F(1)], [(1, ())], [F(1), F(-1, 2)])
    # an objective denominator that is not a positive int
    for denominator in (0, -3, F(1, 2), 2.0):
        with pytest.raises(ValueError, match="not a positive int"):
            solve_max([1], [(1, ())], [F(1)], denominator)
    # a cost that is neither an int nor a Fraction
    for cost in (0.5, 1.0, "1/2"):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            solve_max([F(1), cost], [(1, ()), (1, ())], [F(1)])


def test_no_rows():
    columns = [(0, ()), (0, ())]
    assert solve_max([F(0), F(-1)], columns, []) == LPSolution(
        F(0), (F(0), F(0)), (), 0, ()
    )
    with pytest.raises(UnboundedProgramError):
        solve_max([F(0), F(1)], columns, [])


def test_many_rows_and_few_columns():
    # 64 rows: the scan keeps its subset sums by the masks it priced, not
    # in a table over all 2^64 of them
    sol = solve_max([F(1), F(2)], [(1 << 63 | 1, ()), (1 << 40, ())], [F(1)] * 64)
    assert sol.value == 3 and sol.x == (F(1), F(1)) and sol.pivots == 2
    assert sum(sol.duals) == 3


def test_inactive_constraints_get_zero_duals():
    sol = solve_max(
        [F(1)],
        [(0b11, ())],
        [F(1), F(5)],  # second constraint slack at the optimum
    )
    assert sol.value == 1
    assert sol.duals[1] == 0
    assert isinstance(sol, LPSolution)


def test_beale_cycling_example():
    # Beale (1955): the largest-coefficient rule cycles on this degenerate
    # program; Bland's rule must leave the degenerate vertex and stop.
    objective = [F(3, 4), F(-150), F(1, 50), F(-6)]
    rows = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    rhs = [F(0), F(0), F(1)]
    sol = solve_max(objective, sparse_columns(rows, 4), rhs)
    assert sol.value == F(1, 20)
    assert sol.x == (F(1, 25), F(0), F(1), F(0))
    assert sol == dense_solve_max(objective, rows, rhs)


def assert_same_solution(objective, rows, rhs):
    """Both solvers return the same ``LPSolution``, or both find it unbounded."""
    columns = sparse_columns(rows, len(objective))
    try:
        want = dense_solve_max(objective, rows, rhs)
    except UnboundedProgramError:
        with pytest.raises(UnboundedProgramError):
            solve_max(objective, columns, rhs)
        return None
    got = solve_max(objective, columns, rhs)
    assert got == want
    return got


def integrand(n: int, rng: random.Random) -> list[F]:
    # zeros and repeated values make the programs degenerate
    return [F(rng.choice([0, 0, 1, 2, 3, 5]), rng.choice([1, 2, 3])) for _ in range(n)]


def mask_rows(masks, m):
    """The ``m`` dense rows of the 0/1 columns ``masks``."""
    return [[F(mask >> i & 1) for mask in masks] for i in range(m)]


def event_program(values, f, masks):
    """``max sum_T w_T v(T)`` under ``sum_{T containing x} w_T <= f(x)``."""
    return [values[m] for m in masks], mask_rows(masks, len(f)), f


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    profile=st.sampled_from(PROFILES),
)
def test_all_subset_columns_match_dense(n, seed, profile):
    # the concave integral: one column per nonempty event
    v = random_capacity(n, seed, profile)
    f = integrand(n, random.Random(seed))
    program = event_program(v.values, f, range(1, 1 << n))
    assert_same_solution(*program)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10**6))
def test_cover_columns_match_dense(n, seed):
    # the balanced cover: the events inside A, at the indicator of A
    v = random_capacity(n, seed)
    a = random.Random(seed).randrange(1, 1 << n)
    f = [F(a >> x & 1) for x in range(n)]
    assert_same_solution(*event_program(v.values, f, submasks(a)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_chain_columns_match_dense(n, seed):
    # chain_restricted_value: one column per event of a decreasing chain
    rng = random.Random(seed)
    v = random_capacity(n, seed, rng.choice(PROFILES))
    chain, bits = [], (1 << n) - 1
    while bits:
        chain.append(bits)
        bits &= rng.randrange(1 << n)
    assert_same_solution(*event_program(v.values, integrand(n, rng), chain))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), size=st.integers(1, 5), seed=st.integers(0, 10**6))
def test_family_columns_match_dense(n, size, seed):
    # psp_integral: one column per known function, fractional coefficients
    rng = random.Random(seed)
    weights = [rng.randint(0, 5) for _ in range(n)]
    total = sum(weights) or 1
    family = [
        [F(rng.choice([0, 0, 1, 2, 3]), rng.choice([1, 2, 4])) for _ in range(n)]
        for _ in range(size)
    ]
    objective = [sum(F(w, total) * x for w, x in zip(weights, g)) for g in family]
    rows = [[g[x] for g in family] for x in range(n)]
    assert_same_solution(objective, rows, integrand(n, rng))


entry = st.builds(F, st.integers(-3, 4), st.sampled_from([1, 2, 3, 5]))
# an objective's denominator D and a factor k > 1, small or past 64 bits
denominators = st.one_of(st.integers(1, 12), st.integers(2**64, 2**70))
factors = st.one_of(st.integers(2, 9), st.integers(2**64, 2**66))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_programs_match_dense(data):
    # negative and fractional entries; unbounded programs must raise in both.
    # The costs, ints and Fractions mixed, are read over a denominator D, so
    # the dense reference solves their Fractions over D, and k*costs over
    # k*D is the same program, pivot for pivot
    m = data.draw(st.integers(1, 6))
    nv = data.draw(st.integers(1, 8))
    objective = data.draw(
        st.lists(st.one_of(entry, st.integers(-3, 4)), min_size=nv, max_size=nv)
    )
    rows = data.draw(
        st.lists(st.lists(entry, min_size=nv, max_size=nv), min_size=m, max_size=m)
    )
    rhs = data.draw(st.lists(entry.map(abs), min_size=m, max_size=m))
    D, k = data.draw(denominators), data.draw(factors)
    want = assert_same_solution([F(c, D) for c in objective], rows, rhs)
    columns = sparse_columns(rows, nv)
    for costs, over in ((objective, D), ([k * c for c in objective], k * D)):
        if want is None:
            with pytest.raises(UnboundedProgramError):
                solve_max(costs, columns, rhs, over)
        else:
            assert solve_max(costs, columns, rhs, over) == want


def test_seeded_programs_cover_both_outcomes():
    # the random family above is not vacuous: it holds bounded and
    # unbounded programs, and programs whose optimum takes several pivots
    rng = random.Random(7)

    def draw():
        return F(rng.randint(-3, 4), rng.choice([1, 2, 3, 5]))

    solutions = []
    for _ in range(400):
        m, nv = rng.randint(1, 4), rng.randint(1, 5)
        objective = [draw() for _ in range(nv)]
        rows = [[draw() for _ in range(nv)] for _ in range(m)]
        rhs = [abs(draw()) for _ in range(m)]
        solutions.append(assert_same_solution(objective, rows, rhs))
    bounded = [sol for sol in solutions if sol is not None]
    assert len(bounded) > 100 and len(solutions) - len(bounded) > 50
    assert max(sol.pivots for sol in bounded) >= 4


def test_entries_only_column():
    # a column with no unit row: mask 0, every coefficient an entry
    objective = [F(3), F(1), F(2, 7)]
    rows = [[F(2, 3), F(1), F(0)], [F(5, 2), F(0), F(1, 3)]]
    columns = sparse_columns(rows, 3)
    assert columns[0] == (0, ((0, F(2, 3)), (1, F(5, 2))))
    sol = assert_same_solution(objective, rows, [F(1), F(2)])
    assert sol.x[0] > 0


def test_all_zero_entries_leave_the_mask_column():
    # the entries of a column that are all zero are dropped: the column is
    # priced and pivoted as its mask alone
    bare = solve_max([F(1)], [(1, ())], [F(1), F(1)])
    assert solve_max([F(1)], [(1, ((1, F(0)),))], [F(1), F(1)]) == bare


@pytest.mark.parametrize("n", range(1, 7))
def test_prime_denominator_capacity_matches_dense(n):
    # no two objective entries share a denominator, so no common one is formed
    v = prime_capacity(n)
    rng = random.Random(n)
    for f in ([F(1)] * n, integrand(n, rng), [F(k + 1, 3) for k in range(n)]):
        sol = assert_same_solution(*event_program(v.values, f, range(1, 1 << n)))
        g = SimpleFunction(v.space, tuple(f))
        result = concave_integral(g, v)
        assert (result.value, result.dual_witness) == (sol.value, sol.duals)
        if n <= 4:
            assert result.value == brute_force_cav_oracle(g, v)


def test_psp_duals_with_distinct_denominators():
    # the duals end as the measure's weights 1/2, 1/3, 1/6
    space = StateSpace(3)
    P = ProbabilityMeasure(space, (F(1, 2), F(1, 3), F(1, 6)))
    family = [
        SimpleFunction(space, (F(0), F(1), F(1))),
        SimpleFunction(space, (F(3), F(0), F(0))),
        SimpleFunction(space, (F(2), F(2, 5), F(2))),
    ]
    f = SimpleFunction(space, (F(1, 2), F(1), F(1)))
    objective = [g.expectation(P) for g in family]
    rows = [[g.values[x] for g in family] for x in range(3)]
    sol = assert_same_solution(objective, rows, list(f.values))
    assert sol.duals == P.weights
    assert sol.pivots == 3
    result = psp_integral(f, P, family)
    assert (result.value, result.dual_witness) == (sol.value, sol.duals)


# The basis is kept as an int adjugate over its determinant, each column
# scaled to ints by its entry denominator e; the tests below reach the
# cases where det > 1, e != 1 or the rhs has several denominators.


def test_results_are_fractions_for_int_data():
    sol = solve_max([1], [(1, ())], [2])
    assert sol == LPSolution(F(2), (F(2),), (F(1),), 1, (0,))
    assert all(type(a) is F for a in (sol.value, *sol.x, *sol.duals))


def test_odd_cycle_basis_has_determinant_two():
    # the three edges of a triangle: the optimal basis matrix has det 2
    rows = mask_rows([0b011, 0b110, 0b101], 3)
    sol = assert_same_solution([F(1)] * 3, rows, [F(1)] * 3)
    assert sol.x == (F(1, 2),) * 3 and sol.duals == (F(1, 2),) * 3
    assert sol.value == F(3, 2)


def test_pivot_through_a_determinant_two_basis():
    # pivot 6 takes det 1 -> 2 with a zero in d, so that row is rescaled;
    # pivot 7 takes det 2 -> 1, so every other row is divided by 2
    masks = [0b1011, 0b1101, 0b0010, 0b1000, 0b0110]
    objective = [F(2), F(1), F(2), F(1), F(4)]
    sol = assert_same_solution(objective, mask_rows(masks, 4), [F(2), F(2), F(3), F(2)])
    assert sol.x == (F(0), F(1), F(0), F(1), F(2)) and sol.pivots == 7


positive = st.builds(F, st.integers(1, 4), st.sampled_from([1, 2, 3, 5]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_zero_one_programs_match_dense(data):
    # mask columns over 3 to 8 rows: about one program in ten passes
    # through a basis with det > 1
    m = data.draw(st.integers(3, 8))
    nv = data.draw(st.integers(3, 12))
    masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=nv, max_size=nv))
    objective = data.draw(st.lists(positive, min_size=nv, max_size=nv))
    rhs = data.draw(st.lists(positive, min_size=m, max_size=m))
    assert_same_solution(objective, mask_rows(masks, m), rhs)


def test_scaled_columns_enter_and_leave():
    # column 0 (e = 2) enters first and ends at 0, so it left the basis;
    # column 1 (e = 35) ends basic with a positive value
    objective = [F(1), F(2), F(1), F(3)]
    rows = [
        [F(1, 2), F(2, 7), F(0), F(0)],
        [F(1), F(1, 5), F(1), F(1)],
        [F(3, 2), F(1, 5), F(1), F(0)],
    ]
    sol = assert_same_solution(objective, rows, [F(1), F(2), F(2)])
    assert sol.x == (F(0), F(7, 2), F(0), F(13, 10))
    assert sol.duals == (F(49, 10), F(3), F(0))
    assert sol.pivots == 5


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mixed_denominator_columns_match_dense(data):
    # each column's entries share no denominator with the other columns'
    m = data.draw(st.integers(1, 5))
    nv = data.draw(st.integers(1, 5))
    dens = [2, 3, 5, 7, 11]
    rows = [
        [F(data.draw(st.integers(0, 3)), dens[j]) if data.draw(st.booleans()) else F(1)
         for j in range(nv)]
        for _ in range(m)
    ]
    objective = data.draw(st.lists(entry, min_size=nv, max_size=nv))
    rhs = data.draw(st.lists(entry.map(abs), min_size=m, max_size=m))
    assert_same_solution(objective, rows, rhs)


def test_rhs_with_distinct_prime_denominators():
    objective = [F(1), F(2), F(1), F(3, 2)]
    rows = [
        [F(1), F(0), F(1), F(2, 3)],
        [F(1), F(1), F(0), F(0)],
        [F(0), F(1), F(1), F(1, 5)],
    ]
    rhs = [F(1, 2), F(1, 3), F(1, 5)]
    sol = assert_same_solution(objective, rows, rhs)
    assert sol.value == sum(b * y for b, y in zip(rhs, sol.duals))
    assert sol.pivots >= 2 and sum(a > 0 for a in sol.x) >= 2


@pytest.mark.parametrize("scaled_first", [True, False])
def test_degenerate_tie_between_scaled_and_unscaled_columns(scaled_first):
    # After two pivots the scaled column (e = 2) and the mask column are
    # basic at 0; column 2 then ties them at ratio 0, and the smaller
    # basic variable leaves.
    scaled, unscaled = [F(1, 2), F(0), F(0)], [F(0), F(1), F(0)]
    first, second = (scaled, unscaled) if scaled_first else (unscaled, scaled)
    rows = [[a, b, F(1)] for a, b in zip(first, second)]
    sol = assert_same_solution([F(1), F(1), F(5)], rows, [F(0), F(0), F(1)])
    assert sol.value == 0 and sol.pivots == 3
    assert sol.duals == ((F(4), F(1), F(0)) if scaled_first else (F(2), F(3), F(0)))


# The costs are read as ints over one denominator D, and the duals are
# updated at each pivot from the entering column's price over D*det.  The
# two programs below have costs over distinct denominators, each entering
# or leaving a basis whose other costs do not share it.


def test_entering_cost_denominator_outside_dc():
    # the triangle again, at costs 1/2, 2/3, 3/5 (D = 30): pivot 2 brings
    # the cost over 3 to a basis holding the one over 2, and pivot 3 the
    # cost over 5; the last basis has det 2
    rows = mask_rows([0b011, 0b110, 0b101], 3)
    sol = assert_same_solution([F(1, 2), F(2, 3), F(3, 5)], rows, [F(1)] * 3)
    assert sol.x == (F(1, 2),) * 3 and sol.pivots == 3
    assert sol.duals == (F(13, 60), F(17, 60), F(23, 60))


def test_leaving_column_takes_the_only_copy_of_a_denominator():
    # at pivot 3 column 1, the only cost over 3, leaves for column 2, so
    # the duals end over 2 while Y stays over D*det = 6
    rows = mask_rows([0b01, 0b10, 0b10], 2)
    sol = assert_same_solution([F(1, 2), F(1, 3), F(1)], rows, [F(1), F(1)])
    assert sol.x == (F(1), F(0), F(1)) and sol.pivots == 3
    assert sol.duals == (F(1, 2), F(1)) and sol.support == (0, 2)


def fraction_recorder(monkeypatch):
    """Every argument tuple ``solve_max`` hands to ``Fraction``, in order."""
    calls = []

    def recorder(*args):
        calls.append(args)
        return F(*args)

    monkeypatch.setattr(simplex, "Fraction", recorder)
    return calls


@pytest.mark.parametrize(
    "objective, denominator, det",
    [([2, 3, 4], 5, 2), ([F(2), 3, F(4)], 5, 2), ([F(2, 5), F(3, 5), F(4, 5)], 1, 250)],
)
def test_fractions_are_built_once_over_the_objective_denominator(
    monkeypatch, objective, denominator, det
):
    # the triangle at costs 2/5, 3/5, 4/5 and rhs 1/3: each x is handed to
    # Fraction over det*db, each dual over D*det and the value over
    # D*det*db.  As ints over D = 5 the last basis has det 2; as Fractions
    # over 5, each cost scales its column by 5, so det is 2*5^3 and D = 1
    calls = fraction_recorder(monkeypatch)
    columns = [(0b011, ()), (0b110, ()), (0b101, ())]
    sol = solve_max(objective, columns, [F(1, 3)] * 3, denominator)
    assert sol.x == (F(1, 6),) * 3 and sol.value == F(3, 10)
    assert sol.duals == (F(3, 10), F(1, 10), F(1, 2)) and sol.pivots == 3
    handed = [q for _, q in (a for a in calls if len(a) == 2)]
    dy = denominator * det
    assert handed == [det * 3] * 3 + [dy] * 3 + [dy * 3]


def test_distinct_cost_denominators_grow_with_the_basis(monkeypatch):
    # v(T) = |T| + 1/(2^64 + T) at n = 6: 63 distinct 65-bit cost
    # denominators, whose lcm has about 63*65 bits.  Each cost scales its
    # own column instead, so what is handed to Fraction grows with the 6
    # basic columns only
    n = 6
    table = [F(0)] + [bin(m).count("1") + F(1, 2**64 + m) for m in range(1, 1 << n)]
    v = Capacity(StateSpace(n), tuple(table))
    f = integrand(n, random.Random(3))
    want = assert_same_solution(*event_program(v.values, f, range(1, 1 << n)))
    calls = fraction_recorder(monkeypatch)
    result = concave_integral(SimpleFunction(v.space, tuple(f)), v)
    assert (result.value, result.dual_witness) == (want.value, want.duals)
    assert want.pivots >= 3
    assert max(abs(k).bit_length() for a in calls for k in a) < 65 * (n + 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_concave_integral_past_the_scale_budget_matches_the_oracle(n, seed):
    # v(T) = c_T + 1/(2^64 + T) with c_T monotone in steps of at least 1:
    # the table's common denominator passes SCALE_BITS, so the LP reads
    # its Fractions and puts them over one lcm itself
    rng = random.Random(seed)
    steps = [0] * (1 << n)
    for m in range(1, 1 << n):
        steps[m] = max(steps[m & ~(1 << k)] for k in states_of(m)) + rng.randint(1, 3)
    table = [F(0)] + [steps[m] + F(1, 2**64 + m) for m in range(1, 1 << n)]
    v = Capacity(StateSpace(n), tuple(table))
    assert v._common == 1 and isinstance(v._scaled[1], F)
    f = SimpleFunction(v.space, tuple(integrand(n, rng)))
    result = concave_integral(f, v)
    assert result.value == brute_force_cav_oracle(f, v)
    assert verify_dual_certificate(result, f, v)
