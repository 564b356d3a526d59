"""Exact simplex kernel: known optima, duality, degeneracy, edge cases.

The revised simplex must reproduce, pivot for pivot, the dense tableau of
``helpers.dense_solve_max`` under the same Bland rule, so every test that
compares the two asserts equality of the whole :class:`LPSolution`:
value, primal point, duals and pivot count.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_solve_max
from nonadd.convergence import PROFILES, random_capacity
from nonadd.sets import submasks
from nonadd.simplex import LPSolution, UnboundedProgramError, solve_max


def test_box_optimum():
    sol = solve_max([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(2)])
    assert sol.value == 3
    assert sol.x == (F(1), F(2))
    assert sol.duals == (F(1), F(1))


def test_single_variable():
    sol = solve_max([F(3)], [[F(1)]], [F(5, 2)])
    assert sol.value == F(15, 2)
    assert sol.duals == (F(3),)


def test_shared_constraint():
    # max 3/5 a + 3/5 b + c  with  a + c <= 1, b + c <= 1
    sol = solve_max(
        [F(3, 5), F(3, 5), F(1)],
        [[F(1), F(0), F(1)], [F(0), F(1), F(1)]],
        [F(1), F(1)],
    )
    assert sol.value == F(6, 5)
    assert sol.x == (F(1), F(1), F(0))


def test_zero_rhs_degenerate():
    sol = solve_max([F(1), F(1)], [[F(1), F(1)], [F(1), F(2)]], [F(0), F(1)])
    assert sol.value == 0


def test_fractional_data():
    sol = solve_max(
        [F(7, 3), F(1, 2)],
        [[F(2, 5), F(1)], [F(1), F(1, 7)]],
        [F(3, 4), F(2, 3)],
    )
    # certificate identity is enforced internally; spot-check feasibility
    assert sol.x[0] * F(2, 5) + sol.x[1] <= F(3, 4)
    assert sol.x[0] + sol.x[1] * F(1, 7) <= F(2, 3)
    assert sol.value == sum(c * x for c, x in zip([F(7, 3), F(1, 2)], sol.x))


def test_unbounded_raises():
    with pytest.raises(UnboundedProgramError):
        solve_max([F(1), F(1)], [[F(1), F(-1)]], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_max([F(1)], [[F(1)]], [F(-1)])


def test_malformed_program_rejected():
    with pytest.raises(ValueError, match="one rhs entry"):
        solve_max([F(1)], [[F(1)]], [F(1), F(1)])
    with pytest.raises(ValueError, match="row length"):
        solve_max([F(1), F(1)], [[F(1), F(1)], [F(1)]], [F(1), F(1)])


def test_no_rows():
    assert solve_max([F(0), F(-1)], [], []) == LPSolution(F(0), (F(0), F(0)), (), 0)
    with pytest.raises(UnboundedProgramError):
        solve_max([F(0), F(1)], [], [])


def test_inactive_constraints_get_zero_duals():
    sol = solve_max(
        [F(1)],
        [[F(1)], [F(1)]],
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
    sol = solve_max(objective, rows, rhs)
    assert sol.value == F(1, 20)
    assert sol.x == (F(1, 25), F(0), F(1), F(0))
    assert sol == dense_solve_max(objective, rows, rhs)


def assert_same_solution(objective, rows, rhs):
    """Both solvers return the same ``LPSolution``, or both find it unbounded."""
    try:
        want = dense_solve_max(objective, rows, rhs)
    except UnboundedProgramError:
        with pytest.raises(UnboundedProgramError):
            solve_max(objective, rows, rhs)
        return None
    got = solve_max(objective, rows, rhs)
    assert got == want
    return got


def integrand(n: int, rng: random.Random) -> list[F]:
    # zeros and repeated values make the programs degenerate
    return [F(rng.choice([0, 0, 1, 2, 3, 5]), rng.choice([1, 2, 3])) for _ in range(n)]


def event_program(values, f, masks):
    """``max sum_T w_T v(T)`` under ``sum_{T containing x} w_T <= f(x)``."""
    objective = [values[m] for m in masks]
    rows = [[F(1) if m >> x & 1 else F(0) for m in masks] for x in range(len(f))]
    return objective, rows, f


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_programs_match_dense(data):
    # negative and fractional entries; unbounded programs must raise in both
    m = data.draw(st.integers(1, 4))
    nv = data.draw(st.integers(1, 5))
    objective = data.draw(st.lists(entry, min_size=nv, max_size=nv))
    rows = data.draw(
        st.lists(st.lists(entry, min_size=nv, max_size=nv), min_size=m, max_size=m)
    )
    rhs = data.draw(st.lists(entry.map(abs), min_size=m, max_size=m))
    assert_same_solution(objective, rows, rhs)


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
