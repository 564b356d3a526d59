"""Capacity axioms and the structural property checkers.

Each checker is exercised on its worked examples and then validated
against a literal brute-force sweep of its defining quantifier, so the
optimized implementations (local supermodularity, maximal null sets,
single-reduction P-null check) are pinned to the definitions.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    convex_by_all_pairs,
    dense_by_member_scan,
    null_additive_by_all_pairs,
    p_null_additive_by_all_pairs,
)
from nonadd import (
    Capacity,
    CapacityError,
    Partition,
    ProbabilityMeasure,
    PropertyReport,
    SpaceMismatchError,
    StateSpace,
    check_convex,
    check_dense,
    check_monotone,
    check_null_additive,
    check_P_null_additive,
    generated_algebra,
    jsonio,
    random_capacity,
    random_partition,
    random_probability,
)
from nonadd.capacity import (
    replay_convexity_violation,
    replay_null_additivity_violation,
)
from nonadd.sets import max_member_table


def cap2(v0, v1, vx):
    return Capacity(StateSpace(2), (F(0), F(v0), F(v1), F(vx)))


class TestConstruction:
    def test_rejects_nonzero_empty_set(self):
        with pytest.raises(CapacityError):
            Capacity(StateSpace(1), (F(1, 2), F(1)))

    def test_rejects_negative_value(self):
        with pytest.raises(CapacityError):
            Capacity(StateSpace(1), (F(0), F(-1)))

    def test_rejects_non_monotone_with_witness(self):
        with pytest.raises(CapacityError) as err:
            Capacity(StateSpace(2), (F(0), F(2), F(0), F(1)))
        below, above = err.value.witness
        assert below == 0b01 and above == 0b11

    def test_rejects_wrong_table_size(self):
        with pytest.raises(CapacityError):
            Capacity(StateSpace(2), (F(0), F(1)))

    def test_construction_then_check_monotone_always_holds(self):
        for seed in range(30):
            v = random_capacity(4, seed, "general")
            assert check_monotone(v).holds

    def test_values_become_a_tuple_of_fractions(self):
        space = StateSpace(2)
        expected = (F(0), F(1, 2), F(1, 4), F(1))
        for table in ([0, "1/2", F(1, 4), 1], list(expected), expected):
            v = Capacity(space, table)
            assert v.values == expected and type(v.values) is tuple
            assert all(type(x) is F for x in v.values)
        with pytest.raises(TypeError, match="exact rational"):
            Capacity(StateSpace(1), (F(0), 0.5))

    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.lists(st.integers(0, 12), min_size=8, max_size=8),
        denom=st.sampled_from([4, 6, 12]),
    )
    def test_monotone_completion_constructs_and_witnesses_replay(self, raw, denom):
        space = StateSpace(3)
        table = [F(0)] * 8
        for mask in range(1, 8):
            floor = max(
                table[mask ^ (1 << k)] for k in range(3) if mask >> k & 1
            )
            table[mask] = max(floor, F(raw[mask], denom))
        v = Capacity(space, tuple(table))
        assert check_monotone(v).holds
        convexity = check_convex(v)
        if not convexity.holds:
            assert replay_convexity_violation(v, *convexity.witness)
        nulladd = check_null_additive(v)
        if not nulladd.holds:
            assert replay_null_additivity_violation(v, *nulladd.witness)


class TestMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProbabilityMeasure(StateSpace(2), (F(1, 2), F(1, 3)))

    def test_mass_and_table(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
        assert P.mass(0b011) == F(5, 6)
        assert P.mass_table[0b101] == F(2, 3)
        assert Capacity(P.space, P.mass_table).values[0b111] == 1

    def test_null_states(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 2), F(0)))
        assert not P.is_strictly_positive()
        assert P.null_states_bits() == 0b100


class TestMonotone:
    def test_additive_measure_is_monotone(self):
        P = random_probability(StateSpace(4), random.Random(0))
        assert check_monotone(Capacity(P.space, P.mass_table)).holds

    def test_single_state(self):
        assert check_monotone(Capacity(StateSpace(1), (F(0), F(1)))).holds


class TestConvex:
    def test_additive_is_convex_with_equality(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
        v = Capacity(P.space, P.mass_table)
        assert check_convex(v).holds
        for e in range(v.space.num_subsets):
            for g in range(v.space.num_subsets):
                assert v.values[e] + v.values[g] == v.values[e | g] + v.values[e & g]

    def test_worked_failure(self):
        v = cap2("6/10", "6/10", 1)
        report = check_convex(v)
        assert not report.holds
        assert report.witness == (0b01, 0b10)
        assert replay_convexity_violation(v, *report.witness)

    def test_matches_all_pairs_sweep(self):
        for seed in range(40):
            v = random_capacity(4, seed, "general")
            expected, _ = convex_by_all_pairs(v)
            report = check_convex(v)
            assert report.holds == expected
            if not report.holds:
                assert replay_convexity_violation(v, *report.witness)

    def test_convex_profile_passes(self):
        for seed in range(20):
            assert check_convex(random_capacity(5, seed, "convex")).holds


class TestNullAdditive:
    def test_strictly_positive_additive_holds(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 4), F(1, 4)))
        assert check_null_additive(Capacity(P.space, P.mass_table)).holds

    def test_worked_failure(self):
        v = cap2("1/2", 0, 1)
        report = check_null_additive(v)
        assert not report.holds
        e, f = report.witness
        assert v.values[e] == 0
        assert replay_null_additivity_violation(v, e, f)

    def test_matches_all_pairs_sweep(self):
        for seed in range(60):
            v = random_capacity(4, seed, "general")
            expected, _ = null_additive_by_all_pairs(v)
            report = check_null_additive(v)
            assert report.holds == expected
            if not report.holds:
                assert replay_null_additivity_violation(v, *report.witness)

    def test_null_additive_profile_passes(self):
        for seed in range(20):
            v = random_capacity(5, seed, "null-additive")
            assert check_null_additive(v).holds

    def test_convex_does_not_imply_null_additive(self):
        # supermodular yet unions with a null set change the value
        v = cap2(0, 0, 1)
        assert check_convex(v).holds
        assert not check_null_additive(v).holds


class TestPNullAdditive:
    def test_strictly_positive_is_vacuous(self):
        P = ProbabilityMeasure(StateSpace(2), (F(1, 2), F(1, 2)))
        v = cap2(0, 0, 1)
        assert check_P_null_additive(v, P).holds

    def test_induced_from_singletons_with_null_state(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 2), F(0)))
        v = Capacity(P.space, P.mass_table)  # singleton information: value = mass
        report = check_P_null_additive(v, P)
        assert report.holds
        assert v.values[0b011] == v.values[0b111] == 1

    def test_worked_failure(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 2), F(0)))
        # monotone, capped below the top except at the full set
        values = [min(P.mass_table[m], F(1, 2)) for m in range(space.num_subsets)]
        values[0b111] = F(1)
        v = Capacity(space, tuple(values))
        report = check_P_null_additive(v, P)
        assert not report.holds
        assert report.witness == (0b011, 0b111)

    def test_matches_all_pairs_sweep(self):
        rng = random.Random(5)
        space = StateSpace(4)
        for seed in range(40):
            v = random_capacity(4, seed, "general")
            weights = [F(rng.randint(0, 3)) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            P = ProbabilityMeasure(space, tuple(w / total for w in weights))
            expected, _ = p_null_additive_by_all_pairs(v, P)
            report = check_P_null_additive(v, P)
            assert report.holds == expected
            if not report.holds:
                g, f = report.witness
                assert P.mass(f & ~g) == 0 and v.values[g] != v.values[f]


class TestDense:
    def test_full_powerset_is_dense(self):
        space = StateSpace(3)
        P = random_probability(space, random.Random(1))
        assert check_dense(Partition.singletons(space), P).holds

    def test_trivial_algebra_fails_for_positive_measure(self):
        space = StateSpace(3)
        P = ProbabilityMeasure.uniform(space)
        report = check_dense(Partition.trivial(space), P)
        assert not report.holds

    def test_two_block_uniform_fails_at_half_block(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        partition = Partition.from_blocks(space, [[0, 1], [2, 3]])
        report = check_dense(partition, P)
        assert not report.holds
        f, a = report.witness
        assert P.mass(f & ~a) > 0
        assert max_member_table(partition)[0b0001] == 0  # {0} has only the empty set below

    def test_matches_member_scan(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            space = StateSpace(n)
            for _ in range(20):
                P = random_probability(space, rng, strictly_positive=False)
                partition = random_partition(space, rng)
                assert check_dense(partition, P).holds == dense_by_member_scan(
                    generated_algebra(partition).members, P
                )

    def test_partition_on_another_space_is_rejected(self):
        P = ProbabilityMeasure.uniform(StateSpace(3))
        with pytest.raises(SpaceMismatchError):
            check_dense(Partition.singletons(StateSpace(4)), P)


# ---------------------------------------------------------------------------
# The scaled-integer scans against plain-Fraction reference loops
# ---------------------------------------------------------------------------
#
# The loops below are the scans written directly on Fractions, in the
# library's visiting order, so verdicts, witnesses and details must agree
# exactly, on both sides of the scaling budget.

# Two large primes: a table using both has a common denominator over 64 bits.
KERNEL_DENOMS = (1, 2, 3, 4, 6, 7, 2**31 - 1, 2**61 - 1)


def ref_validate(values):
    if values[0] != 0:
        return "capacity of the empty set must be 0", (0,)
    for mask, x in enumerate(values):
        if x < 0:
            return f"negative value at mask {mask}", (mask,)
    pair = ref_monotone(values)
    if pair is not None:
        return f"not monotone: v({pair[0]}) > v({pair[1]})", pair
    return None


def ref_monotone(values):
    n = len(values).bit_length() - 1
    for mask in range(1, len(values)):
        for k in range(n):
            if mask >> k & 1 and values[mask ^ (1 << k)] > values[mask]:
                return mask ^ (1 << k), mask
    return None


def ref_convex(values, n):
    for base in range(1 << n):
        for i in range(n):
            for j in range(i + 1, n):
                if base >> i & 1 or base >> j & 1:
                    continue
                e, f = base | 1 << i, base | 1 << j
                lhs = values[e | f] + values[base]
                rhs = values[e] + values[f]
                if lhs < rhs:
                    detail = f"v({e}) + v({f}) = {rhs} > {lhs} = v(union) + v(intersection)"
                    return PropertyReport(False, (e, f), detail)
    return PropertyReport(True)


def ref_null_additive(values, n):
    for e in range(1, 1 << n):
        if values[e] != 0:
            continue
        outside = [1 << k for k in range(n) if not e >> k & 1]
        if any(values[e | b] == 0 for b in outside):
            continue  # not maximal
        for f in range(1 << n):
            if values[e | f] != values[f]:
                detail = f"v(E) = 0 but v(E|F) = {values[e | f]} != {values[f]} = v(F)"
                return PropertyReport(False, (e, f), detail)
    return PropertyReport(True)


def ref_P_null_additive(values, weights):
    null = sum(1 << k for k, w in enumerate(weights) if w == 0)
    if null == 0:
        return PropertyReport(True, detail="P strictly positive: vacuous")
    for f in range(len(values)):
        g = f & ~null
        if values[g] != values[f]:
            detail = f"P(F-G) = 0 but v(G) = {values[g]} != {values[f]} = v(F)"
            return PropertyReport(False, (g, f), detail)
    return PropertyReport(True)


def ref_dense(blocks, weights):
    def mass(bits):
        return sum((w for k, w in enumerate(weights) if bits >> k & 1), F(0))

    worst_gap, worst = F(0), None
    for f in range(1 << len(weights)):
        a = 0
        for b in blocks:
            if b & f == b:
                a |= b
        if mass(f & ~a) > worst_gap:
            worst_gap, worst = mass(f & ~a), (f, a)
    if worst is None:
        return PropertyReport(True)
    return PropertyReport(False, worst, f"P(F - A_F) = {worst_gap} at F = {worst[0]}")


def assert_kernel_matches_reference(n, values, weights, groups):
    space = StateSpace(n)
    expected = ref_validate(values)
    if expected is not None:
        with pytest.raises(CapacityError) as err:
            Capacity(space, values)
        assert (str(err.value), err.value.witness) == expected
        return
    v = Capacity(space, values)
    assert check_monotone(v) == PropertyReport(True)
    assert check_convex(v) == ref_convex(values, n)
    assert check_null_additive(v) == ref_null_additive(values, n)
    P = ProbabilityMeasure(space, weights)
    assert check_P_null_additive(v, P) == ref_P_null_additive(values, weights)
    partition = Partition.from_blocks(space, groups)
    blocks = [b.bits for b in partition.blocks]
    assert check_dense(partition, P) == ref_dense(blocks, weights)


@st.composite
def kernel_cases(draw):
    # up to n=7 every bit meets both slice shapes of the monotonicity scan
    # (offsets for bits 0-3, blocks for bits 4-6) and several offsets
    n = draw(st.integers(1, 7))
    size = 1 << n
    fractions = st.builds(F, st.integers(-1, 6), st.sampled_from(KERNEL_DENOMS))
    values = draw(st.lists(fractions, min_size=size, max_size=size))
    shapes = ("raw", "zero-empty", "monotone", "monotone", "dented")
    shape = draw(st.sampled_from(shapes))
    if shape != "raw":
        values[0] = F(0)
    if shape in ("monotone", "dented"):
        # upward completion: a capacity, often with null sets and non-convex
        for mask in range(1, size):
            below = [values[mask ^ (1 << k)] for k in range(n) if mask >> k & 1]
            values[mask] = max([values[mask], F(0)] + below)
    if shape == "dented":
        # then a few entries lowered (still >= 0): dips on several bits
        for mask in draw(st.lists(st.integers(1, size - 1), max_size=3)):
            values[mask] = values[mask] * draw(st.sampled_from((0, F(1, 2))))
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    dens = draw(st.lists(st.sampled_from(KERNEL_DENOMS), min_size=n, max_size=n))
    mass = [F(r, d) for r, d in zip(raw, dens)]
    if not any(mass):
        mass[0] = F(1)
    weights = tuple(m / sum(mass) for m in mass)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = {}
    for state, label in enumerate(labels):
        groups.setdefault(label, []).append(state)
    return n, tuple(values), weights, list(groups.values())


def prime_table(n, power):
    """``v(F) = |F|**power + 1/p_F``, one prime denominator per event."""
    primes = [p for p in range(2, 800) if all(p % q for q in range(2, p))]
    return (F(0),) + tuple(
        F(bin(m).count("1") ** power) + F(1, primes[m]) for m in range(1, 1 << n)
    )


class TestScaledKernel:
    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_matches_fraction_reference(self, case):
        assert_kernel_matches_reference(*case)

    @pytest.mark.parametrize("power", [2, 1])
    def test_over_budget_prime_table_matches_reference(self, power):
        # |F|**2 + 1/p_F is convex; |F| + 1/p_F is monotone but not convex
        values = prime_table(6, power)
        v = Capacity(StateSpace(6), values)
        assert v._scaled is v.values  # common denominator over budget
        weights = (F(0),) + (F(1, 5),) * 5
        groups = [[0, 1], [2], [3, 4, 5]]
        assert_kernel_matches_reference(6, values, weights, groups)
        assert check_convex(v).holds == (power == 2)

    def test_over_budget_non_monotone_table_matches_reference(self):
        values = list(prime_table(6, 2))
        values[1] = F(10) + values[1]
        with pytest.raises(CapacityError) as err:
            Capacity(StateSpace(6), tuple(values))
        assert (str(err.value), err.value.witness) == ref_validate(values)
        assert err.value.witness == (1, 3)

    @pytest.mark.parametrize("over_budget", [False, True])
    @pytest.mark.parametrize(
        "light, dents, witness",
        [
            # a tie: 77 dips on bit 3 (offset slice r=5) and bit 6 (a block)
            ((3, 6), (77, 90), (69, 77)),
            # a block-shaped dip (bit 4) before offset-shaped ones (bit 1)
            ((1, 4), (53, 58, 99), (37, 53)),
            # one bit, three offsets: the last offset (r=3) holds the first dip
            ((2,), (108, 70, 55), (51, 55)),
            # and the first offset (r=0)
            ((2,), (71, 44), (40, 44)),
            # ties on bits 0 and 2 at 29, a later dip on bit 2 at offset r=2
            ((0, 2), (118, 121, 29), (28, 29)),
        ],
    )
    def test_first_dip_across_bits_and_offsets(
        self, light, dents, witness, over_budget
    ):
        """Dips at chosen pairs of an n=7 table, on both sides of the budget.

        The table is additive with weight 1 on the ``light`` states and 4
        on the others (over budget, plus ``1 + 1/p_F`` on every nonempty
        ``F``); each dent ``U`` is lowered by 2, so it dips against
        ``U - {k}`` for every light ``k`` in ``U`` and nowhere else.
        """
        weights = [1 if k in light else 4 for k in range(7)]
        values = [
            sum(w for k, w in enumerate(weights) if m >> k & 1) for m in range(128)
        ]
        if over_budget:
            values = [x + y for x, y in zip(values, prime_table(7, 0))]
        values = [F(x) for x in values]
        for mask in dents:
            values[mask] -= 2
        with pytest.raises(CapacityError) as err:
            Capacity(StateSpace(7), tuple(values))
        assert (str(err.value), err.value.witness) == ref_validate(values)
        assert err.value.witness == witness

    def test_within_budget_table_scans_ints(self):
        v = random_capacity(4, 0, "general")
        assert all(type(x) is int for x in v._scaled)
        assert v == Capacity(v.space, v.values)
        assert repr(v) == repr(Capacity(v.space, v.values))


def test_capacity_parse_shares_repeated_strings():
    strings = ["0", "1/2", "2/4", "1/2", "3/4", "1", "6/8", "1"]
    obj = {"n": 3, "values": {str(m): x for m, x in enumerate(strings)}}
    parsed = jsonio.capacity_from_obj(obj)
    separately = Capacity(StateSpace(3), tuple(F(x) for x in strings))
    assert parsed == separately
    assert parsed.values == separately.values
    assert all(type(x) is F for x in parsed.values)
