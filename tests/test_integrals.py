"""The four integrals, the balanced cover, and the brute-force oracle."""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lebesgue, level_scan_choquet, prime_capacity, survival_scan_choquet
from nonadd import (
    Capacity,
    Decomposition,
    FunctionDecomposition,
    Partition,
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    balanced_cover,
    brute_force_cav_oracle,
    chain_restricted_value,
    check_convex,
    choquet_integral,
    concave_integral,
    generated_algebra,
    induce,
    induced_psp_capacity,
    psa_integral,
    psp_integral,
    random_capacity,
    random_partition,
    random_probability,
    random_simple_function,
    verify_dual_certificate,
)
from nonadd import integrals
from nonadd.sets import mask_of
from nonadd.simplex import LPSolution
from nonadd.convergence import PROFILES

NONCONVEX2 = Capacity(StateSpace(2), (F(0), F(6, 10), F(6, 10), F(1)))


def test_simple_function_validation():
    space = StateSpace(2)
    with pytest.raises(ValueError):
        SimpleFunction(space, (F(-1), F(0)))
    with pytest.raises(ValueError):
        SimpleFunction(space, (F(1),))
    f = SimpleFunction(space, (F(2), F(1, 3)))
    assert f._scaled == ((6, 1), 3)


# Mersenne primes past 64 bits: one of them as a denominator puts a
# function's common denominator past the scaling budget
BIG_PRIMES = (2**89 - 1, 2**107 - 1, 2**127 - 1)


def assert_matches_level_scan(f, v):
    """``choquet_integral`` equals the Fraction reference: the value, every
    ``(weight, mask)`` term and their order, each number a ``Fraction``."""
    result = choquet_integral(f, v)
    assert result == level_scan_choquet(f, v)
    numbers = [result.value] + [w for w, _ in result.witness.terms]
    assert all(type(x) is F for x in numbers)


class TestChoquet:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_level_scan_reference(self, data):
        n = data.draw(st.integers(1, 7), label="n")  # prime_capacity has 7 at most
        space = StateSpace(n)
        if data.draw(st.booleans(), label="f past the budget"):
            pool = [F(0)] + [F(j, p) for j in (1, 2, 3) for p in BIG_PRIMES]
        else:  # few distinct values: ties and zeros
            pool = [F(0)] + [F(j, q) for j in range(1, 7) for q in (1, 2, 3, 6)]
        values = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        f = SimpleFunction(space, tuple(values))
        if data.draw(st.booleans(), label="v past the budget"):
            v = prime_capacity(n)
        else:
            seed = data.draw(st.integers(0, 10**6), label="seed")
            v = random_capacity(n, seed, data.draw(st.sampled_from(PROFILES)))
        assert_matches_level_scan(f, v)

    def test_equals_the_level_scan_reference_at_the_edges(self):
        tops = (1, 0, 2, 1, 0, 3)
        big = SimpleFunction(StateSpace(6), tuple(map(F, tops, BIG_PRIMES * 2)))
        v_big = prime_capacity(6)
        assert big._scaled == (big.values, 1)
        assert v_big._scaled is v_big.values and v_big._common == 1
        v6 = random_capacity(6, 3, "general")
        for f, v in [
            (big, v_big),
            (big, v6),
            (SimpleFunction(v6.space, (3, 0, 1, 3, 1, 0)), v_big),
            (SimpleFunction.constant(v6.space, F(5, 7)), v6),
            (SimpleFunction(StateSpace(1), (F(2, 3),)), random_capacity(1, 0, "general")),
        ]:
            assert_matches_level_scan(f, v)

    def test_indicator_recovers_capacity(self):
        for seed in range(10):
            v = random_capacity(4, seed, "general")
            for mask in range(v.space.num_subsets):
                f = SimpleFunction.indicator(v.space, mask)
                assert choquet_integral(f, v).value == v.values[mask]

    def test_zero_function(self):
        # n = 1 and a capacity past the scaling budget too
        for v in (random_capacity(3, 0, "general"), prime_capacity(1), prime_capacity(6)):
            result = choquet_integral(SimpleFunction.constant(v.space, 0), v)
            assert result.value == 0 and type(result.value) is F
            assert result.witness.terms == ()

    def test_worked_example_against_survival_scan(self):
        space = StateSpace(2)
        v = Capacity(space, (F(0), F(1, 2), F(1, 4), F(1)))
        f = SimpleFunction(space, (F(2), F(1)))
        result = choquet_integral(f, v)
        assert result.value == F(3, 2)
        assert result.value == survival_scan_choquet(f, v)

    def test_matches_survival_scan_randomly(self):
        rng = random.Random(7)
        for seed in range(40):
            v = random_capacity(4, seed, "general")
            f = random_simple_function(v.space, rng)
            assert choquet_integral(f, v).value == survival_scan_choquet(f, v)

    def test_chain_witness_is_valid(self):
        rng = random.Random(11)
        for seed in range(20):
            v = random_capacity(4, seed, "general")
            f = random_simple_function(v.space, rng)
            result = choquet_integral(f, v)
            w = result.witness
            assert w.fits_under(f)
            assert w.weight_against(v) == result.value
            for (_, a), (_, b) in zip(w.terms, w.terms[1:]):
                assert b & ~a == 0

    def test_positive_homogeneity_and_monotonicity(self):
        rng = random.Random(13)
        for seed in range(20):
            v = random_capacity(4, seed, "general")
            f = random_simple_function(v.space, rng)
            c = F(rng.randint(1, 5), rng.randint(1, 5))
            assert (
                choquet_integral(f.scale(c), v).value
                == c * choquet_integral(f, v).value
            )
            bump = random_simple_function(v.space, rng)
            assert (
                choquet_integral(f + bump, v).value
                >= choquet_integral(f, v).value
            )

    def test_layer_formula_dominates_random_chains(self):
        # the defining supremum over nested families never beats the
        # layer formula, and the level-set chain attains it
        rng = random.Random(17)
        for seed in range(15):
            v = random_capacity(3, seed, "general")
            space = v.space
            f = random_simple_function(space, rng)
            target = choquet_integral(f, v)
            level_chain = [m for _, m in target.witness.terms]
            assert chain_restricted_value(f, v, level_chain) == target.value
            for _ in range(5):
                masks = sorted(
                    (rng.randint(0, space.full_bits) for _ in range(3)),
                    key=lambda m: -bin(m).count("1"),
                )
                chain = [masks[0], masks[0] & masks[1], masks[0] & masks[1] & masks[2]]
                assert chain_restricted_value(f, v, chain) <= target.value


def test_fits_under_at_the_boundary_with_mixed_denominators():
    # the weights 1/3, 1/4 and 1/6 sum to (1/2, 7/12, 5/12) state by state
    witness = Decomposition(((F(1, 3), 0b011), (F(1, 4), 0b110), (F(1, 6), 0b101)))
    space = StateSpace(3)
    sums = (F(1, 2), F(7, 12), F(5, 12))
    assert witness.fits_under(SimpleFunction(space, sums))
    for k in range(3):
        for margin in (F(1, 84), F(1, BIG_PRIMES[2])):  # within and past the budget
            under = list(sums)
            under[k] -= margin
            assert not witness.fits_under(SimpleFunction(space, tuple(under)))
            over = [x + margin for x in sums]
            over[k] = sums[k]  # equal at k, above elsewhere
            assert witness.fits_under(SimpleFunction(space, tuple(over)))


class TestConcave:
    def test_worked_example(self):
        result = concave_integral(SimpleFunction.constant(StateSpace(2), 1), NONCONVEX2)
        assert result.value == F(6, 5)
        assert dict((m, w) for w, m in result.witness.terms) == {1: F(1), 2: F(1)}

    def test_zero_function(self):
        assert concave_integral(SimpleFunction.constant(StateSpace(2), 0), NONCONVEX2).value == 0

    def test_dual_certificate_replays(self):
        rng = random.Random(19)
        for seed in range(25):
            v = random_capacity(4, seed, "general")
            f = random_simple_function(v.space, rng)
            result = concave_integral(f, v)
            assert verify_dual_certificate(result, f, v)
            assert result.witness.fits_under(f)
            assert result.witness.weight_against(v) == result.value

    def test_tampered_dual_certificates_fail(self):
        rng = random.Random(20)
        for seed in range(10):
            v = random_capacity(4, seed, "general")
            f = random_simple_function(v.space, rng)
            result = concave_integral(f, v)
            y = result.dual_witness
            negative = (F(-1),) + y[1:]
            for bad in (y[:-1], y + (F(0),), negative):
                assert not verify_dual_certificate(
                    replace(result, dual_witness=bad), f, v
                )
        # same pairing with f, but y_0 + 0 < v({0}) = 6/10: infeasible
        f = SimpleFunction(NONCONVEX2.space, (F(1), F(1)))
        result = concave_integral(f, NONCONVEX2)
        assert result.value == F(6, 5)
        assert result.dual_witness == (F(6, 10), F(6, 10))
        lowered = replace(result, dual_witness=(F(5, 10), F(7, 10)))
        assert not verify_dual_certificate(lowered, f, NONCONVEX2)

    def test_a_dual_short_by_one_step_over_its_lcm_fails(self):
        # y = (2/5, 4/5) over d = 5 pairs with f = (1, 1) to the value, but
        # y({0}) = 2/5 falls short of v({0}) = 3/5 by 1/d on that subset alone
        f = SimpleFunction.constant(NONCONVEX2.space, 1)
        result = concave_integral(f, NONCONVEX2)
        assert verify_dual_certificate(result, f, NONCONVEX2)
        short = replace(result, dual_witness=(F(2, 5), F(4, 5)))
        assert not verify_dual_certificate(short, f, NONCONVEX2)
        assert dual_reference(short, f, NONCONVEX2) is False

    @pytest.mark.parametrize("v", [random_capacity(5, 2, "general"), prime_capacity(5)])
    def test_perturbed_duals_agree_with_the_fraction_reference(self, v):
        # a step of one unit over the duals' lcm moved from one state to
        # another keeps the pairing with a constant f, and may break a
        # subset; the verdict is the Fraction definition's, past the
        # scaling budget too (prime_capacity(5))
        f = SimpleFunction.constant(v.space, 1)
        result = concave_integral(f, v)
        y = result.dual_witness
        step = F(1, math.lcm(*(c.denominator for c in y)))
        verdicts = []
        for i in range(v.space.n):
            for j in range(v.space.n):
                moved = list(y)
                moved[i] -= step
                moved[j] += step
                tampered = replace(result, dual_witness=tuple(moved))
                verdict = verify_dual_certificate(tampered, f, v)
                assert verdict == dual_reference(tampered, f, v)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_dominates_choquet(self):
        rng = random.Random(23)
        for seed in range(40):
            v = random_capacity(4, seed, "general")
            f = random_simple_function(v.space, rng)
            assert concave_integral(f, v).value >= choquet_integral(f, v).value

    def test_equals_choquet_for_convex_capacity(self):
        rng = random.Random(29)
        for seed in range(15):
            v = random_capacity(4, seed, "convex")
            for _ in range(4):
                f = random_simple_function(v.space, rng)
                assert concave_integral(f, v).value == choquet_integral(f, v).value

    def test_indicator_of_convex_matches_capacity(self):
        v = random_capacity(3, 5, "convex")
        for mask in range(v.space.num_subsets):
            f = SimpleFunction.indicator(v.space, mask)
            assert concave_integral(f, v).value == v.values[mask]


def reference_cover(v):
    """Each event's concave integral over every column: the cover, LP by LP."""
    return [F(0)] + [
        concave_integral(SimpleFunction.indicator(v.space, bits), v).value
        for bits in range(1, v.space.num_subsets)
    ]


class TestBalancedCover:
    def test_additive_is_its_own_cover(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
        v = Capacity(P.space, P.mass_table)
        assert balanced_cover(v).values == v.values

    def test_worked_example(self):
        cover = balanced_cover(NONCONVEX2)
        assert cover.values == (F(0), F(3, 5), F(3, 5), F(6, 5))

    def test_convex_capacity_unchanged(self):
        for seed in range(8):
            v = random_capacity(3, seed, "convex")
            assert balanced_cover(v).values == v.values

    def test_dominates_and_preserves_concave_integrals(self):
        rng = random.Random(31)
        for seed in range(12):
            v = random_capacity(3, seed, "general")
            cover = balanced_cover(v)
            assert all(a >= b for a, b in zip(cover.values, v.values))
            for _ in range(3):
                f = random_simple_function(v.space, rng)
                assert concave_integral(f, v).value == concave_integral(f, cover).value

    def test_idempotent(self):
        for seed in range(10):
            v = random_capacity(3, seed, "general")
            cover = balanced_cover(v)
            assert balanced_cover(cover).values == cover.values

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 10**6),
        profile=st.sampled_from(PROFILES),
    )
    def test_equals_the_all_columns_reference(self, n, seed, profile):
        v = random_capacity(n, seed, profile)
        assert list(balanced_cover(v).values) == reference_cover(v)

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("n", [7, 8])
    def test_equals_the_reference_on_larger_tables(self, n, profile):
        for seed in range(2):
            v = random_capacity(n, seed, profile)
            assert list(balanced_cover(v).values) == reference_cover(v)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_reference_past_the_scaling_budget(self, n):
        # from n = 5 on, _scaled holds the Fractions themselves, over 1
        v = prime_capacity(n)
        assert list(balanced_cover(v).values) == reference_cover(v)


class TestPSA:
    def test_worked_example(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        partition = Partition.from_blocks(space, [[0, 1], [2, 3]])
        f = SimpleFunction(space, (F(4), F(3), F(2), F(1)))
        assert psa_integral(f, P, partition).value == 2

    def test_trivial_partition_gives_min(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 4), F(1, 4)))
        f = SimpleFunction(space, (F(5), F(2), F(7)))
        assert psa_integral(f, P, Partition.trivial(space)).value == 2

    def test_singleton_partition_gives_expectation(self):
        rng = random.Random(37)
        space = StateSpace(4)
        for _ in range(10):
            P = random_probability(space, rng)
            f = random_simple_function(space, rng)
            assert (
                psa_integral(f, P, Partition.singletons(space)).value
                == lebesgue(f, P)
            )

    def test_agrees_with_integrals_against_induced(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(2, 5)
            space = StateSpace(n)
            P = random_probability(space, rng)
            partition = random_partition(space, rng)
            ic = induce(P, partition)
            f = random_simple_function(space, rng)
            value = psa_integral(f, P, partition).value
            assert value == choquet_integral(f, ic.base).value
            assert value == concave_integral(f, ic.base).value

    def test_witness_fits(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        partition = Partition.from_blocks(space, [[0, 1], [2, 3]])
        f = SimpleFunction(space, (F(4), F(3), F(2), F(1)))
        result = psa_integral(f, P, partition)
        assert result.witness.fits_under(f)
        # built unchecked, it is the witness the checked constructor builds
        assert result.witness == Decomposition(result.witness.terms)
        assert all(type(w) is F for w, _ in result.witness.terms)


class TestPSP:
    def test_algebra_indicators_recover_psa(self):
        rng = random.Random(43)
        for _ in range(8):
            n = rng.randint(2, 4)
            space = StateSpace(n)
            P = random_probability(space, rng)
            partition = random_partition(space, rng)
            family = [
                SimpleFunction.indicator(space, m.bits)
                for m in generated_algebra(partition).members
                if m.bits
            ]
            for _ in range(3):
                f = random_simple_function(space, rng)
                assert (
                    psp_integral(f, P, family).value
                    == psa_integral(f, P, partition).value
                )

    def test_own_function_gives_expectation(self):
        rng = random.Random(47)
        space = StateSpace(3)
        P = random_probability(space, rng)
        f = random_simple_function(space, rng)
        assert psp_integral(f, P, [f]).value == lebesgue(f, P)

    def test_zero_family_gives_zero(self):
        space = StateSpace(3)
        P = ProbabilityMeasure.uniform(space)
        f = SimpleFunction.constant(space, 3)
        assert psp_integral(f, P, [SimpleFunction.constant(space, 0)]).value == 0

    def test_empty_family_rejected(self):
        space = StateSpace(2)
        P = ProbabilityMeasure.uniform(space)
        with pytest.raises(ValueError):
            psp_integral(SimpleFunction.constant(space, 0), P, [])
        with pytest.raises(ValueError):
            induced_psp_capacity(P, [])

    def test_induced_psp_equals_partition_capacity_on_indicators(self):
        rng = random.Random(53)
        space = StateSpace(3)
        P = random_probability(space, rng)
        partition = random_partition(space, rng)
        family = [
            SimpleFunction.indicator(space, m.bits)
            for m in generated_algebra(partition).members
            if m.bits
        ]
        assert induced_psp_capacity(P, family).values == induce(P, partition).base.values

    def test_zero_family_induces_zero_capacity(self):
        space = StateSpace(2)
        P = ProbabilityMeasure.uniform(space)
        v = induced_psp_capacity(P, [SimpleFunction.constant(space, 0)])
        assert all(x == 0 for x in v.values)

    def test_known_nonconvex_family(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(8, 13), F(2, 13), F(3, 13)))
        family = [
            SimpleFunction(space, (F(3, 2), F(0), F(7, 4))),
            SimpleFunction(space, (F(3, 2), F(7, 4), F(0))),
        ]
        v = induced_psp_capacity(P, family)
        report = check_convex(v)
        assert not report.holds
        e, f = report.witness
        assert v.values[e] + v.values[f] > v.values[e | f] + v.values[e & f]

    def test_random_families_frequency_sweep(self):
        # convexity is not guaranteed for known-expectations capacities;
        # the sweep just records how often it fails
        rng = random.Random(59)
        space = StateSpace(3)
        nonconvex = trials = 0
        for _ in range(40):
            P = random_probability(space, rng)
            family = [
                SimpleFunction(space, tuple(F(rng.randint(0, 8), 4) for _ in space.states()))
                for _ in range(rng.randint(1, 3))
            ]
            if any(not any(g.values) for g in family):
                continue
            trials += 1
            if not check_convex(induced_psp_capacity(P, family)).holds:
                nonconvex += 1
        assert trials > 0
        assert 0 <= nonconvex <= trials

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_induced_psp_equals_the_all_members_reference(self, data):
        n = data.draw(st.integers(1, 6))
        space = StateSpace(n)
        raw = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        raw[0] += not any(raw)
        P = ProbabilityMeasure(space, tuple(F(r, sum(raw)) for r in raw))
        value = st.one_of(
            st.just(F(0)), st.builds(F, st.integers(1, 8), st.sampled_from([1, 2, 3]))
        )
        member = st.one_of(
            st.lists(value, min_size=n, max_size=n).map(
                lambda xs: SimpleFunction(space, tuple(xs))
            ),
            st.just(SimpleFunction.constant(space, 0)),
            st.builds(
                lambda k, c: SimpleFunction.indicator(space, 1 << k).scale(c),
                st.integers(0, n - 1),
                value,
            ),
        )
        family = data.draw(st.lists(member, min_size=1, max_size=4))
        if data.draw(st.booleans()):
            family.append(data.draw(st.sampled_from(family)))
        reference = [F(0)] + [
            psp_integral(SimpleFunction.indicator(space, bits), P, family).value
            for bits in range(1, space.num_subsets)
        ]
        assert list(induced_psp_capacity(P, family).values) == reference


def dual_reference(result, f, v):
    """:func:`verify_dual_certificate` by its definition, in Fractions."""
    y, n = result.dual_witness, f.space.n
    if y is None or len(y) != n or any(c < 0 for c in y):
        return False
    for t in range(v.space.num_subsets):
        if sum((y[k] for k in range(n) if t >> k & 1), F(0)) < v.values[t]:
            return False
    return sum((c * x for c, x in zip(y, f.values)), F(0)) == result.value


def combination(terms, n):
    """``sum(w * g)`` state by state, in Fractions."""
    return [sum((w * g.values[k] for w, g in terms), F(0)) for k in range(n)]


# one 65-bit denominator per state: a function, a member or a measure
# drawn from these is past the scaling budget
WIDE = [2**64 + 2 * k + 1 for k in range(6)]


class TestKnownExpectationsReplay:
    """The expectation and the known-function witness replay, in ints,
    against their Fraction definitions."""

    @staticmethod
    def function(data, space, wide, label):
        """A function of mixed small denominators, or with ``wide`` one of
        1 or 2 over each state's own ``WIDE`` denominator."""
        n = space.n
        if wide:
            tops = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label=label)
            g = SimpleFunction(space, tuple(map(F, tops, WIDE)))
            assert g._scaled == (g.values, 1)
            return g
        pool = st.sampled_from([F(0)] + [F(j, q) for j in range(1, 6) for q in (1, 2, 3, 4, 6, 7)])
        return SimpleFunction(space, tuple(data.draw(st.lists(pool, min_size=n, max_size=n), label=label)))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_equal_their_fraction_definitions(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        space = StateSpace(n)
        raw = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n), label="raw")
        raw[0] += not any(raw)
        if data.draw(st.booleans(), label="P past the budget"):
            tilt = [F(r) + F(1, WIDE[k]) for k, r in enumerate(raw)]
            P = ProbabilityMeasure(space, tuple(x / sum(tilt) for x in tilt))
            assert n == 1 or P._scaled == (P.weights, 1)
        else:
            P = ProbabilityMeasure(space, tuple(F(r, sum(raw)) for r in raw))
        wide_f, wide_g = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]))
        f = self.function(data, space, wide_f, "f")
        terms = []
        for i in range(data.draw(st.integers(0, 4), label="members")):
            g = self.function(data, space, wide_g and i == 0, f"g{i}")
            w = F(data.draw(st.integers(1, 9)), data.draw(st.sampled_from([1, 2, 3, 5, 8])))
            terms.append((w, g))
        witness = FunctionDecomposition(tuple(terms))

        expectation = f.expectation(P)
        assert expectation == lebesgue(f, P) and type(expectation) is F
        weight = witness.weight_against(P)
        assert weight == sum((w * lebesgue(g, P) for w, g in terms), F(0))
        assert type(weight) is F
        combo = combination(terms, n)
        assert witness.fits_under(f) == all(a <= b for a, b in zip(combo, f.values))
        # at the combination itself it fits; a hair below it at one state, not
        assert witness.fits_under(SimpleFunction(space, tuple(combo)))
        for k in range(n):
            if combo[k]:
                below = list(combo)
                below[k] -= min(combo[k], F(1, WIDE[5] * 7))
                assert not witness.fits_under(SimpleFunction(space, tuple(below)))

    def test_an_overshoot_of_one_step_over_d_does_not_fit(self):
        # w * g over D = lcm(3 * 10, 4 * 7) = 420: the sum is (5/21, 1/15,
        # 1/4), and f one step of 1/420 below it at any one state fails
        space = StateSpace(3)
        g1 = SimpleFunction(space, (F(1, 2), F(1, 5), F(0)))
        g2 = SimpleFunction(space, (F(2, 7), F(0), F(1)))
        witness = FunctionDecomposition(((F(1, 3), g1), (F(1, 4), g2)))
        assert witness._numerators[1] == 420
        combo = (F(5, 21), F(1, 15), F(1, 4))
        assert witness.fits_under(SimpleFunction(space, combo))
        for k in range(3):
            below = list(combo)
            below[k] -= F(1, 420)
            assert not witness.fits_under(SimpleFunction(space, tuple(below)))


@pytest.fixture
def lp_columns(monkeypatch):
    """Column count of every LP solved through ``integrals.solve_max``."""
    sizes = []
    solve_max = integrals.solve_max

    def counting(objective, columns, rhs, denominator=1):
        sizes.append(len(columns))
        return solve_max(objective, columns, rhs, denominator)

    monkeypatch.setattr(integrals, "solve_max", counting)
    return sizes


# v = 1 on each pair and on the full set, 0 on each singleton: the three
# pairs at weight 1/2 reach 3/2, which no split of the full set reaches
PAIRS = Capacity(StateSpace(3), (0, 0, 0, 1, 0, 1, 1, 1))


class TestColumnCounts:
    def test_cover_solves_only_the_events_it_cannot_certify(self, lp_columns, monkeypatch):
        # each solve that still runs offers the subsets of its event A as
        # columns, 2^|A| - 1 of them.  Of these six n=7 tables' 6 * 127
        # events three are solved, and each solve doubles the scan's
        # denominator, so the certificates after it read the duals stored
        # before it at the new scale
        events = []
        counting = integrals.solve_max

        def by_event(objective, columns, rhs, denominator=1):
            events.append(mask_of(rhs))  # rhs is the indicator of A
            return counting(objective, columns, rhs, denominator)

        monkeypatch.setattr(integrals, "solve_max", by_event)
        for seed in range(6):
            balanced_cover(random_capacity(7, seed, "general"))
        assert events == [0b0001101, 0b1011001, 0b1011100]
        assert lp_columns == [2 ** bin(a).count("1") - 1 for a in events]

    def test_convex_and_additive_covers_solve_nothing(self, lp_columns):
        for seed in range(4):
            balanced_cover(random_capacity(6, seed, "convex"))
            P = random_probability(StateSpace(6), random.Random(seed))
            balanced_cover(Capacity(P.space, P.mass_table))
        assert lp_columns == []

    def test_pairs_game_solves_its_full_set_once(self, lp_columns):
        assert balanced_cover(PAIRS).values[-1] == F(3, 2)
        assert lp_columns == [7]

    def test_an_additive_state_is_certified_from_the_solved_duals(self, lp_columns):
        # v(T + {3}) = v(T) + 1: the full set is the solved {0, 1, 2} plus
        # state 3, certified by extending that LP's duals (1/2 each) by 1
        v = Capacity(StateSpace(4), PAIRS.values + tuple(x + 1 for x in PAIRS.values))
        cover = balanced_cover(v)
        assert cover.values[-1] == F(5, 2)
        assert lp_columns == [7]
        assert list(cover.values) == reference_cover(v)

    def test_induced_psp_with_full_supports_solves_once(self, lp_columns):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        family = [
            SimpleFunction.constant(space, 1),
            SimpleFunction(space, (F(1), F(2), F(3), F(1, 2))),
        ]
        induced_psp_capacity(P, family)
        assert lp_columns == [2]

    def test_concave_integral_keeps_every_column(self, lp_columns):
        v = random_capacity(5, 0, "general")
        concave_integral(SimpleFunction.indicator(v.space, 0b00101), v)
        assert lp_columns == [31]


# Points the simplex might return from a broken basis: one overshoots f
# at the value its weights would carry (the costs are the objective over
# its denominator), the other fits under f but claims a value its weights
# do not carry.  Each must fail its own replay.
BAD_SOLUTIONS = {
    "overshoot": lambda objective, d: (F(2), F(sum(objective, F(0)) * 2, d)),
    "wrong-value": lambda objective, d: (F(0), F(1)),
}


@pytest.mark.parametrize("bad", BAD_SOLUTIONS)
@pytest.mark.parametrize("integral", ["concave", "psp"])
def test_lp_witness_replay_refuses_an_inconsistent_point(monkeypatch, integral, bad):
    def inconsistent(objective, columns, rhs, denominator=1):
        weight, value = BAD_SOLUTIONS[bad](objective, denominator)
        x = tuple(weight for _ in objective)
        support = tuple(j for j, w in enumerate(x) if w)  # every index, or none
        return LPSolution(value, x, tuple(F(0) for _ in rhs), 0, support)

    monkeypatch.setattr(integrals, "solve_max", inconsistent)
    f = SimpleFunction.constant(NONCONVEX2.space, 1)
    with pytest.raises(RuntimeError, match="inconsistent optimal basis"):
        if integral == "concave":
            concave_integral(f, NONCONVEX2)
        else:
            psp_integral(f, ProbabilityMeasure.uniform(f.space), [f])


class TestBruteForceOracle:
    def test_worked_example(self):
        f = SimpleFunction.constant(StateSpace(2), 1)
        assert brute_force_cav_oracle(f, NONCONVEX2) == F(6, 5)

    def test_additive_unit(self):
        space = StateSpace(3)
        P = ProbabilityMeasure.uniform(space)
        f = SimpleFunction.constant(space, 1)
        assert brute_force_cav_oracle(f, Capacity(P.space, P.mass_table)) == 1

    def test_zero_function(self):
        v = random_capacity(3, 1, "general")
        assert brute_force_cav_oracle(SimpleFunction.constant(v.space, 0), v) == 0

    def test_matches_simplex(self):
        rng = random.Random(61)
        for seed in range(40):
            n = rng.randint(1, 3)
            v = random_capacity(n, seed, "general")
            f = random_simple_function(v.space, rng)
            assert brute_force_cav_oracle(f, v) == concave_integral(f, v).value

    def test_refuses_large_spaces(self):
        v = random_capacity(5, 0, "general")
        with pytest.raises(ValueError):
            brute_force_cav_oracle(SimpleFunction.constant(v.space, 0), v)
