"""The four integrals, the balanced cover, and the brute-force oracle."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lebesgue, survival_scan_choquet
from nonadd import (
    Capacity,
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
from nonadd.simplex import LPSolution
from nonadd.convergence import PROFILES

NONCONVEX2 = Capacity(StateSpace(2), (F(0), F(6, 10), F(6, 10), F(1)))


def test_simple_function_validation():
    space = StateSpace(2)
    with pytest.raises(ValueError):
        SimpleFunction(space, (F(-1), F(0)))
    with pytest.raises(ValueError):
        SimpleFunction(space, (F(1),))
    f = SimpleFunction(space, (F(2), F(1)))
    assert f.level_set_bits(F(2)) == 0b01
    assert f.level_set_bits(F(1)) == 0b11


class TestChoquet:
    def test_indicator_recovers_capacity(self):
        for seed in range(10):
            v = random_capacity(4, seed, "general")
            for mask in range(v.space.num_subsets):
                f = SimpleFunction.indicator(v.space, mask)
                assert choquet_integral(f, v).value == v.values[mask]

    def test_zero_function(self):
        v = random_capacity(3, 0, "general")
        result = choquet_integral(SimpleFunction.constant(v.space, 0), v)
        assert result.value == 0
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
        reference = [F(0)] + [
            concave_integral(SimpleFunction.indicator(v.space, bits), v).value
            for bits in range(1, v.space.num_subsets)
        ]
        assert list(balanced_cover(v).values) == reference


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
                random_simple_function(space, rng, denom=4, top=8)
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


@pytest.fixture
def lp_columns(monkeypatch):
    """Column count of every LP solved through ``integrals.solve_max``."""
    sizes = []
    solve_max = integrals.solve_max

    def counting(objective, columns, rhs):
        sizes.append(len(columns))
        return solve_max(objective, columns, rhs)

    monkeypatch.setattr(integrals, "solve_max", counting)
    return sizes


class TestColumnCounts:
    def test_cover_solves_each_event_over_its_subsets(self, lp_columns):
        balanced_cover(random_capacity(5, 0, "general"))
        assert len(lp_columns) == 31
        assert sum(lp_columns) == 3**5 - 2**5

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
# at the value its weights would carry, the other fits under f but claims
# a value its weights do not carry.  Each must fail its own replay.
BAD_SOLUTIONS = {
    "overshoot": lambda objective: (F(2), sum(objective, F(0)) * 2),
    "wrong-value": lambda objective: (F(0), F(1)),
}


@pytest.mark.parametrize("bad", BAD_SOLUTIONS)
@pytest.mark.parametrize("integral", ["concave", "psp"])
def test_lp_witness_replay_refuses_an_inconsistent_point(monkeypatch, integral, bad):
    def inconsistent(objective, columns, rhs):
        weight, value = BAD_SOLUTIONS[bad](objective)
        x = tuple(weight for _ in objective)
        return LPSolution(value, x, tuple(F(0) for _ in rhs), 0)

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
