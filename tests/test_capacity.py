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
    StateSpace,
    check_continuity_along_chain,
    check_convex,
    check_dense,
    check_monotone,
    check_null_additive,
    check_P_null_additive,
    generated_algebra,
    random_capacity,
    random_partition,
    random_probability,
)
from nonadd.capacity import (
    NonMonotoneChainError,
    replay_convexity_violation,
    replay_null_additivity_violation,
)


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

    def test_from_mapping_round_trip(self):
        space = StateSpace(2)
        v = Capacity.from_mapping(space, {0: 0, 1: "1/2", 2: "1/4", 3: 1})
        assert v.value(space.subset([0])) == F(1, 2)
        with pytest.raises(CapacityError):
            Capacity.from_mapping(space, {0: 0, 3: 1})

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
        assert P.as_capacity().values[0b111] == 1

    def test_null_states(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 2), F(0)))
        assert not P.is_strictly_positive()
        assert P.null_states_bits() == 0b100


class TestMonotone:
    def test_additive_measure_is_monotone(self):
        P = random_probability(StateSpace(4), random.Random(0))
        assert check_monotone(P.as_capacity()).holds

    def test_single_state(self):
        assert check_monotone(Capacity(StateSpace(1), (F(0), F(1)))).holds


class TestConvex:
    def test_additive_is_convex_with_equality(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
        v = P.as_capacity()
        assert check_convex(v).holds
        for e in v.space.all_masks():
            for g in v.space.all_masks():
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
        assert check_null_additive(P.as_capacity()).holds

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
        v = P.as_capacity()  # singleton information: value = mass
        report = check_P_null_additive(v, P)
        assert report.holds
        assert v.values[0b011] == v.values[0b111] == 1

    def test_worked_failure(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 2), F(0)))
        # monotone, capped below the top except at the full set
        values = [min(P.mass_table[m], F(1, 2)) for m in space.all_masks()]
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
        alg = generated_algebra(Partition.singletons(space))
        assert check_dense(alg, P).holds

    def test_trivial_algebra_fails_for_positive_measure(self):
        space = StateSpace(3)
        P = ProbabilityMeasure.uniform(space)
        report = check_dense(generated_algebra(Partition.trivial(space)), P)
        assert not report.holds

    def test_two_block_uniform_fails_at_half_block(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        alg = generated_algebra(Partition.from_blocks(space, [[0, 1], [2, 3]]))
        report = check_dense(alg, P)
        assert not report.holds
        f, a = report.witness
        assert P.mass(f & ~a) > 0
        assert alg.max_member_below(0b0001).bits == 0  # {0} has only the empty set below

    def test_matches_member_scan(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            space = StateSpace(n)
            for _ in range(20):
                P = random_probability(space, rng, strictly_positive=False)
                alg = generated_algebra(random_partition(space, rng))
                assert check_dense(alg, P).holds == dense_by_member_scan(
                    alg.members, P
                )


class TestContinuityAlongChain:
    def test_constant_chain_holds(self):
        v = cap2("1/2", "1/4", 1)
        chain = [v.space.subset([0])] * 3
        assert check_continuity_along_chain(v.value, chain).holds

    def test_any_finite_chain_holds(self):
        # chains on a finite space stabilize, so continuity is automatic
        rng = random.Random(3)
        for seed in range(10):
            v = random_capacity(4, seed, "general")
            space = v.space
            order = list(range(4))
            rng.shuffle(order)
            chain = []
            acc = space.empty()
            for k in order:
                acc = acc | space.singleton(k)
                chain.append(acc)
            assert check_continuity_along_chain(v.value, chain).holds

    def test_explicit_limit_can_fail(self):
        # an evaluator that drops mass at the declared limit set
        def evaluate(event):
            return F(0) if len(event) < 4 else F(1)

        space = StateSpace(4)
        chain = [space.subset([0]), space.subset([0, 1]), space.subset([0, 1, 2])]
        report = check_continuity_along_chain(evaluate, chain, limit=space.full())
        assert not report.holds

    def test_non_monotone_chain_raises(self):
        space = StateSpace(3)
        chain = [space.subset([0]), space.subset([1])]
        with pytest.raises(NonMonotoneChainError):
            check_continuity_along_chain(lambda e: F(0), chain)
