"""Induced capacities: construction, witnesses, and the structural lemmas."""

import dataclasses
import random
from fractions import Fraction as F
from itertools import permutations

from helpers import all_set_partitions, lebesgue
from nonadd import (
    Partition,
    ProbabilityMeasure,
    StateSpace,
    argmax_witness,
    check_continuity_from_above,
    check_convex,
    check_dense,
    check_null_additive,
    check_weak_ae_equivalence,
    generated_algebra,
    induce,
    psa_integral,
    random_partition,
    random_probability,
    random_simple_function,
)
from nonadd.capacity import replay_null_additivity_violation
from nonadd.sets import max_member_table


def shift_pairs_model():
    """Eight states in two half-spaces, each block pairing k with k+4.

    No union of blocks fits inside either half, so both halves get value
    zero while the whole space keeps value one.
    """
    space = StateSpace(8)
    P = ProbabilityMeasure.uniform(space)
    partition = Partition.from_blocks(space, [[k, k + 4] for k in range(4)])
    return P, partition


class TestInduce:
    def test_singleton_partition_recovers_measure(self):
        rng = random.Random(1)
        space = StateSpace(4)
        P = random_probability(space, rng)
        ic = induce(P, Partition.singletons(space))
        assert ic.base.values == P.mass_table

    def test_shift_pairs_values(self):
        P, partition = shift_pairs_model()
        ic = induce(P, partition)
        assert ic.value(0b00001111) == 0
        assert ic.value(0b11110000) == 0
        assert ic.value(0b11111111) == 1
        report = check_null_additive(ic.base)
        assert not report.holds
        # the canonical half-space pair replays the violation too
        assert replay_null_additivity_violation(ic.base, 0b11110000, 0b00001111)

    def test_two_block_value_and_witness(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        partition = Partition.from_blocks(space, [[0, 1], [2, 3]])
        ic = induce(P, partition)
        assert ic.value(0b0111) == F(1, 2)
        assert argmax_witness(ic, 0b0111).bits == 0b0011

    def test_induced_is_convex(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(2, 8)
            space = StateSpace(n)
            P = random_probability(space, rng, strictly_positive=False)
            ic = induce(P, random_partition(space, rng))
            assert check_convex(ic.base).holds

    def test_induced_convex_exhaustive_small_partitions(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            space = StateSpace(n)
            for groups in all_set_partitions(range(n)):
                P = random_probability(space, rng)
                assert check_convex(induce(P, Partition.from_blocks(space, groups)).base).holds

    def test_induced_convex_exhaustive_coarse_partitions_n6(self):
        # every partition of six states into at most three blocks
        rng = random.Random(12)
        space = StateSpace(6)
        P = random_probability(space, rng)
        count = 0
        for groups in all_set_partitions(range(6)):
            if len(groups) > 3:
                continue
            count += 1
            assert check_convex(induce(P, Partition.from_blocks(space, groups)).base).holds
        assert count == 1 + 31 + 90  # Stirling numbers S(6,1..3)

    def test_algebra_members_keep_their_mass(self):
        rng = random.Random(4)
        space = StateSpace(5)
        P = random_probability(space, rng)
        partition = random_partition(space, rng)
        ic = induce(P, partition)
        for member in generated_algebra(partition).members:
            assert ic.value(member) == P.mass(member)
        for f in range(space.num_subsets):
            assert ic.value(f) <= P.mass(f)

    def test_witness_map_replays(self):
        rng = random.Random(5)
        space = StateSpace(5)
        P = random_probability(space, rng)
        partition = random_partition(space, rng)
        ic = induce(P, partition)
        assert ic.witness_map == tuple(max_member_table(partition))
        blocks = [b.bits for b in partition.blocks]
        for f in range(space.num_subsets):
            w = ic.witness_map[f]
            assert w == sum(b for b in blocks if b & ~f == 0)
            assert P.mass(w) == ic.base.values[f]


class TestArgmaxWitness:
    def test_full_space(self):
        P, partition = shift_pairs_model()
        ic = induce(P, partition)
        assert argmax_witness(ic, 0b11111111).bits == 0b11111111

    def test_strict_sub_block_gives_empty(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        ic = induce(P, Partition.from_blocks(space, [[0, 1], [2, 3]]))
        assert argmax_witness(ic, 0b0001).bits == 0

    def test_block_plus_fragment(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        ic = induce(P, Partition.from_blocks(space, [[0, 1], [2, 3]]))
        assert argmax_witness(ic, 0b1011).bits == 0b0011  # {0,1,3} -> {0,1}


class TestContinuityFromAbove:
    def test_holds_on_random_models(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(2, 6)
            space = StateSpace(n)
            P = random_probability(space, rng)
            ic = induce(P, random_partition(space, rng))
            assert check_continuity_from_above(ic).holds

    def test_trivial_partition(self):
        space = StateSpace(4)
        ic = induce(ProbabilityMeasure.uniform(space), Partition.trivial(space))
        assert check_continuity_from_above(ic).holds

    def test_sampled_chains_on_larger_space(self):
        space = StateSpace(8)
        P = ProbabilityMeasure.uniform(space)
        ic = induce(P, Partition.from_blocks(space, [[k, k + 4] for k in range(4)]))
        assert check_continuity_from_above(ic).holds

    def test_corrupted_witness_maps_match_all_chains(self):
        # the reference walks every maximal decreasing chain and keeps the
        # witness each failing chain reports; the scan must agree on the
        # verdict, and its witness must be one that some chain reaches
        rng = random.Random(11)
        failing = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            space = StateSpace(n)
            ic = induce(random_probability(space, rng), random_partition(space, rng))
            w = list(ic.witness_map)
            for _ in range(rng.randint(0, 2)):
                w[rng.randrange(1 << n)] = rng.randrange(1 << n)
            reached = set()
            for order in permutations(range(n)):
                current = space.full_bits
                running = w[current]
                for k in order:
                    current &= ~(1 << k)
                    running &= w[current]
                    if w[current] != running:
                        reached.add((current, w[current], running))
                        break
            report = check_continuity_from_above(
                dataclasses.replace(ic, witness_map=tuple(w))
            )
            assert report.holds == (not reached)
            if not report.holds:
                failing += 1
                assert report.witness in reached
        assert failing >= 50


class TestWeakAEEquivalence:
    def test_singleton_partition_all_true(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        report = check_weak_ae_equivalence(P, Partition.singletons(space))
        assert report.agree
        assert all(report.verdicts().values())

    def test_shift_pairs_all_false(self):
        P, partition = shift_pairs_model()
        report = check_weak_ae_equivalence(P, partition)
        assert report.agree
        assert not any(report.verdicts().values())
        assert report.dense.witness is not None
        assert report.null_additive.witness is not None

    def test_two_block_all_false(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        partition = Partition.from_blocks(space, [[0, 1], [2, 3]])
        report = check_weak_ae_equivalence(P, partition)
        assert report.agree
        assert not any(report.verdicts().values())

    def test_agreement_on_random_strictly_positive_models(self):
        rng = random.Random(7)
        for seed in range(12):
            n = rng.randint(2, 5)
            space = StateSpace(n)
            P = random_probability(space, rng, strictly_positive=True)
            partition = random_partition(space, rng)
            report = check_weak_ae_equivalence(P, partition, seed=seed)
            assert report.strictly_positive
            assert report.agree, report.verdicts()

    def test_density_matches_null_additivity_exhaustively(self):
        rng = random.Random(8)
        for n in (2, 3, 4, 5):
            space = StateSpace(n)
            for groups in all_set_partitions(range(n)):
                partition = Partition.from_blocks(space, groups)
                P = random_probability(space, rng)
                dense = check_dense(partition, P)
                nulladd = check_null_additive(induce(P, partition).base)
                assert dense.holds == nulladd.holds

    def test_lebesgue_condition_via_psa(self):
        rng = random.Random(9)
        space = StateSpace(4)
        P = random_probability(space, rng)
        partition = Partition.singletons(space)
        for _ in range(10):
            f = random_simple_function(space, rng)
            assert psa_integral(f, P, partition).value == lebesgue(f, P)


class TestMeasureAEConvergence:
    def test_p_ae_convergence_iff_p_null_additive(self):
        # finite-space analogue of the measure-a.e. convergence theorem
        # for induced capacities: continuity from below is automatic, so
        # integral convergence along P-a.e.-convergent increasing
        # sequences holds exactly when removing P-null portions never
        # changes the induced value
        from fractions import Fraction as F

        from nonadd import (
            FunctionSequence,
            SimpleFunction,
            check_P_null_additive,
            converges_P_ae,
            monotone_convergence_experiment,
        )
        from nonadd.convergence import generate_sequences

        rng = random.Random(21)
        space = StateSpace(4)
        seen = {True: 0, False: 0}
        for trial in range(40):
            weights = [F(rng.randint(0, 3)) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            P = ProbabilityMeasure(space, tuple(w / total for w in weights))
            partition = random_partition(space, rng)
            ic = induce(P, partition)
            prop = check_P_null_additive(ic.base, P)
            seen[prop.holds] += 1

            sequences = list(generate_sequences(ic.base, seed=trial, count=4))
            null_bits = P.null_states_bits()
            if null_bits:
                # ramp stuck strictly below the limit on P-null states
                target = random_simple_function(space, rng)
                stuck_values = tuple(
                    x / 2 if null_bits >> k & 1 else x
                    for k, x in enumerate(target.values)
                )
                sequences.append(
                    FunctionSequence(
                        (SimpleFunction(space, stuck_values),), target
                    )
                )
            if not prop.holds:
                g, f_mask = prop.witness
                sequences.append(
                    FunctionSequence(
                        (SimpleFunction.indicator(space, g),),
                        SimpleFunction.indicator(space, f_mask),
                    )
                )

            separated = False
            for seq in sequences:
                if not converges_P_ae(seq, P).holds:
                    continue
                if not monotone_convergence_experiment(seq, ic.base).holds:
                    separated = True
            assert separated == (not prop.holds)
        assert seen[True] > 10 and seen[False] > 10


class TestPNullAdditiveAnalogue:
    def test_strictly_positive_measure_vacuous(self):
        from nonadd import check_P_null_additive

        rng = random.Random(10)
        for _ in range(10):
            n = rng.randint(2, 5)
            space = StateSpace(n)
            P = random_probability(space, rng, strictly_positive=True)
            ic = induce(P, random_partition(space, rng))
            assert check_P_null_additive(ic.base, P).holds

    def test_reported_with_null_states(self):
        # not asserted as an equivalence, only exercised: the checker runs
        # and its witnesses replay when it fails
        from nonadd import check_P_null_additive

        rng = random.Random(11)
        space = StateSpace(4)
        for _ in range(10):
            weights = [F(rng.randint(0, 3)) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            P = ProbabilityMeasure(space, tuple(w / total for w in weights))
            ic = induce(P, random_partition(space, rng))
            report = check_P_null_additive(ic.base, P)
            if not report.holds:
                g, f = report.witness
                assert P.mass(f & ~g) == 0
                assert ic.base.values[g] != ic.base.values[f]
