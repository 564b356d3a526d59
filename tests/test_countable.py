"""Countable models: exact tails, block covers, convergence structure."""

import random
from fractions import Fraction as F

import pytest

from nonadd import (
    CountableFunctionSequence,
    CountableModel,
    CountablePartition,
    EventuallyConstantFunction,
    EventuallyConstantSet,
    Partition,
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    check_increases_continuously,
    continuity_from_below_countable,
    countable_induced_value,
    countable_lebesgue,
    countable_psa_integral,
    dyadic_partitions,
    finite_measure,
    increasing_information_run,
    monotone_convergence_countable,
    pairs_model,
    pairs_partial_sum_trace,
    psa_integral,
    singletons_model,
    telescoping_measure,
    trivial_model,
    uniform_finite_measure,
    unit_prefix_sequence,
)
from nonadd.countable import random_eventually_constant_function


class TestMeasures:
    def test_telescoping_tail_identity(self):
        # partial sum plus tail is exactly one at every depth
        m = telescoping_measure()
        running = F(0)
        for k in range(1, 10_001):
            running += m.weight(k)
            assert running + m.tail(k) == 1
        assert m.tail(0) == 1

    def test_finite_measure_tail(self):
        m = finite_measure([F(1, 2), F(1, 4), F(1, 4)])
        assert m.tail(0) == 1
        assert m.tail(2) == F(1, 4)
        assert m.tail(3) == 0
        assert m.weight(7) == 0

    def test_inconsistent_tail_rejected(self):
        from nonadd.countable import CountableMeasure

        with pytest.raises(ValueError):
            CountableMeasure(
                "broken", lambda k: F(1, 2**k), lambda n: F(1, n + 1)
            )

    def test_finite_measure_validation(self):
        with pytest.raises(ValueError):
            finite_measure([F(1, 2), F(1, 4)])


class TestPartitionCovers:
    def test_pairs_cover_straddles_odd_horizon(self):
        m = telescoping_measure()
        blocks, remainder = CountablePartition("pairs").cover(m, 3)
        assert [b.members for b in blocks] == [(1, 2), (3, 4)]
        assert remainder == m.tail(4)
        assert sum((b.mass for b in blocks), remainder) == 1

    def test_trivial_cover(self):
        m = telescoping_measure()
        blocks, remainder = CountablePartition("trivial").cover(m, 5)
        assert len(blocks) == 1 and blocks[0].infinite and blocks[0].mass == 1
        assert remainder == 0

    def test_prefix_lump_cover(self):
        m = telescoping_measure()
        p = CountablePartition("prefix", prefix_len=3, tail_mode="lump")
        blocks, remainder = p.cover(m, 6)
        assert [b.infinite for b in blocks] == [False, True]
        assert blocks[0].members == (1, 2, 3)
        assert blocks[1].mass == m.tail(3)
        assert remainder == 0

    def test_explicit_blocks_validation(self):
        with pytest.raises(ValueError):
            CountablePartition("blocks", explicit_blocks=((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            CountablePartition("blocks", explicit_blocks=((1, 2), (4,)))

    def test_block_keys_partition_states(self):
        p = CountablePartition("prefix", prefix_len=2, tail_mode="singletons")
        assert p.block_key(1) == p.block_key(2)
        assert p.block_key(3) != p.block_key(4)


class TestCountableIntegral:
    def test_constant_one_integrates_to_one_everywhere(self):
        one = EventuallyConstantFunction.constant(1)
        for model in (pairs_model(), trivial_model(), singletons_model()):
            assert countable_psa_integral(one, model) == 1

    def test_pairs_prefix_indicators_telescoping(self):
        model = pairs_model()
        for m in (1, 2, 5, 10):
            f = EventuallyConstantFunction.unit_prefix(2 * m)
            assert countable_psa_integral(f, model) == 1 - F(1, 2 * m + 1)

    def test_trivial_field_prefix_indicators_vanish(self):
        model = trivial_model()
        for n in (1, 3, 10):
            f = EventuallyConstantFunction.unit_prefix(n)
            assert countable_psa_integral(f, model) == 0

    def test_singletons_give_ordinary_integral(self):
        rng = random.Random(0)
        model = singletons_model()
        for _ in range(10):
            f = random_eventually_constant_function(rng, rng.randint(0, 6))
            assert countable_psa_integral(f, model) == countable_lebesgue(
                f, model.measure
            )

    def test_monotone_in_the_function(self):
        rng = random.Random(1)
        for model in (pairs_model(), trivial_model()):
            for _ in range(10):
                f = random_eventually_constant_function(rng, 5)
                bump = random_eventually_constant_function(rng, 3)
                g = EventuallyConstantFunction(
                    5,
                    tuple(f(k) + bump(k) for k in range(1, 6)),
                    f.tail + bump.tail,
                )
                assert countable_psa_integral(g, model) >= countable_psa_integral(
                    f, model
                )

    def test_truncation_equivalence_with_finite_spaces(self):
        # a finitely supported model with all-finite blocks inside the
        # window must agree with the finite-space integral
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(2, 6)
            weights = [F(rng.randint(1, 5)) for _ in range(n)]
            total = sum(weights)
            weights = [w / total for w in weights]

            # random consecutive blocks covering 1..n
            blocks = []
            start = 1
            while start <= n:
                width = rng.randint(1, n - start + 1)
                blocks.append(tuple(range(start, start + width)))
                start += width
            partition = CountablePartition(
                "blocks", explicit_blocks=tuple(blocks)
            )
            model = CountableModel(finite_measure(weights), partition)
            values = tuple(F(rng.randint(0, 8), 4) for _ in range(n))
            f = EventuallyConstantFunction(n, values, F(0))

            space = StateSpace(n)
            P = ProbabilityMeasure(space, tuple(weights))
            fin_partition = Partition.from_blocks(
                space, [[k - 1 for k in b] for b in blocks]
            )
            fin_f = SimpleFunction(space, values)
            assert countable_psa_integral(f, model) == psa_integral(
                fin_f, P, fin_partition
            ).value


class TestInducedValues:
    def test_blocks_inside_count_their_mass(self):
        model = pairs_model()
        m = model.measure
        event = EventuallyConstantSet(4, (1, 2, 3), False)  # {1,2,3}
        assert countable_induced_value(event, model) == m.weight(1) + m.weight(2)

    def test_cofinite_event(self):
        model = pairs_model()
        event = EventuallyConstantSet(2, (), True)  # {3, 4, ...}
        assert countable_induced_value(event, model) == model.measure.tail(2)

    def test_whole_space(self):
        for model in (pairs_model(), trivial_model()):
            assert (
                countable_induced_value(EventuallyConstantSet.whole(), model) == 1
            )

    def test_trivial_field_sees_nothing_proper(self):
        model = trivial_model()
        assert (
            countable_induced_value(EventuallyConstantSet.prefix(100), model) == 0
        )


class TestFiniteAtoms:
    def test_families(self):
        assert CountablePartition("pairs").all_atoms_finite()
        assert CountablePartition("singletons").all_atoms_finite()
        assert not CountablePartition("trivial").all_atoms_finite()
        assert CountablePartition(
            "prefix", prefix_len=3, tail_mode="singletons"
        ).all_atoms_finite()
        assert not CountablePartition(
            "prefix", prefix_len=3, tail_mode="lump"
        ).all_atoms_finite()


class TestContinuityFromBelow:
    def test_pairs_holds(self):
        assert continuity_from_below_countable(pairs_model()).holds

    def test_singletons_holds(self):
        assert continuity_from_below_countable(singletons_model()).holds

    def test_trivial_fails_with_witness_chain(self):
        report = continuity_from_below_countable(trivial_model(), depth=8)
        assert not report.holds
        w = report.witness
        assert w.prefix_members == tuple(range(1, 9))
        assert all(x == 0 for x in w.prefix_values)
        assert w.atom_mass == 1

    def test_lump_fails_with_tail_mass(self):
        model = CountableModel(
            telescoping_measure(),
            CountablePartition("prefix", prefix_len=4, tail_mode="lump"),
        )
        report = continuity_from_below_countable(model)
        assert not report.holds
        assert report.witness.atom_mass == F(1, 5)
        assert all(x == 0 for x in report.witness.prefix_values)

    def test_massless_infinite_atom_is_harmless(self):
        model = CountableModel(
            finite_measure([F(1, 2), F(1, 2)]),
            CountablePartition("prefix", prefix_len=2, tail_mode="lump"),
        )
        report = continuity_from_below_countable(model)
        assert report.holds


class TestMonotoneConvergenceCountable:
    def test_pairs_converges(self):
        report = monotone_convergence_countable(pairs_model(), unit_prefix_sequence())
        assert report.converges is True
        assert report.limit_integral == 1
        assert report.finite_atoms

    def test_trivial_diverges_with_certificate(self):
        report = monotone_convergence_countable(trivial_model(), unit_prefix_sequence())
        assert report.converges is False
        assert report.basis == "divergence-bound"
        assert report.divergence_bound == 0
        assert all(x == 0 for x in report.integral_trace)
        assert report.limit_integral == 1

    def test_constant_sequence_on_trivial_field_converges(self):
        f = EventuallyConstantFunction.constant(1)
        seq = CountableFunctionSequence(
            term=lambda n: f, limit=f, stable_after=1
        )
        report = monotone_convergence_countable(trivial_model(), seq)
        assert report.converges is True
        assert report.basis == "stabilized"

    def test_constant_sequence_on_singletons_converges(self):
        f = EventuallyConstantFunction(2, (F(3), F(1)), F(1, 2))
        seq = CountableFunctionSequence(
            term=lambda n: f, limit=f, stable_after=1
        )
        report = monotone_convergence_countable(singletons_model(), seq)
        assert report.converges is True
        assert report.integral_trace[-1] == report.limit_integral

    def test_weak_but_not_pointwise_breaks_convergence_on_pair_blocks(self):
        # a sequence stuck on part of one block: the halting set is null
        # for the induced capacity, yet the integrals stall
        model = pairs_model()
        stuck = EventuallyConstantFunction(2, (F(1), F(0)), F(1))
        seq = CountableFunctionSequence(
            term=lambda n: stuck,
            limit=EventuallyConstantFunction.constant(1),
            pointwise=False,
            stable_after=1,
        )
        halted = EventuallyConstantSet.finite([2])
        assert countable_induced_value(halted, model) == 0  # weak-a.e. w.r.t. it
        report = monotone_convergence_countable(model, seq)
        assert report.converges is False
        assert report.integral_trace[-1] == F(1, 3)
        assert report.limit_integral == 1

    def test_non_increasing_sequence_rejected(self):
        def term(n):
            return EventuallyConstantFunction.unit_prefix(max(1, 5 - n))

        seq = CountableFunctionSequence(
            term=term, limit=EventuallyConstantFunction.constant(1)
        )
        with pytest.raises(ValueError):
            monotone_convergence_countable(pairs_model(), seq)

    def test_trace_matches_incremental_partial_sums(self):
        trace = pairs_partial_sum_trace(30)
        model = pairs_model()
        for m in (1, 2, 7, 30):
            f = EventuallyConstantFunction.unit_prefix(2 * m)
            assert trace[m - 1] == countable_psa_integral(f, model)
            assert trace[m - 1] == 1 - F(1, 2 * m + 1)


class TestIncreasingInformation:
    def test_dyadic_stabilizes_at_full_refinement(self):
        rng = random.Random(3)
        m = 4
        size = 1 << m
        partitions = dyadic_partitions(m)
        measure = uniform_finite_measure(size)
        for _ in range(10):
            values = tuple(F(rng.randint(0, 8), 4) for _ in range(size))
            f = EventuallyConstantFunction(size, values, F(0))
            run = increasing_information_run(partitions, measure, f)
            assert run.converges is True
            assert run.stabilized_at is not None
            assert run.stabilized_at <= m + 1
            assert run.integral_trace[-1] == run.target
            assert run.continuity.holds

    def test_constant_trivial_sequence_fails(self):
        partitions = [CountablePartition("trivial")] * 4
        run = increasing_information_run(
            partitions,
            telescoping_measure(),
            EventuallyConstantFunction.unit_prefix(4),
        )
        assert run.converges is False
        assert all(x == 0 for x in run.integral_trace)
        assert not run.continuity.holds
        event, values, target = run.continuity.witness
        assert all(x == 0 for x in values)
        assert target > 0

    def test_constant_function_trivially_converges(self):
        partitions = [CountablePartition("trivial")] * 3
        run = increasing_information_run(
            partitions,
            telescoping_measure(),
            EventuallyConstantFunction.constant(F(3, 7)),
        )
        assert run.converges is True
        assert all(x == F(3, 7) for x in run.integral_trace)

    def test_non_refining_sequence_rejected(self):
        partitions = [
            CountablePartition("singletons"),
            CountablePartition("pairs"),
        ]
        with pytest.raises(ValueError):
            increasing_information_run(
                partitions,
                telescoping_measure(),
                EventuallyConstantFunction.constant(1),
            )

    def test_refinement_to_singletons_is_dense(self):
        partitions = [
            CountablePartition("trivial"),
            CountablePartition("prefix", prefix_len=2, tail_mode="singletons"),
            CountablePartition("singletons"),
        ]
        report = check_increases_continuously(
            partitions, telescoping_measure()
        )
        assert report.holds

    def test_full_space_always_reaches_its_mass(self):
        partitions = [CountablePartition("trivial")] * 2
        report = check_increases_continuously(
            partitions,
            telescoping_measure(),
            [EventuallyConstantSet.whole()],
        )
        assert report.holds


class TestChainContinuityViaSharedEvaluator:
    def test_trivial_field_prefix_chain_fails_at_the_whole_space(self):
        # the finite-space chain checker drives the countable evaluator:
        # prefixes of the one infinite block stay at value 0 while the
        # block itself carries value 1
        from nonadd import check_continuity_along_chain

        model = trivial_model()
        chain = [EventuallyConstantSet.prefix(m) for m in range(1, 9)]
        report = check_continuity_along_chain(
            lambda event: countable_induced_value(event, model),
            chain,
            limit=EventuallyConstantSet.whole(),
        )
        assert not report.holds

    def test_pairs_prefix_chain_still_fails_short_of_the_limit(self):
        # with pair blocks the prefix values climb but no finite depth
        # reaches the limit value; the checker reports the exact gap
        from nonadd import check_continuity_along_chain

        model = pairs_model()
        chain = [EventuallyConstantSet.prefix(2 * m) for m in range(1, 6)]
        report = check_continuity_along_chain(
            lambda event: countable_induced_value(event, model),
            chain,
            limit=EventuallyConstantSet.whole(),
        )
        assert not report.holds  # stabilization never certified at depth 5

    def test_non_monotone_countable_chain_rejected(self):
        from nonadd import check_continuity_along_chain
        from nonadd.capacity import NonMonotoneChainError

        model = pairs_model()
        chain = [
            EventuallyConstantSet.finite([1, 2]),
            EventuallyConstantSet.finite([3]),
        ]
        with pytest.raises(NonMonotoneChainError):
            check_continuity_along_chain(
                lambda event: countable_induced_value(event, model), chain
            )


class TestNonSingletonBlocksBreakWeakConvergence:
    @pytest.mark.parametrize(
        "partition",
        [
            CountablePartition("pairs"),
            CountablePartition("prefix", prefix_len=3, tail_mode="singletons"),
            CountablePartition("trivial"),
        ],
    )
    def test_halting_inside_a_block_stalls_the_integrals(self, partition):
        # halting on a strict part of any multi-state block is invisible
        # to the induced capacity (weak-a.e. convergence) yet caps that
        # block's infimum forever, so the integrals stall below the target
        model = CountableModel(telescoping_measure(), partition)
        stuck = EventuallyConstantFunction(2, (F(1), F(0)), F(1))
        seq = CountableFunctionSequence(
            term=lambda n: stuck,
            limit=EventuallyConstantFunction.constant(1),
            pointwise=False,
            stable_after=1,
        )
        halted = EventuallyConstantSet.finite([2])
        assert countable_induced_value(halted, model) == 0
        report = monotone_convergence_countable(model, seq)
        assert report.converges is False
        assert report.integral_trace[-1] < report.limit_integral

    def test_singleton_blocks_do_not_allow_this(self):
        # with full information the halting set always carries its own
        # mass, so the same construction is not weak-a.e. convergent
        model = singletons_model()
        halted = EventuallyConstantSet.finite([2])
        assert countable_induced_value(halted, model) > 0


class TestEventuallyConstantSet:
    def test_membership_and_mass(self):
        s = EventuallyConstantSet(3, (1, 3), True)
        assert 1 in s and 2 not in s and 3 in s and 4 in s and 100 in s
        m = telescoping_measure()
        assert s.mass(m) == m.weight(1) + m.weight(3) + m.tail(3)

    def test_subset_relation(self):
        a = EventuallyConstantSet.finite([1, 2])
        b = EventuallyConstantSet.prefix(3)
        c = EventuallyConstantSet.whole()
        assert a <= b <= c
        assert not (c <= b)
        assert not (b <= a)

    def test_members_must_fit_horizon(self):
        with pytest.raises(ValueError):
            EventuallyConstantSet(2, (3,), False)
