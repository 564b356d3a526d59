"""Countable models: exact tails, block layouts, convergence structure."""

import random
import time
from fractions import Fraction as F
from itertools import accumulate
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadd import (
    CountableFunctionSequence,
    CountableModel,
    CountablePartition,
    EventuallyConstantFunction,
    Partition,
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    check_increases_continuously,
    continuity_from_below_countable,
    countable_lebesgue,
    countable_psa_integral,
    dyadic_partitions,
    finite_measure,
    increasing_information_run,
    monotone_convergence_countable,
    pairs_model,
    psa_integral,
    telescoping_measure,
    trivial_model,
    uniform_finite_measure,
    unit_prefix_sequence,
)
from nonadd import countable
from nonadd.countable import (
    CountableMeasure,
    _prefix_report,
    _tail_sum,
    random_eventually_constant_function,
)

# the telescoping measure under singleton blocks
SINGLETONS = CountableModel(telescoping_measure(), CountablePartition())

# an event is its indicator
indicator = EventuallyConstantFunction.indicator


def weight_sum(measure, states):
    return sum((measure.weight(k) for k in states), F(0))


class Block(NamedTuple):
    members: tuple
    infinite: bool
    mass: F


def cover(partition, measure, horizon):
    """Blocks meeting ``{1..horizon}`` and the leftover mass beyond.

    The blocks are :func:`ref_cover`'s, listed from ``block_key``; each
    mass is ``countable_lebesgue`` of the block's indicator, the by-parts
    sum both integrals end in.  An infinite block lists its members up to
    the horizon, and its indicator holds every state past them.
    """
    blocks = []
    for members, infinite, _ in ref_cover(partition, measure, horizon)[0]:
        event = indicator(members[-1], members, infinite)
        blocks.append(Block(members, infinite, countable_lebesgue(event, measure)))
    return blocks, 1 - sum((b.mass for b in blocks), F(0))


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

    def test_rising_tail_rejected(self):
        # a rising tail is a negative weight, here at state 3
        with pytest.raises(ValueError, match="nonnegative"):
            finite_measure([F(1, 2), F(1, 4), F(-1, 12), F(1, 3)])

    @pytest.mark.parametrize(
        "measure",
        [
            telescoping_measure(),
            finite_measure(["1/2", "1/3", "1/6"]),
            uniform_finite_measure(7),
        ],
        ids=["telescoping", "finite", "uniform"],
    )
    def test_weights_are_tail_differences(self, measure):
        for k in range(1, 1001):
            assert measure.weight(k) == measure.tail(k - 1) - measure.tail(k)

    @pytest.mark.parametrize(
        "measure",
        [
            finite_measure(["1/2", "1/3", "1/6"]),
            finite_measure(["0", "1/7", "2/9", "0", "1/2", "17/126"]),
            finite_measure([F(1, 2**61 - 1), F(2**61 - 2, 2**61 - 1)]),
            uniform_finite_measure(7),
        ],
        ids=["finite", "mixed-with-zeros", "wide", "uniform"],
    )
    def test_stored_weights_are_suffix_steps(self, measure):
        # the int weights a finite integral multiplies by, kept from
        # construction: each the step of the suffix sums, all over _den
        weights, suffix = measure._weights, measure._suffix
        assert type(weights) is tuple and all(type(w) is int for w in weights)
        assert len(weights) == len(measure.weights) == len(suffix) - 1
        assert list(weights) == [suffix[k - 1] - suffix[k] for k in range(1, len(suffix))]
        assert sum(weights) == measure._den
        assert [F(w, measure._den) for w in weights] == list(measure.weights)
        assert telescoping_measure()._weights is None

    def test_pair_masses_match_weights_past_a_kink(self):
        # weights 1/(k(k+1)) up to state 20, then falling linearly to 0 at
        # state 31: pair masses read through the tail must still equal
        # their summed weights across the change of shape
        weights = [F(1, k * (k + 1)) for k in range(1, 21)]
        weights += [F(31 - k, 21 * 55) for k in range(21, 31)]
        m = finite_measure(weights)
        blocks, remainder = cover(CountablePartition(width=2), m, 24)
        assert [b.members for b in blocks][-3:] == [(19, 20), (21, 22), (23, 24)]
        for b in blocks:
            assert b.mass == weight_sum(m, b.members)
        assert remainder == m.tail(24) == weight_sum(m, range(25, 31))

    def test_finite_measure_validation(self):
        with pytest.raises(ValueError):
            finite_measure([F(1, 2), F(1, 4)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: uniform_finite_measure(0),
        lambda: finite_measure([]),
        lambda: CountableMeasure("telescoping", (F(1),)),
        # a tail rule is no family: tail(0) = 1, then 1/2 for ever, so its
        # weights would sum to 1/2
        lambda: CountableMeasure(lambda n: F(1) if n == 0 else F(1, 2)),
        lambda: indicator(-3, (), True),
        lambda: indicator(-3),
        lambda: indicator(2, (0,)),
        lambda: indicator(2, (3,)),
        lambda: indicator(3, (2.0,)),
        lambda: indicator(3, (True,)),
        lambda: check_increases_continuously([], telescoping_measure()),
    ],
    ids=[
        "uniform-0",
        "finite-empty",
        "telescoping-weights",
        "tail-rule",
        "event-horizon-neg-tail",
        "event-horizon-neg",
        "event-state-0",
        "event-state-past-horizon",
        "event-state-float",
        "event-state-bool",
        "no-partitions",
    ],
)
def test_out_of_range_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestPartitionCovers:
    def test_pairs_cover_straddles_odd_horizon(self):
        m = telescoping_measure()
        blocks, remainder = cover(CountablePartition(width=2), m, 3)
        assert [b.members for b in blocks] == [(1, 2), (3, 4)]
        assert remainder == m.tail(4)
        assert sum((b.mass for b in blocks), remainder) == 1

    def test_trivial_cover(self):
        m = telescoping_measure()
        blocks, remainder = cover(CountablePartition(width=None), m, 5)
        assert len(blocks) == 1 and blocks[0].infinite and blocks[0].mass == 1
        assert remainder == 0

    def test_prefix_lump_cover(self):
        m = telescoping_measure()
        p = CountablePartition(((1, 2, 3),), width=None)
        blocks, remainder = cover(p, m, 6)
        assert [b.infinite for b in blocks] == [False, True]
        assert blocks[0].members == (1, 2, 3)
        assert blocks[1].mass == m.tail(3)
        assert remainder == 0

    def test_layout_validation(self):
        for head, width in [
            (((1, 2), (2, 3)), 1),  # overlap
            (((1, 2), (4,)), 1),  # gap
            (((1,), ()), 1),  # empty block
            ((), 3),
            ((), 0),
        ]:
            with pytest.raises(ValueError):
                CountablePartition(head, width)

    def test_equal_layouts_compare_equal(self):
        assert CountablePartition(((3, 1), (2,))) == CountablePartition(((1, 3), (2,)))
        assert CountablePartition(((1, 3), (2,))) != CountablePartition(((2,), (1, 3)))
        assert trivial_model().partition == CountablePartition(width=None)
        assert CountablePartition(width=None) != CountablePartition()

    def test_block_keys_partition_states(self):
        p = CountablePartition(((1, 2),))
        assert p.block_key(1) == p.block_key(2)
        assert p.block_key(3) != p.block_key(4)

    @pytest.mark.parametrize(
        "partition",
        [
            # the seven partitions of acceptance criterion 10
            CountablePartition(width=2),
            CountablePartition(),
            CountablePartition(width=None),
            CountablePartition(((1, 2, 3),)),
            CountablePartition(((1, 2, 3),), width=None),
            CountablePartition(((1, 2, 3), (4,))),
            CountablePartition(((1,), (2, 3)), width=None),
            # interleaved head blocks, and a head before pair blocks
            CountablePartition(((2, 5), (1,), (3, 4)), width=None),
            CountablePartition(((1, 2),), width=2),
            CountablePartition(((1,),), width=None),
        ],
    )
    def test_cover_keys_and_atoms_agree(self, partition):
        m = telescoping_measure()
        infinite_starts = set()
        for horizon in range(13):
            blocks, remainder = cover(partition, m, horizon)
            where = {}
            for i, b in enumerate(blocks):
                assert b.members[0] <= horizon  # every listed block meets the window
                for k in b.members:
                    assert k not in where  # disjoint
                    where[k] = i
                if b.infinite:
                    assert b.members == tuple(range(b.members[0], horizon + 1))
                    assert b.mass == m.tail(b.members[0] - 1)
                    infinite_starts.add(b.members[0])
                else:
                    assert b.mass == weight_sum(m, b.members)
            assert set(range(1, horizon + 1)) <= set(where)
            assert sum((b.mass for b in blocks), remainder) == 1
            for j in where:
                for k in where:
                    same_key = partition.block_key(j) == partition.block_key(k)
                    assert same_key == (where[j] == where[k]), (horizon, j, k)
        assert partition.all_atoms_finite() == (not infinite_starts)
        assert len(infinite_starts) <= 1
        assert partition.infinite_atom_start() == min(infinite_starts, default=None)


class TestCountableIntegral:
    def test_constant_one_integrates_to_one_everywhere(self):
        one = EventuallyConstantFunction.constant(1)
        for model in (pairs_model(), trivial_model(), SINGLETONS):
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
        model = SINGLETONS
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
            partition = CountablePartition(tuple(blocks))
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
    """The induced capacity's value at an event is the partition integral
    of its indicator."""

    def test_blocks_inside_count_their_mass(self):
        model = pairs_model()
        m = model.measure
        event = indicator(4, (1, 2, 3))  # {1,2,3}
        assert countable_psa_integral(event, model) == m.weight(1) + m.weight(2)

    def test_cofinite_event(self):
        model = pairs_model()
        event = indicator(2, (), True)  # {3, 4, ...}
        assert countable_psa_integral(event, model) == model.measure.tail(2)

    def test_whole_space(self):
        for model in (pairs_model(), trivial_model()):
            assert countable_psa_integral(indicator(0, (), True), model) == 1

    def test_trivial_field_sees_nothing_proper(self):
        model = trivial_model()
        event = indicator(100, range(1, 101))
        assert countable_psa_integral(event, model) == 0


class TestFiniteAtoms:
    def test_families(self):
        assert CountablePartition(width=2).all_atoms_finite()
        assert CountablePartition().all_atoms_finite()
        assert not CountablePartition(width=None).all_atoms_finite()
        assert CountablePartition(((1, 2, 3),)).all_atoms_finite()
        assert CountablePartition(((1, 2, 3),), width=2).all_atoms_finite()
        assert not CountablePartition(((1, 2, 3),), width=None).all_atoms_finite()


class TestContinuityFromBelow:
    def test_pairs_holds(self):
        assert continuity_from_below_countable(pairs_model()).holds

    def test_singletons_holds(self):
        assert continuity_from_below_countable(SINGLETONS).holds

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
            CountablePartition(((1, 2, 3, 4),), width=None),
        )
        report = continuity_from_below_countable(model)
        assert not report.holds
        assert report.witness.atom_mass == F(1, 5)
        assert all(x == 0 for x in report.witness.prefix_values)

    @pytest.mark.parametrize(
        "model", [trivial_model(), pairs_model()], ids=["trivial", "pairs"]
    )
    def test_depth_below_one_rejected(self, model):
        with pytest.raises(ValueError, match="depth"):
            continuity_from_below_countable(model, depth=0)

    def test_massless_infinite_atom_is_harmless(self):
        model = CountableModel(
            finite_measure([F(1, 2), F(1, 2)]),
            CountablePartition(((1, 2),), width=None),
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
        seq = CountableFunctionSequence("constant", f, f)
        report = monotone_convergence_countable(trivial_model(), seq)
        assert report.converges is True
        assert report.basis == "stabilized"

    def test_constant_sequence_on_singletons_converges(self):
        f = EventuallyConstantFunction(2, (F(3), F(1)), F(1, 2))
        seq = CountableFunctionSequence("constant", f, f)
        report = monotone_convergence_countable(SINGLETONS, seq)
        assert report.converges is True
        assert report.integral_trace[-1] == report.limit_integral

    def test_weak_but_not_pointwise_breaks_convergence_on_pair_blocks(self):
        # a sequence stuck on part of one block: the halting set is null
        # for the induced capacity, yet the integrals stall
        model = pairs_model()
        stuck = EventuallyConstantFunction(2, (F(1), F(0)), F(1))
        seq = CountableFunctionSequence(
            "constant", stuck, EventuallyConstantFunction.constant(1)
        )
        halted = indicator(2, [2])
        assert countable_psa_integral(halted, model) == 0  # weak-a.e. w.r.t. it
        report = monotone_convergence_countable(model, seq)
        assert report.converges is False and report.basis == "stabilized"
        assert report.integral_trace == (F(1, 3),) * 12
        assert report.limit_integral == 1

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            monotone_convergence_countable(
                pairs_model(), unit_prefix_sequence(), depth=0
            )

    @pytest.mark.parametrize(
        "f, g",
        [
            # f(2) = 2 > g(2) = 1: past f's horizon, inside g's
            (
                EventuallyConstantFunction(1, (F(0),), F(2)),
                EventuallyConstantFunction(3, (F(1),) * 3, F(2)),
            ),
            # values below the limit's, only the tail constant above it
            (
                EventuallyConstantFunction(2, (F(0), F(0)), F(2)),
                EventuallyConstantFunction(2, (F(1), F(1)), F(1)),
            ),
        ],
        ids=["past-f-horizon", "tail-constant"],
    )
    def test_term_above_limit_rejected(self, f, g):
        with pytest.raises(ValueError, match="exceeds"):
            CountableFunctionSequence("constant", f, g)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "unit-prefix", "f": EventuallyConstantFunction.constant(0)},
            {"family": "unit-prefix", "limit": EventuallyConstantFunction.constant(2)},
            {"family": "constant"},
            {"family": "ramp"},
        ],
        ids=["prefix-f", "prefix-limit", "constant-no-f", "unknown"],
    )
    def test_family_fields_checked(self, kwargs):
        with pytest.raises(ValueError):
            CountableFunctionSequence(**kwargs)

    def test_trace_matches_incremental_partial_sums(self):
        model = pairs_model()
        report = monotone_convergence_countable(model, unit_prefix_sequence(), 60)
        trace = report.integral_trace[1::2]
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
        partitions = [CountablePartition(width=None)] * 4
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
        partitions = [CountablePartition(width=None)] * 3
        run = increasing_information_run(
            partitions,
            telescoping_measure(),
            EventuallyConstantFunction.constant(F(3, 7)),
        )
        assert run.converges is True
        assert all(x == F(3, 7) for x in run.integral_trace)

    def test_non_refining_sequence_rejected(self):
        partitions = [
            CountablePartition(),
            CountablePartition(width=2),
        ]
        with pytest.raises(ValueError):
            increasing_information_run(
                partitions,
                telescoping_measure(),
                EventuallyConstantFunction.constant(1),
            )

    @pytest.mark.parametrize(
        "coarse, fine, state",
        [
            # the infinite block from 101 splits the pairs (101, 102) and
            # (103, 104), past any fixed window of 64 states
            (
                CountablePartition(width=2),
                CountablePartition(tuple((k,) for k in range(1, 101)), width=None),
                103,
            ),
            (CountablePartition(), CountablePartition(width=2), 2),
            (CountablePartition(width=2), CountablePartition(width=None), 3),
        ],
        ids=["past-a-long-head", "singletons-then-pairs", "pairs-then-infinite"],
    )
    def test_refinement_is_decided_past_the_heads(self, coarse, fine, state):
        with pytest.raises(ValueError, match=f"state {state} splits"):
            check_increases_continuously([coarse, fine], telescoping_measure())

    @pytest.mark.parametrize(
        "coarse, fine",
        [
            (CountablePartition(width=2), CountablePartition()),
            (CountablePartition(width=None), CountablePartition(width=2)),
        ],
        ids=["pairs-then-singletons", "infinite-then-pairs"],
    )
    def test_refining_tails_are_accepted(self, coarse, fine):
        check_increases_continuously([coarse, fine], telescoping_measure())

    def test_refinement_to_singletons_is_dense(self):
        partitions = [
            CountablePartition(width=None),
            CountablePartition(((1, 2),)),
            CountablePartition(),
        ]
        report = check_increases_continuously(
            partitions, telescoping_measure()
        )
        assert report.holds

    def test_full_space_always_reaches_its_mass(self):
        whole = indicator(0, (), True)
        model = CountableModel(telescoping_measure(), CountablePartition(width=None))
        assert countable_psa_integral(whole, model) == countable_lebesgue(
            whole, model.measure
        )
        report = check_increases_continuously(
            [model.partition] * 2, model.measure
        )
        assert not report.holds and report.witness[0] != whole

    def test_heavy_state_beyond_a_long_singleton_head_fails(self):
        # singleton head blocks 1..100, then one infinite block: the event
        # {101} holds no block, yet carries mass 1/(101 * 102)
        partitions = [
            CountablePartition(width=None),
            CountablePartition(tuple((k,) for k in range(1, 101)), width=None),
        ]
        report = check_increases_continuously(partitions, telescoping_measure())
        assert not report.holds
        assert report.witness == (
            indicator(101, [101]), (F(0), F(0)), F(1, 10302)
        )


class TestNonSingletonBlocksBreakWeakConvergence:
    @pytest.mark.parametrize(
        "partition",
        [
            CountablePartition(width=2),
            CountablePartition(((1, 2, 3),)),
            CountablePartition(width=None),
        ],
    )
    def test_halting_inside_a_block_stalls_the_integrals(self, partition):
        # halting on a strict part of any multi-state block is invisible
        # to the induced capacity (weak-a.e. convergence) yet caps that
        # block's infimum forever, so the integrals stall below the target
        model = CountableModel(telescoping_measure(), partition)
        stuck = EventuallyConstantFunction(2, (F(1), F(0)), F(1))
        seq = CountableFunctionSequence(
            "constant", stuck, EventuallyConstantFunction.constant(1)
        )
        halted = indicator(2, [2])
        assert countable_psa_integral(halted, model) == 0
        report = monotone_convergence_countable(model, seq)
        assert report.converges is False
        assert report.integral_trace[-1] < report.limit_integral

    def test_singleton_blocks_do_not_allow_this(self):
        # with full information the halting set always carries its own
        # mass, so the same construction is not weak-a.e. convergent
        model = SINGLETONS
        halted = indicator(2, [2])
        assert countable_psa_integral(halted, model) > 0


class TestIndicator:
    def test_membership_and_mass(self):
        s = indicator(3, (1, 3), True)
        assert [s(k) for k in (1, 2, 3, 4, 100)] == [1, 0, 1, 1, 1]
        m = telescoping_measure()
        assert countable_lebesgue(s, m) == m.weight(1) + m.weight(3) + m.tail(3)

    def test_members_must_fit_horizon(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            indicator(2, (3,))


# -- reference per-block loops ---------------------------------------------
#
# The integrals sum tails with integer weights; these references list
# each block from ``block_key`` alone and add its infimum times its mass,
# one Fraction at a time.


def ref_cover(partition, measure, horizon):
    """``[(members, infinite, mass)]`` and the remainder, from block keys."""
    head = sum(map(len, partition.head))
    reach = horizon + head + 2
    start = partition.infinite_atom_start()
    groups = {}
    for k in range(1, reach + 1):
        groups.setdefault(partition.block_key(k), []).append(k)
    blocks = []
    for key in sorted(groups):
        members = groups[key]
        if members[0] > horizon:
            continue
        if start is not None and key == partition.block_key(start):
            members = tuple(range(start, horizon + 1))
            blocks.append((members, True, measure.tail(start - 1)))
        else:
            blocks.append((tuple(members), False, weight_sum(measure, members)))
    remainder = 1 - sum((mass for _, _, mass in blocks), F(0))
    return blocks, remainder


def ref_psa(f, model):
    blocks, remainder = ref_cover(model.partition, model.measure, f.horizon)
    total = F(0)
    for members, infinite, mass in blocks:
        inf = min(f(k) for k in members)
        if infinite and f.tail < inf:
            inf = f.tail
        total += inf * mass
    return total + f.tail * remainder


def ref_holds(horizon, members, tail_in):
    """Membership of the event drawn as ``(horizon, members, tail_in)``."""
    inside = set(members)
    return lambda k: k in inside if k <= horizon else tail_in


def ref_induced(horizon, members, tail_in, model):
    holds = ref_holds(horizon, members, tail_in)
    blocks, remainder = ref_cover(model.partition, model.measure, horizon)
    total = F(0)
    for members, infinite, mass in blocks:
        if infinite and not tail_in:
            continue
        if all(holds(k) for k in members):
            total += mass
    if tail_in:
        total += remainder
    return total


def ref_mass(horizon, members, tail_in, measure):
    return weight_sum(measure, members) + (measure.tail(horizon) if tail_in else 0)


def ref_lebesgue(f, measure):
    total = sum((f(k) * measure.weight(k) for k in range(1, f.horizon + 1)), F(0))
    return total + f.tail * measure.tail(f.horizon)


@st.composite
def countable_measures(draw):
    kind = draw(st.sampled_from(["telescoping", "finite", "uniform"]))
    if kind == "telescoping":
        return telescoping_measure()
    if kind == "uniform":
        return uniform_finite_measure(draw(st.integers(1, 12)))
    raw = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    raw[draw(st.integers(0, len(raw) - 1))] += 1  # some weight is positive
    return finite_measure([F(x, sum(raw)) for x in raw])


@st.composite
def countable_partitions(draw, max_head=12, widths=(1, 2, None), max_label=3):
    """A layout: states ``1..K`` labelled at random, blocks of equal labels
    (often not runs), then a tail of width 1 or 2 or one infinite block."""
    labels = draw(st.lists(st.integers(0, max_label), max_size=max_head))
    blocks = {}
    for k, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(k)
    width = draw(st.sampled_from(widths))
    return CountablePartition(tuple(map(tuple, blocks.values())), width)


# small denominators scale to ints; two large primes push the common
# denominator past 64 bits, where the scaled values stay Fractions
DENOMS = [1, 2, 3, 8, 2**61 - 1, 2**31 - 1]


@st.composite
def countable_functions(draw):
    horizon = draw(st.integers(0, 40))
    values = st.builds(F, st.integers(0, 4), st.sampled_from(DENOMS))
    return EventuallyConstantFunction(
        horizon,
        tuple(draw(st.lists(values, min_size=horizon, max_size=horizon))),
        draw(values),
    )


@st.composite
def countable_events(draw):
    """An event as ``(horizon, members, tail_in)``, the members in order."""
    horizon = draw(st.integers(0, 40))
    inside = draw(st.lists(st.booleans(), min_size=horizon, max_size=horizon))
    members = tuple(k for k, x in enumerate(inside, start=1) if x)
    return horizon, members, draw(st.booleans())


class TestTailSumsMatchBlockLoops:
    @settings(max_examples=150, deadline=None)
    @given(countable_partitions(), countable_measures(), st.integers(0, 40))
    def test_cover(self, partition, measure, horizon):
        blocks, remainder = cover(partition, measure, horizon)
        want, want_remainder = ref_cover(partition, measure, horizon)
        assert [tuple(b) for b in blocks] == want
        assert remainder == want_remainder
        assert all(type(b.mass) is F for b in blocks) and type(remainder) is F

    @settings(max_examples=200, deadline=None)
    @given(
        countable_functions(),
        st.one_of(
            countable_partitions(),
            # many small head blocks whose members interleave
            countable_partitions(max_head=80, max_label=40),
        ),
        countable_measures(),
    )
    def test_psa_and_lebesgue(self, f, partition, measure):
        model = CountableModel(measure, partition)
        psa = countable_psa_integral(f, model)
        lebesgue = countable_lebesgue(f, measure)
        assert psa == ref_psa(f, model) and type(psa) is F
        assert lebesgue == ref_lebesgue(f, measure) and type(lebesgue) is F

    @settings(max_examples=200, deadline=None)
    @given(countable_events(), countable_partitions(), countable_measures())
    def test_induced_value(self, drawn, partition, measure):
        model = CountableModel(measure, partition)
        value = countable_psa_integral(indicator(*drawn), model)
        assert value == ref_induced(*drawn, model) and type(value) is F

    @settings(max_examples=200, deadline=None)
    @given(
        countable_events(),
        countable_events(),
        countable_partitions(),
        countable_measures(),
    )
    def test_membership_mass_and_inclusion(self, drawn, other, partition, measure):
        a, holds_a, holds_b = indicator(*drawn), ref_holds(*drawn), ref_holds(*other)
        # beyond the horizon membership is constant
        assert all(a(k) == holds_a(k) for k in range(1, a.horizon + 3))
        mass = countable_lebesgue(a, measure)
        assert mass == ref_mass(*drawn, measure) and type(mass) is F
        # the union holds the event: its induced value and mass are no smaller
        top = max(a.horizon, other[0])
        union = indicator(
            top,
            [k for k in range(1, top + 1) if holds_a(k) or holds_b(k)],
            drawn[2] or other[2],
        )
        model = CountableModel(measure, partition)
        assert countable_psa_integral(a, model) <= countable_psa_integral(union, model)
        assert mass <= countable_lebesgue(union, measure)

    def test_values_past_the_scaling_budget(self):
        # denominators whose lcm passes 64 bits: the scaled values stay
        # Fractions with factor 1, and the sums still match
        f = EventuallyConstantFunction(
            5,
            (F(1, 2**61 - 1), F(3, 2**31 - 1), F(1, 2), F(0), F(2, 3)),
            F(1, 2**61 - 1),
        )
        scaled, common = f._scaled
        assert common == 1 and scaled[:-1] == f.values
        partition = CountablePartition(((1, 4), (2,), (3, 5)))
        for model in (
            CountableModel(telescoping_measure(), partition),
            pairs_model(),
            trivial_model(),
        ):
            assert countable_psa_integral(f, model) == ref_psa(f, model)
        assert countable_lebesgue(f, telescoping_measure()) == ref_lebesgue(
            f, telescoping_measure()
        )

    @pytest.mark.parametrize(
        "event, model, want",
        [
            # meets no block: the tail alone, tail(0)
            (indicator(0, (), True), pairs_model(), 1),
            # every block weight cancels
            (indicator(3), pairs_model(), 0),
            (indicator(0), trivial_model(), 0),
        ],
    )
    def test_edge_branches_return_fractions(self, event, model, want):
        value = countable_psa_integral(event, model)
        assert value == want and type(value) is F
        f = EventuallyConstantFunction.constant(0)
        for value in (
            countable_psa_integral(f, model),
            countable_lebesgue(f, model.measure),
        ):
            assert value == 0 and type(value) is F


class TestRefinementAgainstStatePairs:
    @settings(max_examples=200, deadline=None)
    @given(
        countable_partitions(max_head=16, max_label=6),
        countable_partitions(max_head=16, max_label=6),
    )
    def test_refinement_names_the_first_splitting_state(self, coarse, fine):
        # against every pair of states up to the longer head plus 8: the
        # first state sharing a fine block with an earlier one that lies
        # in another coarse block
        n = max(len(coarse._block_of), len(fine._block_of)) + 8
        split = next(
            (
                k
                for k in range(1, n + 1)
                for j in range(1, k)
                if fine.block_key(j) == fine.block_key(k)
                and coarse.block_key(j) != coarse.block_key(k)
            ),
            None,
        )
        if split is None:
            countable._check_refining([coarse, fine])
        else:
            with pytest.raises(ValueError, match=f"state {split} splits"):
                countable._check_refining([coarse, fine])


class TestContinuityChain:
    @settings(max_examples=100, deadline=None)
    @given(
        countable_partitions(widths=[None]), countable_measures(), st.integers(1, 20)
    )
    def test_every_prefix_of_the_chain_is_worth_zero(self, partition, measure, depth):
        # the report replays only the longest prefix; replay each one here
        model = CountableModel(measure, partition)
        report = continuity_from_below_countable(model, depth)
        start = partition.infinite_atom_start()
        assert report.holds is (measure.tail(start - 1) == 0)
        if not report.holds:
            w = report.witness
            assert w.prefix_members == tuple(range(start, start + depth))
            for d in range(1, depth + 1):
                members = w.prefix_members[:d]
                value = countable_psa_integral(indicator(members[-1], members), model)
                assert value == w.prefix_values[d - 1] and type(value) is F

    def test_deep_chain_is_one_replay(self, monkeypatch):
        calls = []
        replay = countable.countable_psa_integral

        def counted(f, model):
            calls.append(f.horizon)
            return replay(f, model)

        monkeypatch.setattr(countable, "countable_psa_integral", counted)
        started = time.perf_counter()
        report = continuity_from_below_countable(trivial_model(), depth=20_000)
        assert time.perf_counter() - started < 1.0
        assert calls == [20_000]
        assert report.witness.prefix_values == (F(0),) * 20_000


@pytest.fixture
def tail_reads(monkeypatch):
    """The tail indices of the nonzero weights handed to ``_tail_sum``, in
    order: each is one tail the sum reads."""
    reads = []
    tail_sum = countable._tail_sum

    def counted(weights, measure):
        reads.extend(k for k, w in weights.items() if w)
        return tail_sum(weights, measure)

    monkeypatch.setattr(countable, "_tail_sum", counted)
    return reads


class TestTailSumWork:
    def test_pairs_read_one_tail_per_block_boundary(self, tail_reads):
        f = random_eventually_constant_function(random.Random(0), 20_000)
        countable_psa_integral(f, pairs_model())
        # one read per boundary 0, 2, ..., 20000 at most, each read once
        assert tail_reads
        assert len(tail_reads) <= 10_001 and len(set(tail_reads)) == len(tail_reads)

    @pytest.mark.parametrize("n", [0, 1, 16_000])
    def test_prefix_mass_reads_two_tails(self, tail_reads, n):
        m = telescoping_measure()
        prefix = indicator(n, range(1, n + 1))
        assert countable_lebesgue(prefix, m) == 1 - F(1, n + 1)
        assert len(tail_reads) == min(n, 1) * 2


class TestSequenceVerdicts:
    """Both sequence forms are decided exactly, whatever the depth."""

    def test_unit_prefixes_on_pairs_converge_at_every_depth(self):
        # unit prefixes never repeat, so no index can be declared stable
        with pytest.raises(TypeError):
            CountableFunctionSequence("unit-prefix", stable_after=3)
        for depth in (1, 2, 3, 12):
            report = monotone_convergence_countable(
                pairs_model(), unit_prefix_sequence(), depth
            )
            assert report.converges is True and report.basis == "finite-atoms"

    def test_massless_infinite_block_converges_before_the_trace_does(self):
        model = CountableModel(
            uniform_finite_measure(20),
            CountablePartition((tuple(range(1, 21)),), width=None),
        )
        report = monotone_convergence_countable(model, unit_prefix_sequence())
        assert report.converges is True and report.basis == "massless-block"
        assert report.integral_trace == (F(0),) * 12
        assert report.divergence_bound is None
        deep = monotone_convergence_countable(model, unit_prefix_sequence(), 20)
        assert deep.converges is True and deep.basis == "exact"
        assert deep.integral_trace[-2:] == (F(0), F(1))

    def test_basis_turns_exact_once_the_blocks_hold_all_the_mass(self):
        # converges never depends on the depth; basis does: on four states
        # under pair blocks, {1..3} holds only the block {1, 2}
        model = CountableModel(finite_measure([F(1, 4)] * 4), CountablePartition(width=2))
        shallow, deep = (
            monotone_convergence_countable(model, unit_prefix_sequence(), depth)
            for depth in (3, 4)
        )
        assert shallow.converges is deep.converges is True
        assert shallow.basis == "finite-atoms" and shallow.gap_at_depth == F(1, 2)
        assert deep.basis == "exact" and deep.gap_at_depth == 0

    @settings(max_examples=150, deadline=None)
    @given(
        countable_functions(),
        st.one_of(st.just(EventuallyConstantFunction.constant(0)), countable_functions()),
        countable_partitions(),
        countable_measures(),
        st.integers(1, 5),
    )
    def test_constant_verdict_compares_the_two_integrals(
        self, f, excess, partition, measure, depth
    ):
        h = max(f.horizon, excess.horizon)
        g = EventuallyConstantFunction(
            h, tuple(f(k) + excess(k) for k in range(1, h + 1)), f.tail + excess.tail
        )
        model = CountableModel(measure, partition)
        report = monotone_convergence_countable(
            model, CountableFunctionSequence("constant", f, g), depth
        )
        value, target = ref_psa(f, model), ref_psa(g, model)
        assert report.converges is (value == target)
        assert report.integral_trace == (value,) * depth
        assert report.limit_integral == target and report.basis == "stabilized"

    @settings(max_examples=200, deadline=None)
    @given(
        countable_partitions(),
        st.one_of(
            countable_measures(),
            # weights on 1..K, then explicit zeros up to state 20
            st.lists(st.integers(0, 4), min_size=1, max_size=12)
            .filter(any)
            .map(lambda raw: finite_measure(
                [F(x, sum(raw)) for x in raw] + [F(0)] * (20 - len(raw))
            )),
        ),
        st.integers(1, 30),
    )
    def test_unit_prefix_verdict_is_no_heavy_infinite_block(
        self, partition, measure, depth
    ):
        model = CountableModel(measure, partition)
        report = monotone_convergence_countable(model, unit_prefix_sequence(), depth)
        # every head ends by state 12, so at horizon 40 an infinite block
        # is listed, with the mass its members carry
        blocks, _ = ref_cover(partition, measure, 40)
        heavy = any(infinite and mass > 0 for _, infinite, mass in blocks)
        assert report.converges is (not heavy)
        unit = EventuallyConstantFunction.unit_prefix
        assert report.integral_trace == tuple(
            ref_psa(unit(n), model) for n in range(1, depth + 1)
        )
        if measure.family == "finite":
            # every state of positive weight lies below 21, so the trace
            # has reached its limit by state 40
            assert report.converges is (ref_psa(unit(40), model) == 1)


class TestIncreasesContinuouslyVerdict:
    @settings(max_examples=100, deadline=None)
    @given(
        countable_partitions(max_head=6),
        st.one_of(
            st.just(telescoping_measure()),
            st.lists(st.integers(0, 3), min_size=1, max_size=6)
            .filter(any)
            .map(lambda raw: finite_measure([F(x, sum(raw)) for x in raw])),
        ),
    )
    def test_verdict_matches_a_scan_of_every_event(self, partition, measure):
        # beyond N every state is in the scanned tail, and each state of
        # positive weight in a larger block lies in 1..N, so the scan over
        # every event of 1..N, with and without the tail, is complete
        n = max(sum(map(len, partition.head)) + 3, len(measure.weights) + 1)
        model = CountableModel(measure, partition)

        def reaches(event):
            return countable_psa_integral(event, model) == countable_lebesgue(
                event, measure
            )

        holds = all(
            reaches(indicator(n, members, tail_in))
            for mask in range(1 << n)
            for members in [[k for k in range(1, n + 1) if mask >> (k - 1) & 1]]
            for tail_in in (False, True)
        )
        report = check_increases_continuously(
            [CountablePartition(width=None), partition], measure
        )
        assert report.holds is holds
        if not holds:
            lowest = next(
                k for k in range(1, n + 1)
                if not reaches(indicator(k, [k]))
            )
            event, values, mass = report.witness
            assert event == indicator(lowest, [lowest])
            assert values == (F(0), F(0))
            assert countable_psa_integral(event, model) == 0 < mass
            assert mass == countable_lebesgue(event, measure)


class TestRefinementVerdict:
    @settings(max_examples=200, deadline=None)
    @given(countable_partitions(max_head=6), countable_partitions(max_head=6))
    def test_verdict_matches_a_long_scan(self, coarse, fine):
        # scan well past both heads, where the tails have long repeated;
        # the first state whose fine block already met another coarse
        # block is the one the error names
        top = max(sum(map(len, coarse.head)), sum(map(len, fine.head)))
        owner, split = {}, None
        for k in range(1, 3 * (top + 2) + 11):
            c = coarse.block_key(k)
            if owner.setdefault(fine.block_key(k), c) != c:
                split = k
                break
        if split is None:
            check_increases_continuously([coarse, fine], telescoping_measure())
        else:
            with pytest.raises(ValueError, match=f"state {split} splits"):
                check_increases_continuously([coarse, fine], telescoping_measure())


# -- tails as ints ----------------------------------------------------------
#
# A tail is read as an int pair: a finite family keeps its suffix sums over
# the lcm of its weight denominators.  These references read each tail
# from its Fraction definition.

PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


@st.composite
def int_tail_measures(draw):
    """Telescoping, or finite with one state, with zero weights and mixed
    denominators (one past 64 bits), or with one distinct prime per weight
    but the last, which takes the rest."""
    kind = draw(st.sampled_from(["telescoping", "one-state", "mixed", "primes"]))
    if kind == "telescoping":
        return telescoping_measure()
    if kind == "one-state":
        return finite_measure([1])
    if kind == "primes":
        size = draw(st.integers(1, 20))
        primes = draw(
            st.lists(
                st.sampled_from([p for p in PRIMES if p > 2 * size]),
                min_size=size - 1, max_size=size - 1, unique=True,
            )
        )
        weights = [F(1, p) for p in primes]
        return finite_measure(weights + [1 - sum(weights, F(0))])
    fraction = st.builds(F, st.integers(0, 3), st.sampled_from(DENOMS + [5, 12]))
    raw = draw(st.lists(fraction, max_size=12))
    raw.append(draw(fraction.filter(bool)))
    raw += [F(0)] * draw(st.integers(0, 3))
    total = sum(raw, F(0))
    return finite_measure([x / total for x in raw])


def ref_tail(measure, n):
    if measure.family == "telescoping":
        return F(1, n + 1)
    return sum(measure.weights[n:], F(0))


class TestIntTails:
    @settings(max_examples=200, deadline=None)
    @given(int_tail_measures())
    def test_tail_matches_its_definition(self, measure):
        top = len(measure.weights) or 20
        for n in range(top + 4):
            tail = measure.tail(n)
            assert tail == ref_tail(measure, n) and type(tail) is F
        with pytest.raises(ValueError, match="^tail index must be at least 0, got -1$"):
            measure.tail(-1)

    @settings(max_examples=200, deadline=None)
    @given(
        int_tail_measures(),
        st.dictionaries(
            st.integers(0, 25),
            st.one_of(
                st.integers(-5, 5),
                st.builds(F, st.integers(-5, 5), st.sampled_from(DENOMS)),
            ),
            max_size=10,
        ),
    )
    def test_tail_sum_matches_its_definition(self, measure, weights):
        total = _tail_sum(weights, measure)
        want = sum((w * measure.tail(k) for k, w in weights.items()), F(0))
        assert total == want and type(total) is F

    @settings(max_examples=200, deadline=None)
    @given(countable_partitions(), int_tail_measures(), st.integers(1, 30), st.data())
    def test_unit_prefix_trace_matches_block_weights(
        self, partition, measure, depth, data
    ):
        # entry n: the summed weights of the blocks held in {1..n}; listing
        # states to n + K + 2 shows each such block whole and the infinite
        # block, if any, with a member past n
        model = CountableModel(measure, partition)
        report = monotone_convergence_countable(model, unit_prefix_sequence(), depth)
        top = sum(map(len, partition.head))
        for n in range(1, depth + 1):
            blocks = {}
            for k in range(1, n + top + 3):
                blocks.setdefault(partition.block_key(k), []).append(k)
            inside = [k for b in blocks.values() if b[-1] <= n for k in b]
            want = weight_sum(measure, inside)
            entry = report.integral_trace[n - 1]
            assert entry == want and type(entry) is F
        # the prefix reader on an ascending subset of 1..depth: the full
        # trace's entries there, and its verdict at the deepest of them
        prefixes = sorted(data.draw(st.sets(st.integers(1, depth), min_size=1)))
        full = monotone_convergence_countable(
            model, unit_prefix_sequence(), prefixes[-1]
        )
        part = _prefix_report(model, prefixes)
        assert part.integral_trace == tuple(full.integral_trace[n - 1] for n in prefixes)
        assert all(type(entry) is F for entry in part.integral_trace)
        verdict = ("basis", "converges", "gap_at_depth", "divergence_bound")
        assert [getattr(part, k) for k in verdict] == [getattr(full, k) for k in verdict]

    @pytest.mark.parametrize(
        "weights",
        [[], [F(1, 2)], [F(1, 2), F(1, 3)], [F(2, 3), F(1, 2)], [F(1, 3)] * 4],
        ids=["empty", "half", "short", "over", "four-thirds"],
    )
    def test_total_mass_must_be_one(self, weights):
        with pytest.raises(ValueError, match="total mass must be exactly 1"):
            finite_measure(weights)


class TestHeadMassTraces:
    # the unit-prefix trace over a long finite head: each block's mass goes
    # through _tail_sum's pair tree, against a per-block Fraction reference
    @pytest.mark.parametrize("layout", ["singletons", "mixed"])
    def test_trace_matches_per_block_fractions(self, layout):
        size = 1024
        rng = random.Random(size)
        raw = [F(rng.randint(0, 9), rng.choice([1, 2, 3, 5, 7])) for _ in range(size)]
        raw[-1] += 1
        total = sum(raw, F(0))
        measure = finite_measure([w / total for w in raw])
        states = list(range(1, size + 1))
        if layout == "singletons":
            head = [(k,) for k in states]
        else:
            # blocks of one to four states, scattered over the head
            rng.shuffle(states)
            head, i = [], 0
            while i < size:
                step = rng.randint(1, 4)
                head.append(tuple(sorted(states[i : i + step])))
                i += step
        model = CountableModel(measure, CountablePartition(tuple(head)))
        depth = size + 3
        report = monotone_convergence_countable(model, unit_prefix_sequence(), depth)
        rises = [F(0)] * (depth + 1)
        for block in head:
            rises[max(block)] += sum((measure.weights[k - 1] for k in block), F(0))
        want = list(accumulate(rises))[1:]
        assert report.integral_trace == tuple(want)
        assert all(type(entry) is F for entry in report.integral_trace)
        assert report.integral_trace[-1] == 1 and report.basis == "exact"


    @pytest.mark.parametrize("layout", ["singletons", "mixed"])
    def test_depth_sums_only_the_blocks_it_reaches(self, layout, monkeypatch):
        # entry n needs the blocks ending by n: at depth 12 over a 16,384-
        # state head, at most 12 block masses go through _tail_sum
        size, depth = 16_384, 12
        measure = uniform_finite_measure(size)
        if layout == "singletons":
            head = [(k,) for k in range(1, size + 1)]
        else:
            # pairs {k, k + 3} on 1..16,380, so blocks end past their first
            # member, and singletons past them
            starts = range(0, size - size % 6, 6)
            head = [(k, k + 3) for s in starts for k in range(s + 1, s + 4)]
        sums = []
        tail_sum = countable._tail_sum

        def counted(weights, m):
            sums.append(weights)
            return tail_sum(weights, m)

        monkeypatch.setattr(countable, "_tail_sum", counted)
        model = CountableModel(measure, CountablePartition(tuple(head)))
        report = monotone_convergence_countable(model, unit_prefix_sequence(), depth)
        assert 0 < len(sums) <= depth
        rises = [F(0)] * (size + 1)
        for block in head:
            rises[max(block)] += sum((measure.weights[k - 1] for k in block), F(0))
        want = list(accumulate(rises))[1 : depth + 1]
        assert report.integral_trace == tuple(want) and want[-1] > 0
        assert all(type(entry) is F for entry in report.integral_trace)
        assert report.basis == "finite-atoms" and report.converges


class TestDeepLibraryTraces:
    # every entry of the library trace at depth 20,000, against its closed form
    depth = 20_000

    def test_pairs_trace(self):
        report = monotone_convergence_countable(
            pairs_model(), unit_prefix_sequence(), self.depth
        )
        # entry n: the pairs inside {1..n}, t = n - n % 2 states, 1 - 1/(t + 1)
        want = tuple(1 - F(1, n - n % 2 + 1) for n in range(1, self.depth + 1))
        assert report.integral_trace == want
        assert all(type(entry) is F for entry in report.integral_trace)
        assert report.converges and report.basis == "finite-atoms"

    def test_trivial_trace(self):
        report = monotone_convergence_countable(
            trivial_model(), unit_prefix_sequence(), self.depth
        )
        assert report.integral_trace == (F(0),) * self.depth
        assert all(type(entry) is F for entry in report.integral_trace)
        assert not report.converges and report.basis == "divergence-bound"


# -- directly built layouts, the weighted sum, the draws ---------------------


class TestDyadicLayouts:
    @pytest.mark.parametrize("m", range(13))
    def test_built_stages_match_the_checked_constructor(self, m):
        size = 1 << m
        stages = dyadic_partitions(m)
        assert len(stages) == m + 1
        for j, stage in enumerate(stages):
            width = size >> j
            blocks = [list(range(s, s + width)) for s in range(1, size + 1, width)]
            checked = CountablePartition(tuple(blocks))
            assert type(stage) is CountablePartition
            assert stage.head == checked.head and stage.width == checked.width == 1
            assert all(type(b) is tuple for b in stage.head)
            assert stage._block_of == checked._block_of
            assert stage == checked and hash(stage) == hash(checked)
            states = range(1, size + 5)  # past the window too
            assert list(map(stage.block_key, states)) == list(
                map(checked.block_key, states)
            )
        countable._check_refining(stages)


def ref_infimum(f, partition, k):
    """``f``'s infimum over the block of state ``k``, from the layout."""
    top = sum(map(len, partition.head))
    if k <= top:
        (block,) = [b for b in partition.head if k in b]
    elif partition.width is None:
        block = range(top + 1, max(f.horizon, top) + 2)
    else:
        first = k - (k - top - 1) % partition.width
        block = range(first, first + partition.width)
    return min(map(f, block))


# a denominator past SCALE_BITS on its own: values over it stay Fractions
WIDE = (2**61 - 1) * (2**31 - 1)


@st.composite
def weighted_sum_cases(draw):
    """A finite measure, a function whose horizon is shorter than, equal to
    or longer than its support, with a nonzero tail constant over a wide
    denominator or a small one, and a head, pair, infinite or singleton
    layout."""
    measure = draw(int_tail_measures().filter(lambda m: m.family == "finite"))
    support = len(measure.weights)
    horizon = draw(
        st.sampled_from(
            [max(support - draw(st.integers(1, 4)), 0), support, support + 3]
        )
    )
    wide = draw(st.booleans())
    value = st.builds(F, st.integers(0, 4), st.sampled_from([1, 2, 3, 8]))
    values = draw(st.lists(value, min_size=horizon, max_size=horizon))
    tail = F(draw(st.integers(1, 4)), WIDE if wide else draw(st.sampled_from([1, 3])))
    f = EventuallyConstantFunction(horizon, tuple(values), tail)
    layout = draw(
        st.one_of(
            countable_partitions(),
            st.permutations(range(1, 9)).map(
                lambda ks: CountablePartition(tuple((k,) for k in ks))
            ),
        )
    )
    return measure, f, layout, wide


class TestWeightedSum:
    @settings(max_examples=300, deadline=None)
    @given(weighted_sum_cases())
    def test_matches_a_per_state_reference(self, case):
        measure, f, partition, wide = case
        support = range(1, len(measure.weights) + 1)
        want_lebesgue = sum((f(k) * measure.weight(k) for k in support), F(0))
        want_psa = sum(
            (ref_infimum(f, partition, k) * measure.weight(k) for k in support), F(0)
        )
        model = CountableModel(measure, partition)
        with mock.patch.object(countable, "_tail_sum", wraps=_tail_sum) as tail_sum:
            lebesgue = countable_lebesgue(f, measure)
            psa = countable_psa_integral(f, model)
        assert lebesgue == want_lebesgue and type(lebesgue) is F
        assert psa == want_psa and type(psa) is F
        # int values take the weighted sum; values past SCALE_BITS the tails
        assert type(f._scaled[0][-1]) is (F if wide else int)
        assert tail_sum.call_count == (2 if wide else 0)


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("horizon", [0, 1, 1024])
    def test_draws_match_the_fraction_reference(self, seed, horizon):
        rng, ref = random.Random(seed), random.Random(seed)
        f = random_eventually_constant_function(rng, horizon)
        values = tuple(F(ref.randint(0, 24), 8) for _ in range(horizon))
        tail = F(ref.randint(0, 24), 8)
        assert f.values == values and f.tail == tail
        assert all(type(x) is F for x in (*f.values, f.tail))
        assert rng.getstate() == ref.getstate()
