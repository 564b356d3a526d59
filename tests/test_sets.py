"""State spaces, subset masks, partitions, and generated algebras."""

import random
import re
import time
from fractions import Fraction as F

import pytest
from helpers import all_set_partitions, subset_sums_by_low_bit
from hypothesis import given, settings
from hypothesis import strategies as st
from nonadd import (
    Capacity,
    CapacityError,
    CountablePartition,
    Decomposition,
    EventuallyConstantFunction,
    FunctionDecomposition,
    FunctionSequence,
    Partition,
    ProbabilityMeasure,
    SimpleFunction,
    SpaceMismatchError,
    StateSpace,
    SubsetMask,
    argmax_witness,
    brute_force_cav_oracle,
    chain_restricted_value,
    check_dense,
    check_P_null_additive,
    choquet_integral,
    concave_integral,
    continuity_from_below_countable,
    converges_P_ae,
    converges_strong_ae,
    converges_weak_ae,
    convexity_gap_witness,
    counterexample_null_additivity,
    dyadic_partitions,
    finite_measure,
    generate_sequences,
    generated_algebra,
    induce,
    induced_psp_capacity,
    monotone_convergence_countable,
    psa_integral,
    psp_integral,
    random_capacity,
    random_partition,
    telescoping_measure,
    trivial_model,
    uniform_finite_measure,
    unit_prefix_sequence,
    verify_dual_certificate,
)
from nonadd.capacity import (
    replay_convexity_violation,
    replay_null_additivity_violation,
)
from nonadd.sets import (
    _clip,
    check_size,
    check_states,
    mask_of,
    max_member_table,
    states_of,
    submasks,
    subset_sums,
)


def test_singleton_partition_generates_full_powerset():
    space = StateSpace(4)
    alg = generated_algebra(Partition.singletons(space))
    assert len(alg) == 16
    assert [m.bits for m in alg.members] == list(range(16))


def test_trivial_partition_generates_two_member_field():
    space = StateSpace(5)
    alg = generated_algebra(Partition.trivial(space))
    assert [m.bits for m in alg.members] == [0, space.full_bits]


def test_two_block_algebra_on_four_states():
    space = StateSpace(4)
    alg = generated_algebra(Partition.from_blocks(space, [[0, 1], [2, 3]]))
    assert [m.bits for m in alg.members] == [0, 0b0011, 0b1100, 0b1111]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_algebra_size_and_closure_for_every_partition(n):
    space = StateSpace(n)
    for groups in all_set_partitions(range(n)):
        partition = Partition.from_blocks(space, groups)
        alg = generated_algebra(partition)
        assert len(alg) == 1 << len(groups)
        bits = {m.bits for m in alg.members}
        assert 0 in bits and space.full_bits in bits
        for a in bits:
            assert space.full_bits & ~a in bits
            for b in bits:
                assert a | b in bits


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_states_of_and_mask_of_are_inverse(data):
    # states_of reads a mask's states ascending, and mask_of builds the
    # mask back from one flag per state
    n = data.draw(st.integers(0, 20), label="n")
    m = data.draw(st.integers(0, (1 << n) - 1), label="mask")
    states = list(states_of(m))
    assert states == [k for k in range(n) if m >> k & 1]
    members = set(states)
    assert mask_of(k in members for k in range(n)) == m


def test_submasks_hand_cases():
    assert submasks(0) == []
    assert submasks(0b1) == [0b1]
    assert submasks(0b1010) == [0b0010, 0b1000, 0b1010]


def test_submasks_are_every_nonempty_subset_ascending():
    for bits in range(1 << 7):
        assert submasks(bits) == [t for t in range(1, bits + 1) if t & ~bits == 0]


@pytest.mark.parametrize("n", range(13))
def test_subset_sums_match_the_low_bit_recurrence(n):
    # the doubling table against the low-bit recurrence, entry by entry and
    # type by type, over int weights and over Fraction weights
    rng = random.Random(n)
    for weights in (
        [rng.randint(-5, 9) for _ in range(n)],
        [F(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(n)],
    ):
        got, want = subset_sums(weights), subset_sums_by_low_bit(weights)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))


def test_subset_sums_of_no_weights_is_one_zero():
    assert subset_sums(()) == [0] and subset_sums([]) == [0]


def test_a_mass_table_holds_only_fractions():
    # the empty set's mass is a Fraction zero, not the int 0: an int there
    # would send induce's table down exact_values' per-entry path
    P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
    assert type(P.mass_table[0]) is F
    assert set(map(type, P.mass_table)) == {F}


def test_max_member_table_hand_cases():
    space = StateSpace(4)
    table = max_member_table(Partition.from_blocks(space, [[0, 1], [2], [3]]))
    assert table[0b0111] == 0b0111  # {0,1} | {2}
    assert table[0b0001] == 0  # half a block
    assert table[0b1010] == 0b1000


@pytest.mark.parametrize("n", range(1, 11))
def test_max_member_table_is_the_largest_member_inside(n):
    # every set partition up to n = 6, checked against the generated
    # algebra too; seeded random partitions for n = 7..10, and the pair
    # blocks {k, k + 4} at n = 8
    space = StateSpace(n)
    if n <= 6:
        partitions = [Partition.from_blocks(space, g) for g in all_set_partitions(range(n))]
    else:
        rng = random.Random(n)
        partitions = [random_partition(space, rng) for _ in range(6)]
        if n == 8:
            partitions.append(Partition.from_blocks(space, [[k, k + 4] for k in range(4)]))
    for partition in partitions:
        blocks = [b.bits for b in partition.blocks]
        table = max_member_table(partition)
        assert len(table) == space.num_subsets
        for f in range(space.num_subsets):
            # the union of the blocks inside f, nested along each f - {k} ⊂ f
            assert table[f] == sum(b for b in blocks if b & ~f == 0)
            assert all(table[f & ~(1 << k)] & ~table[f] == 0 for k in states_of(f))
        if n <= 6:
            members = [m.bits for m in generated_algebra(partition).members]
            for f in range(space.num_subsets):
                inside = [m for m in members if m & ~f == 0]
                largest = max(inside, key=int.bit_count)
                assert all(m & ~largest == 0 for m in inside)
                assert table[f] == largest


# Every site whose operands must share one state space, fed operands over
# StateSpace(2) and StateSpace(3); each refuses through sets.same_space.
S2, S3 = StateSpace(2), StateSpace(3)
P2, P3 = ProbabilityMeasure.uniform(S2), ProbabilityMeasure.uniform(S3)
F2, F3 = SimpleFunction.constant(S2, 1), SimpleFunction.constant(S3, 1)
V2, V3 = Capacity(S2, P2.mass_table), Capacity(S3, P3.mass_table)
B2, B3 = Partition.trivial(S2), Partition.trivial(S3)
SEQ2 = FunctionSequence((F2,), F2)
MISMATCHES = {
    "Partition": lambda: Partition((S2.subset([0]), S3.subset([1, 2]))),
    "SimpleFunction.__add__": lambda: F2 + F3,
    "SimpleFunction.__le__": lambda: F2 <= F3,
    "SimpleFunction.expectation": lambda: F2.expectation(P3),
    "FunctionSequence": lambda: FunctionSequence((F3,), F2),
    "converges_weak_ae": lambda: converges_weak_ae(SEQ2, V3),
    "converges_strong_ae": lambda: converges_strong_ae(SEQ2, V3),
    "converges_P_ae": lambda: converges_P_ae(SEQ2, P3),
    "check_P_null_additive": lambda: check_P_null_additive(V2, P3),
    "check_dense": lambda: check_dense(B2, P3),
    "induce": lambda: induce(P2, B3),
    "choquet_integral": lambda: choquet_integral(F2, V3),
    "concave_integral": lambda: concave_integral(F2, V3),
    "chain_restricted_value": lambda: chain_restricted_value(F2, V3, [1]),
    "brute_force_cav_oracle": lambda: brute_force_cav_oracle(F2, V3),
    # a known-function witness against a target over another space
    "FunctionDecomposition.fits_under-2-state-target": lambda: (
        FunctionDecomposition(((1, F2),)).fits_under(F3)
    ),
    "FunctionDecomposition.fits_under-3-state-target": lambda: (
        FunctionDecomposition(((1, F3),)).fits_under(F2)
    ),
    "FunctionDecomposition.weight_against": lambda: (
        FunctionDecomposition(((1, F2),)).weight_against(P3)
    ),
    "psa_integral-measure": lambda: psa_integral(F2, P3, B2),
    "psa_integral-partition": lambda: psa_integral(F2, P2, B3),
    "psp_integral-measure": lambda: psp_integral(F2, P3, [F2]),
    "psp_integral-member": lambda: psp_integral(F2, P2, [F2, F3]),
    "induced_psp_capacity-measure": lambda: induced_psp_capacity(P3, [F2]),
    "induced_psp_capacity-member": lambda: induced_psp_capacity(P2, [F2, F3]),
    "verify_dual_certificate": lambda: verify_dual_certificate(
        concave_integral(F2, V2), F2, V3
    ),
}


@pytest.mark.parametrize("site", MISMATCHES)
def test_every_site_refuses_a_space_mismatch(site):
    with pytest.raises(SpaceMismatchError, match="^operands live on different"):
        MISMATCHES[site]()


# a state is an int, not a bool: each site that reads states refuses
# anything else instead of truncating it to another state
NON_STATES = {
    "StateSpace.subset": lambda: StateSpace(3).subset([True]),
    "Partition.from_blocks": lambda: Partition.from_blocks(
        StateSpace(2), [[0.5], [1]]
    ),
    "CountablePartition-head": lambda: CountablePartition(head=((1.5,),)),
    "CountablePartition-width-float": lambda: CountablePartition(width=2.0),
    "CountablePartition-width-bool": lambda: CountablePartition(width=True),
    # these two rows keep the ids of the former event type and its finite
    # constructor, which EventuallyConstantFunction.indicator replaced
    "EventuallyConstantSet": lambda: (
        EventuallyConstantFunction.indicator(3, (2.0,), False)
    ),
    "EventuallyConstantSet.finite": lambda: (
        EventuallyConstantFunction.indicator(3, [2.7])
    ),
    "EventuallyConstantFunction.indicator-bool": lambda: (
        EventuallyConstantFunction.indicator(3, [True])
    ),
}


@pytest.mark.parametrize("site", NON_STATES)
def test_every_site_refuses_a_state_that_is_not_an_int(site):
    with pytest.raises(ValueError, match="^(a state is an int|tail width)"):
        NON_STATES[site]()


# a size, a horizon or a mask is an int too, by the same rule
NON_SIZES = {
    "StateSpace-float": lambda: StateSpace(2.0),
    "StateSpace-bool": lambda: StateSpace(True),
    "StateSpace.subset-bool": lambda: StateSpace(3).subset(True),
    "SubsetMask-float": lambda: SubsetMask(2.0, StateSpace(3)),
    "EventuallyConstantFunction-float": lambda: EventuallyConstantFunction(
        2.0, (1, 1), 0
    ),
    "EventuallyConstantFunction-bool": lambda: EventuallyConstantFunction(
        True, (1,), 0
    ),
    "EventuallyConstantFunction.indicator": lambda: (
        EventuallyConstantFunction.indicator(2.0)
    ),
    "EventuallyConstantFunction.unit_prefix": lambda: (
        EventuallyConstantFunction.unit_prefix(2.0)
    ),
    "continuity_from_below_countable-float": lambda: (
        continuity_from_below_countable(trivial_model(), depth=2.0)
    ),
    "continuity_from_below_countable-bool": lambda: (
        continuity_from_below_countable(trivial_model(), depth=True)
    ),
    "monotone_convergence_countable-float": lambda: monotone_convergence_countable(
        trivial_model(), unit_prefix_sequence(), 2.0
    ),
    "monotone_convergence_countable-bool": lambda: monotone_convergence_countable(
        trivial_model(), unit_prefix_sequence(), True
    ),
    "uniform_finite_measure-float": lambda: uniform_finite_measure(2.0),
    "uniform_finite_measure-bool": lambda: uniform_finite_measure(True),
    "dyadic_partitions-float": lambda: dyadic_partitions(2.0),
    "dyadic_partitions-bool": lambda: dyadic_partitions(True),
}


@pytest.mark.parametrize("site", NON_SIZES)
def test_every_site_refuses_a_size_that_is_not_an_int(site):
    message = "^(n|mask|horizon|depth|size|m) must be an int, got "
    with pytest.raises(ValueError, match=message):
        NON_SIZES[site]()


# an index read by the library is in its range by sets.check_size's rule,
# or a state block's by check_states': each row is a read that returned
# some other entry, or raised an IndexError, before the rule reached it
_F3 = SimpleFunction.constant(StateSpace(3), 1)
OUT_OF_BOUNDS = {
    "SimpleFunction-negative": (
        lambda: SimpleFunction(StateSpace(2), (1, 2))(-1),
        "state must be in 0..1, got -1",
    ),
    "SimpleFunction-bool": (
        lambda: SimpleFunction(StateSpace(2), (1, 2))(True),
        "state must be an int, got True",
    ),
    "StateSpace.label": (
        lambda: StateSpace(2, labels=("a", "b")).label(-1),
        "state must be in 0..1, got -1",
    ),
    "ProbabilityMeasure.mass-negative": (
        lambda: ProbabilityMeasure.uniform(StateSpace(2)).mass(-1),
        "mask must be in 0..3, got -1",
    ),
    "ProbabilityMeasure.mass-past": (
        lambda: ProbabilityMeasure.uniform(StateSpace(2)).mass(4),
        "mask must be in 0..3, got 4",
    ),
    "CountableMeasure.tail-float": (
        lambda: finite_measure(["1/2", "1/2"]).tail(2.5),
        "tail index must be an int, got 2.5",
    ),
    "CountableMeasure.tail-bool": (
        lambda: telescoping_measure().tail(True),
        "tail index must be an int, got True",
    ),
    "CountableMeasure.weight-bool": (
        lambda: telescoping_measure().weight(True),
        "state must be an int, got True",
    ),
    "CountablePartition.block_key": (
        lambda: CountablePartition(width=2).block_key(2.5),
        "state must be an int, got 2.5",
    ),
    "EventuallyConstantFunction-call": (
        lambda: EventuallyConstantFunction(2, (1, 2), 3)(7.5),
        "state must be an int, got 7.5",
    ),
    "EventuallyConstantFunction.unit_prefix": (
        lambda: EventuallyConstantFunction.unit_prefix(-1),
        "n must be at least 0, got -1",
    ),
    "EventuallyConstantFunction.indicator": (
        lambda: EventuallyConstantFunction.indicator(-2),
        "horizon must be at least 0, got -2",
    ),
    "Decomposition-negative": (
        lambda: Decomposition(((1, -1),)),
        "mask must be at least 0, got -1",
    ),
    "Decomposition.fits_under": (
        lambda: Decomposition(((1, 9),)).fits_under(_F3),
        "mask must be in 0..7, got 9",
    ),
    "Decomposition.weight_against": (
        lambda: Decomposition(((1, 9),)).weight_against(random_capacity(3, 1)),
        "mask must be in 0..7, got 9",
    ),
    "generate_sequences-negative": (
        lambda: generate_sequences(random_capacity(2, 0), count=-1),
        "count must be at least 0, got -1",
    ),
    "generate_sequences-float": (
        lambda: generate_sequences(random_capacity(2, 0), count=2.5),
        "count must be an int, got 2.5",
    ),
    "generate_sequences-bool": (
        lambda: generate_sequences(random_capacity(2, 0), count=True),
        "count must be an int, got True",
    ),
}


@pytest.mark.parametrize("site", OUT_OF_BOUNDS)
def test_every_index_is_read_in_its_bounds(site):
    read, message = OUT_OF_BOUNDS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read()


# an outsized int in a refusal is named by its size through sets._clip:
# the message stays short, and an int past Python's 4,300-digit text cap
# gets the library's message, not the cap's
OUTSIZED = {
    "check_size-4300-digits": lambda: check_size(int("1" * 4300), "n", 1, 20),
    "check_size-past-the-cap": lambda: check_size(10**5000, "n", 1, 20),
    "check_size-at-least": lambda: check_size(-(10**5000), "mask", 0),
    "check_size-not-an-int": lambda: check_size("1" * 5000, "n"),
    "StateSpace": lambda: StateSpace(10**5000),
    "check_states": lambda: check_states([0, 10**5000], 0, 3),
    "check_states-not-an-int": lambda: check_states(["1" * 5000]),
    "SimpleFunction-call": lambda: SimpleFunction.constant(StateSpace(2), 1)(10**5000),
}


@pytest.mark.parametrize("site", OUTSIZED)
def test_an_outsized_int_gets_a_short_message(site):
    with pytest.raises(ValueError, match="^(n|mask|state|a state) ") as caught:
        OUTSIZED[site]()
    assert len(str(caught.value)) < 200


def test_clip_names_an_int_past_the_digit_cap_by_its_bits():
    assert _clip(10**5000) == "an int of 16610 bits"
    assert _clip(-(10**5000)) == "a negative int of 16610 bits"
    assert _clip(10**50) == repr(10**50)
    assert _clip("x" * 100) == repr("x" * 60)[:60] + "... (102 chars)"


# a value is exact and nonnegative: each constructor that reads values
# does so through sets.check_values; each row puts ``x`` at one such site
NON_VALUES = {
    "SimpleFunction": lambda x: SimpleFunction(StateSpace(2), (1, x)),
    "SimpleFunction.constant": lambda x: SimpleFunction.constant(StateSpace(2), x),
    "SimpleFunction.scale": lambda x: (
        SimpleFunction.constant(StateSpace(2), 1).scale(x)
    ),
    "Decomposition": lambda x: Decomposition(((1, 1), (x, 2))),
    "FunctionDecomposition": lambda x: FunctionDecomposition(
        ((x, SimpleFunction.constant(StateSpace(1), 1)),)
    ),
    "ProbabilityMeasure": lambda x: ProbabilityMeasure(StateSpace(2), (1, x)),
    "Capacity": lambda x: Capacity(StateSpace(1), (0, x)),
    "CountableMeasure": lambda x: finite_measure([1, x]),
    "EventuallyConstantFunction-values": lambda x: (
        EventuallyConstantFunction(2, (1, x), 0)
    ),
    "EventuallyConstantFunction-tail": lambda x: (
        EventuallyConstantFunction(1, (1,), x)
    ),
    "EventuallyConstantFunction.constant": lambda x: (
        EventuallyConstantFunction.constant(x)
    ),
}


def test_an_outsized_value_gets_a_short_message():
    # the refused value is named through sets._clip, not by its full repr
    with pytest.raises(TypeError, match="^exact rational required for ") as caught:
        SimpleFunction(StateSpace(1), ([0] * 100_000,))
    assert len(str(caught.value)) < 200


@pytest.mark.parametrize("inexact", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("site", NON_VALUES)
def test_every_site_refuses_a_value_that_is_not_exact(site, inexact):
    with pytest.raises(TypeError, match="^exact rational required for "):
        NON_VALUES[site](inexact)


@pytest.mark.parametrize("site", NON_VALUES)
def test_every_site_refuses_a_negative_value(site):
    # a capacity names the first axiom its table breaks, in the order
    # tests/test_capacity.py::ref_validate pins
    if site == "Capacity":
        with pytest.raises(CapacityError, match="^negative value at mask 1$"):
            NON_VALUES[site](F(-1, 2))
        return
    with pytest.raises(ValueError, match="must be nonnegative$"):
        NON_VALUES[site](F(-1, 2))


# a string value is read by the file formats' one text rule,
# sets.frac_from_str: ASCII "p/q", "p" or "p.d", at most MAX_DIGITS digits
# an integer.  Each spelling below is one Fraction() took; the exponent
# took about 14 s and built a 33-Mbit integer.  Refused, each takes well
# under a millisecond; the bound leaves room for a loaded host.
NON_RATIONALS = {
    "exponent": "1e10000000",
    "plus": "+2",
    "spaces": " 3 ",
    "underscore": "1_000",
    "no-whole-part": ".5",
    "no-fraction-digits": "5.",
    "arabic-indic-digit": "\u0661",
    "4301-digits": "1" * 4301,
}


@pytest.mark.parametrize("text", NON_RATIONALS)
@pytest.mark.parametrize("site", NON_VALUES)
def test_every_site_reads_a_string_by_the_file_rule(site, text):
    started = time.perf_counter()
    with pytest.raises(
        ValueError, match="^(not a rational|rational .* more than 4300 digits$)"
    ):
        NON_VALUES[site](NON_RATIONALS[text])
    assert time.perf_counter() - started < 0.1


def test_a_capacity_names_a_bad_string_before_any_axiom():
    # the sign is read from the scaled table, so a value the text rule
    # refuses is named as such, not lost in a search for a negative one
    with pytest.raises(ValueError, match="^not a rational: '1e3'$"):
        Capacity(StateSpace(1), ("0", "1e3"))
    assert Capacity(StateSpace(1), ("0", "1/2")).values == (0, F(1, 2))


# one value per state, one weight per state, one value per state up to the
# horizon
SHORT_VALUES = {
    "SimpleFunction": lambda: SimpleFunction(StateSpace(3), (1, 1)),
    "ProbabilityMeasure": lambda: ProbabilityMeasure(StateSpace(3), ("1/2", "1/2")),
    "EventuallyConstantFunction": lambda: EventuallyConstantFunction(3, (1, 1), 0),
}


@pytest.mark.parametrize("site", SHORT_VALUES)
def test_every_site_refuses_a_wrong_count_of_values(site):
    with pytest.raises(ValueError, match="^need 3 (values|weights), got 2$"):
        SHORT_VALUES[site]()


def _two_state(*values):
    return Capacity(StateSpace(2), tuple(map(F, values)))


def _full_information(n):
    space = StateSpace(n)
    return induce(ProbabilityMeasure.uniform(space), Partition.singletons(space))


# a mask a caller hands in indexes a 2**n table: each site range-checks it
# through sets.check_mask rather than let -1 read the full set's entry
OUT_OF_SPACE = {
    "SimpleFunction.indicator-8": lambda: SimpleFunction.indicator(StateSpace(3), 8),
    "SimpleFunction.indicator-minus-1": lambda: (
        SimpleFunction.indicator(StateSpace(3), -1)
    ),
    "argmax_witness-minus-1": lambda: argmax_witness(_full_information(3), -1),
    "argmax_witness-8": lambda: argmax_witness(_full_information(3), 8),
    # v({0}) = 0 and v({0, 1}) > v({1}): E = 1, F = 2 is a valid pair
    "counterexample_null_additivity-E": lambda: (
        counterexample_null_additivity(_two_state(0, 0, "1/2", 1), -4, 2)
    ),
    "counterexample_null_additivity-F": lambda: (
        counterexample_null_additivity(_two_state(0, 0, "1/2", 1), 1, 4)
    ),
    # v({0}) + v({1}) > v({0, 1}) + v({}): E = 1, F = 2 is a valid pair
    "convexity_gap_witness-E": lambda: (
        convexity_gap_witness(_two_state(0, "1/2", "1/2", "1/2"), 4, 2)
    ),
    "convexity_gap_witness-F": lambda: (
        convexity_gap_witness(_two_state(0, "1/2", "1/2", "1/2"), 1, -1)
    ),
    # mask -1 read v(full) and returned False; mask 8 raised IndexError
    "replay_convexity_violation-minus-1": lambda: (
        replay_convexity_violation(random_capacity(3, 1), -1, 1)
    ),
    "replay_convexity_violation-8": lambda: (
        replay_convexity_violation(random_capacity(3, 1), 8, 1)
    ),
    "replay_null_additivity_violation-F": lambda: (
        replay_null_additivity_violation(random_capacity(3, 1), 0, 8)
    ),
    "chain_restricted_value-8": lambda: chain_restricted_value(
        SimpleFunction.constant(StateSpace(3), 1), random_capacity(3, 1), [8]
    ),
}


@pytest.mark.parametrize("site", OUT_OF_SPACE)
def test_every_site_refuses_a_mask_outside_the_space(site):
    message = r"^mask must be in 0\.\.\d+, got -?\d+$"
    with pytest.raises(ValueError, match=message):
        OUT_OF_SPACE[site]()


def test_valid_pairs_behind_the_mask_rows_are_accepted():
    seq = counterexample_null_additivity(_two_state(0, 0, "1/2", 1), 1, 2)
    assert seq.limit.values == (1, 1)
    g, gap = convexity_gap_witness(_two_state(0, "1/2", "1/2", "1/2"), 1, 2)
    assert g.values == (1, 1) and gap > 0


# a whole the library refuses, not one value or mask of it: each row is a
# raise no other test reaches
MISSHAPEN = {
    "FunctionSequence-no-terms": (
        lambda: FunctionSequence((), F2),
        "need at least one term",
    ),
    "Decomposition-zero-weight": (
        lambda: Decomposition(((0, 1),)),
        "weights must be strictly positive",
    ),
    "chain_restricted_value-not-nested": (
        lambda: chain_restricted_value(F2, V2, [1, 2]),
        "events must be nested decreasingly",
    ),
}


@pytest.mark.parametrize("site", MISSHAPEN)
def test_every_misshapen_whole_is_refused(site):
    build, message = MISSHAPEN[site]
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_indicator_refuses_a_bool_mask():
    with pytest.raises(ValueError, match="^mask must be an int, got True$"):
        SimpleFunction.indicator(StateSpace(3), True)


@pytest.mark.parametrize("mask", [2.5, True], ids=["float", "bool"])
def test_decomposition_refuses_a_mask_that_is_not_an_int(mask):
    # int() would read 2.5 as {1} and True as {0}
    with pytest.raises(ValueError, match="^mask must be an int, got "):
        Decomposition(((1, mask),))


def test_subset_from_iterable_and_bounds():
    space = StateSpace(3)
    assert space.subset([0, 2]).bits == 5
    with pytest.raises(ValueError):
        space.subset([3])
    with pytest.raises(ValueError):
        SubsetMask(8, space)


def test_partition_validation():
    space = StateSpace(4)
    with pytest.raises(ValueError):
        Partition.from_blocks(space, [[0, 1], [1, 2], [3]])  # overlap
    with pytest.raises(ValueError):
        Partition.from_blocks(space, [[0, 1], [2]])  # not covering
    with pytest.raises(ValueError):
        Partition.from_blocks(space, [[0, 1, 2, 3], []])  # empty block
    with pytest.raises(ValueError):
        Partition(())


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace(0)
    # the cap of 20 states is a constant: no field overrides it
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.20, got 21$"):
        StateSpace(21)
    with pytest.raises(TypeError):
        StateSpace(21, max_states=22)
    with pytest.raises(ValueError):
        StateSpace(2, labels=("a",))
    assert StateSpace(2, labels=("a", "b")).label(1) == "b"
