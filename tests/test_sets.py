"""State spaces, subset masks, partitions, and generated algebras."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_set_partitions
from nonadd import (
    Partition,
    SpaceMismatchError,
    StateSpace,
    SubsetMask,
    generated_algebra,
)
from nonadd.sets import max_member_table, submasks


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


def test_submasks_hand_cases():
    assert submasks(0) == []
    assert submasks(0b1) == [0b1]
    assert submasks(0b1010) == [0b0010, 0b1000, 0b1010]


def test_submasks_are_every_nonempty_subset_ascending():
    for bits in range(1 << 7):
        assert submasks(bits) == [t for t in range(1, bits + 1) if t & ~bits == 0]


def test_max_member_table_hand_cases():
    space = StateSpace(4)
    table = max_member_table(Partition.from_blocks(space, [[0, 1], [2], [3]]))
    assert table[0b0111] == 0b0111  # {0,1} | {2}
    assert table[0b0001] == 0  # half a block
    assert table[0b1010] == 0b1000


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_max_member_table_is_the_largest_member_inside(n):
    space = StateSpace(n)
    for groups in all_set_partitions(range(n)):
        partition = Partition.from_blocks(space, groups)
        members = [m.bits for m in generated_algebra(partition).members]
        table = max_member_table(partition)
        assert len(table) == space.num_subsets
        for f in range(space.num_subsets):
            inside = [m for m in members if m & ~f == 0]
            largest = max(inside, key=int.bit_count)
            assert all(m & ~largest == 0 for m in inside)
            assert table[f] == largest


@settings(max_examples=200)
@given(a=st.integers(0, 63), b=st.integers(0, 63))
def test_set_operations(a, b):
    space = StateSpace(6)
    sa, sb = space.subset(a), space.subset(b)
    assert (sa | sb).bits == a | b
    assert (sa & sb).bits == a & b
    assert (sa - sb).bits == a & ~b
    assert (~~sa).bits == a
    assert (space.empty() | sa) == sa
    assert (sa <= sb) == (a & ~b == 0)
    assert len(sa) == bin(a).count("1")
    assert set(sa) == {k for k in range(6) if a >> k & 1}


def test_inclusion_example():
    space = StateSpace(3)
    assert space.subset([0]) <= space.subset([0, 1])
    assert not space.subset([0, 2]) <= space.subset([0, 1])


def test_space_mismatch_raises():
    a = StateSpace(3).subset([0])
    b = StateSpace(4).subset([0])
    with pytest.raises(SpaceMismatchError):
        a | b
    with pytest.raises(SpaceMismatchError):
        a <= b


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
    with pytest.raises(ValueError, match="limit of 20 states"):
        StateSpace(21)
    with pytest.raises(TypeError):
        StateSpace(21, max_states=22)
    with pytest.raises(ValueError):
        StateSpace(2, labels=("a",))
    assert StateSpace(2, labels=("a", "b")).label(1) == "b"
