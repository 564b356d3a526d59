"""Finite state spaces, bitmask subsets, partitions, and generated algebras.

States are numbered ``0 .. n-1``.  A subset is stored as an unsigned
integer whose k-th bit marks membership of state ``k``, so the powerset of
an n-state space is exactly the integer range ``[0, 2**n)``.  Every table
in this package (capacity values, witness maps, covers) is indexed by that
integer, and the canonical file encoding of a subset is the decimal string
of its mask.

Everything here is immutable and pure; shared reads from concurrent
workers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

DEFAULT_MAX_STATES = 20

MaskLike = Union["SubsetMask", int]


class SpaceMismatchError(ValueError):
    """Two operands were built over different state spaces."""


@dataclass(frozen=True)
class StateSpace:
    """Finite measurable space: the states ``0..n-1`` with the full powerset."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one state, got n={self.n}")
        if self.n > DEFAULT_MAX_STATES:
            # Tables downstream carry 2**n entries; the cap is a guard rail
            # against accidental blow-ups, not an algorithmic limit.
            raise ValueError(
                f"n={self.n} exceeds the limit of {DEFAULT_MAX_STATES} states"
            )
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.n:
                raise ValueError("labels must name each state exactly once")
            object.__setattr__(self, "labels", labels)

    @property
    def full_bits(self) -> int:
        return (1 << self.n) - 1

    @property
    def num_subsets(self) -> int:
        return 1 << self.n

    def states(self) -> range:
        return range(self.n)

    def label(self, state: int) -> str:
        return self.labels[state] if self.labels else str(state)

    def subset(self, source: MaskLike | Iterable[int]) -> SubsetMask:
        """Build a subset from a mask integer or an iterable of states."""
        if isinstance(source, SubsetMask):
            if source.space != self:
                raise SpaceMismatchError("subset belongs to a different space")
            return source
        if isinstance(source, int):
            return SubsetMask(source, self)
        bits = 0
        for k in source:
            if not 0 <= int(k) < self.n:
                raise ValueError(f"state {k} outside 0..{self.n - 1}")
            bits |= 1 << int(k)
        return SubsetMask(bits, self)

    def empty(self) -> SubsetMask:
        return SubsetMask(0, self)

    def full(self) -> SubsetMask:
        return SubsetMask(self.full_bits, self)

    def singleton(self, state: int) -> SubsetMask:
        return self.subset([state])


def mask_bits(event: MaskLike) -> int:
    """Raw mask integer of an event, whichever representation was passed."""
    return event.bits if isinstance(event, SubsetMask) else int(event)


def subset_sums(weights: Sequence) -> list:
    """The sum of ``weights`` over every subset, indexed by mask."""
    table = [weights[0] * 0] * (1 << len(weights))  # a zero of their type
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    return table


def submasks(bits: int) -> list[int]:
    """The nonempty submasks of ``bits``, ascending."""
    out, t = [], bits & -bits
    while t:
        out.append(t)
        t = (t - bits) & bits
    return out


@dataclass(frozen=True)
class SubsetMask:
    """An event: an immutable subset of a :class:`StateSpace`.

    Supports the usual set algebra through operators: ``|`` union, ``&``
    intersection, ``-`` difference, ``~`` complement within the space, and
    ``<=`` inclusion.  Mixing events from different spaces raises
    :class:`SpaceMismatchError`.
    """

    bits: int
    space: StateSpace

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.space.full_bits:
            raise ValueError(
                f"mask {self.bits} out of range for a {self.space.n}-state space"
            )

    def _require_same_space(self, other: SubsetMask) -> None:
        if not isinstance(other, SubsetMask):
            raise TypeError(f"expected SubsetMask, got {type(other).__name__}")
        if self.space != other.space:
            raise SpaceMismatchError("operands live on different state spaces")

    def union(self, other: SubsetMask) -> SubsetMask:
        self._require_same_space(other)
        return SubsetMask(self.bits | other.bits, self.space)

    def intersection(self, other: SubsetMask) -> SubsetMask:
        self._require_same_space(other)
        return SubsetMask(self.bits & other.bits, self.space)

    def difference(self, other: SubsetMask) -> SubsetMask:
        self._require_same_space(other)
        return SubsetMask(self.bits & ~other.bits, self.space)

    def complement(self) -> SubsetMask:
        return SubsetMask(self.space.full_bits & ~self.bits, self.space)

    def is_subset_of(self, other: SubsetMask) -> bool:
        self._require_same_space(other)
        return self.bits & ~other.bits == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __invert__(self) -> SubsetMask:
        return self.complement()

    def __le__(self, other: SubsetMask) -> bool:
        return self.is_subset_of(other)

    def __lt__(self, other: SubsetMask) -> bool:
        return self.bits != other.bits and self.is_subset_of(other)

    def __contains__(self, state: int) -> bool:
        return bool(self.bits >> state & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        inner = ", ".join(self.space.label(k) for k in self)
        return "{" + inner + "}"


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering the state space.

    The blocks play the role of the atoms of the algebra they generate;
    on a finite space every sub-algebra arises this way.
    """

    blocks: tuple[SubsetMask, ...]

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        space = blocks[0].space
        seen = 0
        for b in blocks:
            if b.space != space:
                raise SpaceMismatchError("blocks live on different spaces")
            if b.bits == 0:
                raise ValueError("partition blocks must be nonempty")
            if seen & b.bits:
                raise ValueError(f"block {b!r} overlaps an earlier block")
            seen |= b.bits
        if seen != space.full_bits:
            raise ValueError("blocks do not cover the whole space")

    @property
    def space(self) -> StateSpace:
        return self.blocks[0].space

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def singletons(cls, space: StateSpace) -> Partition:
        return cls(tuple(space.singleton(k) for k in space.states()))

    @classmethod
    def trivial(cls, space: StateSpace) -> Partition:
        return cls((space.full(),))

    @classmethod
    def from_blocks(
        cls, space: StateSpace, groups: Iterable[Iterable[int]]
    ) -> Partition:
        return cls(tuple(space.subset(g) for g in groups))


def max_member_table(partition: Partition) -> list[int]:
    """The union of the blocks inside each event, indexed by mask.

    That union is the largest member of the partition's algebra inside
    the event.  With ``x`` the lowest state of ``F``, ``w(F)`` is
    ``w(F - {x})`` joined with ``block(x)`` when that block lies in ``F``.
    """
    block_of = [0] * partition.space.n
    for block in partition.blocks:
        for k in block:
            block_of[k] = block.bits
    table = [0] * partition.space.num_subsets
    for mask in range(1, len(table)):
        low = mask & -mask
        block = block_of[low.bit_length() - 1]
        table[mask] = table[mask ^ low] | (0 if block & ~mask else block)
    return table


@dataclass(frozen=True)
class AlgebraView:
    """All unions of the atoms of a partition.

    A sub-algebra of the powerset: contains the empty set and the whole
    space, and is closed under complement and union.  ``atoms`` keeps the
    generating blocks; the largest member inside an event is read from
    :func:`max_member_table` of the partition, not from this view.
    """

    members: tuple[SubsetMask, ...]
    atoms: tuple[SubsetMask, ...]

    @property
    def space(self) -> StateSpace:
        return self.atoms[0].space

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)


def generated_algebra(partition: Partition) -> AlgebraView:
    """All ``2**k`` unions of the ``k`` partition blocks, sorted by mask.

    The blocks are disjoint, so the sum of some block masks is their
    union, and nonempty, so distinct selections give distinct unions: the
    result always has exactly ``2**k`` members.
    """
    space = partition.space
    unions = sorted(subset_sums([b.bits for b in partition.blocks]))
    members = tuple(SubsetMask(bits, space) for bits in unions)
    return AlgebraView(members, partition.blocks)
