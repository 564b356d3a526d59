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

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, attrgetter
from typing import Any, Iterable, Iterator, Sequence

DEFAULT_MAX_STATES = 20


class SpaceMismatchError(ValueError):
    """Two operands were built over different state spaces."""


class FormatError(ValueError):
    """A rational's text, or a JSON document, is not in its format."""


# Most digits in one integer of a rational read from text: it bounds a
# hostile input's parse time, and is Python's default int-from-text cap.
MAX_DIGITS = 4300


def _clip(raw: Any) -> str:
    """``repr(raw)``, cut to 60 characters for an error message.

    An int of more than ``MAX_DIGITS`` bits is named by its size: its
    decimal text could pass Python's digit cap, and would be cut anyway.
    """
    if _is_int(type(raw)) and raw.bit_length() > MAX_DIGITS:
        return f"{'a negative' if raw < 0 else 'an'} int of {raw.bit_length()} bits"
    text = repr(raw)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


def frac_from_str(s: Any) -> Fraction:
    """An exact rational from a string ``"p/q"``, ``"p"`` or ``"p.d"``: the
    one text rule for a rational, in a file or handed to the library.

    ASCII digits and a leading ``-`` only: a JSON number arrives rounded
    through a float, an exponent would be expanded in full, and the other
    spellings ``Fraction`` takes (``"+2"``, ``" 3 "``, ``"1_000"``) are not
    in the file formats.  Each integer has at most ``MAX_DIGITS`` digits.
    """
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise FormatError(f"not a rational: {_clip(s)}")
    if len(s) > MAX_DIGITS and max(map(len, re.split("[-/.]", s))) > MAX_DIGITS:
        raise FormatError(
            f"rational {_clip(s)} has an integer of more than {MAX_DIGITS} digits"
        )
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {_clip(s)}") from exc


@dataclass(frozen=True)
class StateSpace:
    """Finite measurable space: the states ``0..n-1`` with the full powerset."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # Tables downstream carry 2**n entries; the cap is a guard rail
        # against accidental blow-ups, not an algorithmic limit.
        check_size(self.n, "n", 1, DEFAULT_MAX_STATES)
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
        check_size(state, "state", 0, self.n - 1)
        return self.labels[state] if self.labels else str(state)

    def subset(self, source: int | Iterable[int]) -> SubsetMask:
        """Build a subset from a mask integer or an iterable of states."""
        if isinstance(source, int):
            return SubsetMask(source, self)
        bits = 0
        for k in check_states(source, 0, self.n - 1):
            bits |= 1 << k
        return SubsetMask(bits, self)


def check_states(states: Iterable, low=None, high=None) -> tuple[int, ...]:
    """``states`` as a tuple, each an ``int`` and not a ``bool``, and with
    the bounds given, each in ``low..high``.

    Anything else, ``2.7`` or ``True`` included, is a ``ValueError``
    rather than a state truncated to some other one.  The types are read
    in one pass at C speed and the bounds in one ``min`` and one ``max``,
    so a block of thousands of states costs about what copying it does.
    """
    states = tuple(states)
    for t in set(map(type, states)):
        if not _is_int(t):
            bad = next(k for k in states if type(k) is t)
            raise ValueError(f"a state is an int, got {_clip(bad)}")
    if low is not None and states and not low <= min(states) <= max(states) <= high:
        bad = next(k for k in states if not low <= k <= high)
        raise ValueError(f"state {_clip(bad)} outside {low}..{high}")
    return states


def check_size(n, what: str, low=None, high=None) -> int:
    """``n`` if it is an ``int`` and not a ``bool``, as :func:`check_states`
    asks of a state, and at least ``low`` and at most ``high`` when they
    are given; else a ``ValueError`` naming ``what``.  The one bounds rule
    for an index, a size or a count the library and the CLI read."""
    if not _is_int(type(n)):
        raise ValueError(f"{what} must be an int, got {_clip(n)}")
    if low is None or low <= n and (high is None or n <= high):
        return n
    if high is None:
        raise ValueError(f"{what} must be at least {low}, got {_clip(n)}")
    raise ValueError(f"{what} must be in {low}..{high}, got {_clip(n)}")


def _is_int(t: type) -> bool:
    return issubclass(t, int) and not issubclass(t, bool)


def check_mask(mask, space: StateSpace) -> int:
    """``mask`` if it is an event of ``space``, an int in
    ``0..space.full_bits`` by :func:`check_size`'s rule; else a ``ValueError``."""
    return check_size(mask, "mask", 0, space.full_bits)


def exact_values(values: Iterable, what: str, length=None) -> tuple[Fraction, ...]:
    """``values`` as a tuple of exact ``Fraction``s, ``length`` of them if
    given: each a ``Fraction``, a string by :func:`frac_from_str`'s rule or
    an int by :func:`check_size`'s; anything else (``0.5``, ``True``) is a
    ``TypeError``."""
    values = tuple(values)
    types = set(map(type, values))
    if types == {str}:  # a file's strings: one pass, no per-entry type test
        values = tuple(map(frac_from_str, values))
    elif types != {Fraction}:
        for x in values:
            if not (isinstance(x, (Fraction, str)) or _is_int(type(x))):
                raise TypeError(f"exact rational required for {what}, got {_clip(x)}")
        values = tuple(
            x if isinstance(x, Fraction)
            else frac_from_str(x) if isinstance(x, str)
            else Fraction(x)
            for x in values
        )
    if length is not None and len(values) != length:
        raise ValueError(f"need {length} {what}, got {len(values)}")
    return values


def check_values(values: Iterable, what: str, length=None) -> tuple[Fraction, ...]:
    """:func:`exact_values`, each nonnegative: the sign is read from the
    numerators, in one pass."""
    values = exact_values(values, what, length)
    if values and min(map(attrgetter("numerator"), values)) < 0:
        raise ValueError(f"{what} must be nonnegative")
    return values


def same_space(*operands) -> StateSpace:
    """The ``.space`` all ``operands`` share: the one check that they share it."""
    space = operands[0].space
    if any(x.space != space for x in operands):
        raise SpaceMismatchError("operands live on different state spaces")
    return space


def states_of(mask: int) -> Iterator[int]:
    """The states of ``mask``, ascending.  ``mask`` is a checked int
    ``>= 0``: a negative one has no highest bit, so the loop never ends."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(flags: Iterable) -> int:
    """The mask with bit ``k`` set where the ``k``-th flag is true."""
    return sum(1 << k for k, x in enumerate(flags) if x)


def subset_sums(weights: Sequence) -> list:
    """The sum of ``weights`` over every subset, indexed by mask: by
    doubling, each weight added to a copy of the table so far, from a zero
    of the weights' type (``[0]`` for no weights)."""
    table = [weights[0] * 0 if weights else 0]
    for w in weights:
        table += list(map(add, table, repeat(w)))
    return table


def submasks(bits: int) -> list[int]:
    """The nonempty submasks of ``bits``, ascending."""
    out, t = [], bits & -bits  # a recurrence on submasks, not a read of states
    while t:
        out.append(t)
        t = (t - bits) & bits
    return out


@dataclass(frozen=True)
class SubsetMask:
    """A mask labelled with its :class:`StateSpace`, for blocks and witnesses.

    The mask is the event; set algebra on events is plain int arithmetic
    on masks (``|``, ``&``, ``& ~``).  This view adds only the range check
    against the space, iteration over the member states in ascending
    order, and a repr through the space's labels.
    """

    bits: int
    space: StateSpace

    def __post_init__(self) -> None:
        check_mask(self.bits, self.space)

    def __iter__(self) -> Iterator[int]:
        return states_of(self.bits)

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
        space = same_space(*blocks)
        seen = 0
        for b in blocks:
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

    @classmethod
    def singletons(cls, space: StateSpace) -> Partition:
        return cls.from_blocks(space, ([k] for k in space.states()))

    @classmethod
    def trivial(cls, space: StateSpace) -> Partition:
        return cls((space.subset(space.full_bits),))

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
        low = mask & -mask  # a recurrence: the low bit indexes a smaller mask
        block = block_of[low.bit_length() - 1]
        table[mask] = table[mask ^ low] | (0 if block & ~mask else block)
    return table


@dataclass(frozen=True)
class AlgebraView:
    """All unions of the atoms of a partition.

    A sub-algebra of the powerset: contains the empty set and the whole
    space, and is closed under complement and union.  The largest member
    inside an event is read from :func:`max_member_table` of the
    partition, not from this view.
    """

    members: tuple[SubsetMask, ...]

    def __len__(self) -> int:
        return len(self.members)


def generated_algebra(partition: Partition) -> AlgebraView:
    """All ``2**k`` unions of the ``k`` partition blocks, sorted by mask.

    The blocks are disjoint, so the sum of some block masks is their
    union, and nonempty, so distinct selections give distinct unions: the
    result always has exactly ``2**k`` members.
    """
    space = partition.space
    unions = sorted(subset_sums([b.bits for b in partition.blocks]))
    return AlgebraView(tuple(SubsetMask(bits, space) for bits in unions))
