"""Capacities, probability measures, and structural property checks.

A capacity is a monotone set function vanishing on the empty set; it need
not be additive.  All values are exact :class:`fractions.Fraction`s and
every check below is an exact decision; there are no tolerances, because
the characterizations this package verifies are exact iff-statements and
floating error would corrupt them.  The scans over all ``2**n`` subsets
compare the values scaled to one common denominator, as plain ints; the
verdicts and witnesses they report are those of the Fractions.

Each ``check_*`` function returns a :class:`PropertyReport`.  When a
property fails, the report carries a witness that replays the defining
inequality: feeding the witness back into the definition produces a strict
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import gt, indexOf, ne, sub
from typing import Sequence

from .sets import (
    Partition,
    StateSpace,
    check_mask,
    check_values,
    exact_values,
    mask_of,
    same_space,
    states_of,
    submasks,
    subset_sums,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class CapacityError(ValueError):
    """A value table violates the capacity axioms.

    ``witness`` holds the offending mask pair ``(smaller, larger)`` for a
    monotonicity failure, or a single mask for a sign/empty-set failure.
    """

    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness


# Largest common denominator, in bits, that the table scans scale to.
# Past it (one prime denominator per subset, say) the scaled ints would
# outgrow the Fractions they replace, so the scans read the Fractions.
SCALE_BITS = 64


def _scale(values: tuple[Fraction, ...]) -> tuple[tuple, int]:
    """``values`` times their least common denominator, as ints, and that factor.

    Scaling by one positive factor keeps every ``<``, ``==`` and sum
    comparison, so a scan over the result decides what it would decide
    over ``values``.  Past ``SCALE_BITS`` the Fractions come back as they
    are, with factor 1; the scans only add and compare, so they take
    either.
    """
    ratios = list(map(Fraction.as_integer_ratio, values))
    dens = {d for _, d in ratios}
    common = 1
    for d in dens:
        common = math.lcm(common, d)
        if common.bit_length() > SCALE_BITS:
            return values, 1
    factor = {d: common // d for d in dens}
    return tuple([p * factor[d] for p, d in ratios]), common


def _first_step(values: Sequence, op=gt, states: int = -1) -> tuple[int, int] | None:
    """First covering pair ``(F, F | {k})``, ``k`` in ``states``, with
    ``op(v(F), v(F | {k}))``, if any: by default a dip, a monotonicity failure.

    Covering pairs suffice: any ``F ⊆ E`` is reached by adding one state
    at a time, so monotonicity along covers implies it in general.

    For bit ``k`` (``s = 2**k``) the pairs are compared slice against
    slice: offsets ``values[r::2s]`` against ``values[r+s::2s]`` for each
    ``r < s``, or blocks ``values[b:b+s]`` against ``values[b+s:b+2s]``,
    whichever shape gives fewer slices.  The witness is the pair with the
    smallest upper mask ``F | {k}``, the lowest ``k`` on ties: the pair a
    scan by ascending mask, then ascending bit, meets first.
    """
    best, end = None, len(values)  # a pair found next has its upper mask below end
    s = 1
    while s < end:
        step = s << 1
        if s & states:
            if s * step <= len(values):
                starts, stride = range(s), step
            else:
                starts, stride = range(0, end - s, step), 1
            for lo in starts:
                stop = end - s if stride > 1 else lo + s  # a block ends at lo + s
                below = values[lo : stop : stride]
                above = values[lo + s : stop + s : stride]
                if any(map(op, below, above)):
                    mask = lo + s + stride * indexOf(map(op, below, above), True)
                    if mask < end:
                        best, end = (mask - s, mask), mask
                    if stride == 1:
                        break  # later blocks hold only larger masks
        s = step
    return best


@dataclass(frozen=True)
class Capacity:
    """Monotone set function with ``v(empty) = 0``, one exact value per subset.

    ``values[mask]`` is the capacity of the subset encoded by ``mask``.
    Construction validates the axioms: rejecting a table that is negative
    somewhere, nonzero on the empty set, or non-monotone along some
    covering pair ``(F, F | {k})``.  ``_scaled`` is the same table over
    one common denominator ``_common`` (see :func:`_scale`), made once here
    and read by every scan.
    """

    space: StateSpace
    values: tuple[Fraction, ...]
    _scaled: tuple = field(init=False, repr=False, compare=False, default=())
    _common: int = field(init=False, repr=False, compare=False, default=1)

    def __post_init__(self) -> None:
        table = keys = tuple(self.values)
        # a file's table repeats a few hundred strings over thousands of
        # subsets: each distinct string is read and scaled once, then looked
        # up, in a table with no repeat too (the lookup costs it a few
        # percent).  Strings only: hashing a Fraction costs more than scaling
        # it, and dict.fromkeys would merge equal values of other types (1, True)
        if table and type(table[0]) is str and set(map(type, table)) == {str}:
            keys = tuple(dict.fromkeys(table))
        values = exact_values(keys, "capacity values")
        n = self.space.n
        if len(table) != 1 << n:
            raise CapacityError(f"need {1 << n} values for n={n}, got {len(table)}")
        scaled, common = _scale(values)
        if keys is not table:
            values = tuple(map(dict(zip(keys, values)).__getitem__, table))
            scaled = tuple(map(dict(zip(keys, scaled)).__getitem__, table))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_common", common)
        if scaled[0] != 0:
            raise CapacityError("capacity of the empty set must be 0", (0,))
        if min(scaled) < 0:  # the sign, named after v(empty)
            mask = next(m for m, x in enumerate(scaled) if x < 0)
            raise CapacityError(f"negative value at mask {mask}", (mask,))
        pair = _first_step(scaled)
        if pair is not None:
            below, mask = pair
            raise CapacityError(f"not monotone: v({below}) > v({mask})", pair)


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Additive reference measure: per-state weights summing to exactly 1."""

    space: StateSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = check_values(self.weights, "weights", self.space.n)
        object.__setattr__(self, "weights", weights)
        if sum(weights) != 1:
            raise ValueError(f"weights sum to {sum(weights)}, expected 1")

    @classmethod
    def uniform(cls, space: StateSpace) -> ProbabilityMeasure:
        return cls(space, tuple(Fraction(1, space.n) for _ in space.states()))

    def mass(self, bits: int) -> Fraction:
        check_mask(bits, self.space)
        return sum((self.weights[k] for k in states_of(bits)), ZERO)

    @cached_property
    def _scaled(self) -> tuple[tuple, int]:
        """The weights over one common denominator, ``(scaled, common)`` as
        :func:`_scale` gives them.  Made on first use."""
        return _scale(self.weights)

    @cached_property
    def mass_table(self) -> tuple[Fraction, ...]:
        """``P`` evaluated on every subset, indexed by mask."""
        return tuple(subset_sums(self.weights))

    def is_strictly_positive(self) -> bool:
        return all(w > 0 for w in self.weights)

    def null_states_bits(self) -> int:
        """Mask of the states carrying zero weight (the largest null set)."""
        return mask_of(w == 0 for w in self.weights)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a structural check.

    ``witness`` is ``None`` when the property holds; otherwise it is the
    object that violates the defining condition (usually a tuple of subset
    masks; for countable continuity, a ``ChainWitness``), chosen so that
    replaying the definition on the witness yields a strict violation.
    """

    holds: bool
    witness: object | None = None


def check_monotone(v: Capacity) -> PropertyReport:
    """Is ``v(F) <= v(E)`` whenever ``F`` is contained in ``E``?

    Scans all covering pairs ``(F, F | {k})``, which is equivalent to the
    full quantifier.  Constructed capacities always pass (the constructor
    enforces the same scan), so this is the replayable form of that
    invariant.
    """
    pair = _first_step(v._scaled)
    return PropertyReport(pair is None, pair)


def _local_dip(values: Sequence, n: int, bases: range) -> tuple[int, int] | None:
    """First ``(A | {i}, A | {j})``, ``A`` in ``bases`` ascending, then ``i < j``
    outside ``A`` ascending, with ``v(A | {i,j}) + v(A) < v(A | {i}) + v(A | {j})``."""
    bits = [1 << i for i in range(n)]
    for base in bases:
        x = values[base]
        free = [b for b in bits if not base & b]
        for i, bi in enumerate(free):
            e = base | bi
            xe = values[e]
            for bj in free[i + 1 :]:
                if values[e | bj] + x < xe + values[base | bj]:
                    return e, base | bj
    return None


# Bases the local loop of check_convex tries before the marginals: a
# non-convex table usually fails there, in microseconds, and up to n = 6
# they are the whole table
_HEAD = 64


def check_convex(v: Capacity) -> PropertyReport:
    """Supermodularity: ``v(E) + v(F) <= v(E | F) + v(E & F)`` for all pairs.

    Checked through the equivalent local criterion over all triples
    ``(A, i, j)`` with ``i, j`` outside ``A``::

        v(A | {i,j}) + v(A)  >=  v(A | {i}) + v(A | {j})

    which costs ``O(n^2 2^n)`` instead of ``O(4^n)``.  A violating triple
    is converted back to the pair ``(E, F) = (A | {i}, A | {j})`` so the
    witness replays against the definition verbatim.

    The loop over triples, by ascending ``A``, runs over the first
    ``_HEAD`` bases only.  The rest is decided by C-level slices: ``v`` is
    supermodular iff each marginal ``m_i(A) = v(A | {i}) - v(A)`` is
    nondecreasing in ``A`` (Shapley 1971).  ``m_i`` is built indexed by
    the masks without bit ``i`` (bit ``j > i`` moves down to ``j - 1``),
    by the slice shapes of :func:`_first_step`, and that scan checks it
    along the states above ``i`` only: ``m_i(A | {j}) - m_i(A)`` equals
    ``m_j(A | {i}) - m_j(A)``, so each pair ``{i, j}`` is checked once.
    Only if some marginal dips does the loop resume, to report the first
    violating triple, the witness the loop alone would report.
    """
    values, n = v._scaled, v.space.n
    size = len(values)
    head = min(_HEAD, size)
    pair = _local_dip(values, n, range(head))
    if pair is not None or head == size:
        return PropertyReport(pair is None, pair)
    d = [0] * (size >> 1)
    for i in range(n - 1):
        s = 1 << i
        step = s << 1
        if s * step <= size:
            for r in range(s):
                d[r::s] = map(sub, values[r + s :: step], values[r::step])
        else:
            for lo in range(0, size, step):
                d[lo >> 1 : (lo >> 1) + s] = map(sub, values[lo + s : lo + step], values[lo : lo + s])
        if _first_step(d, gt, -1 << i) is not None:
            return PropertyReport(False, _local_dip(values, n, range(head, size)))
    return PropertyReport(True)


def maximal_null_sets(v: Capacity) -> list[int]:
    """Inclusion-maximal subsets of capacity zero.

    ``E`` is maximal-null iff ``v(E) = 0`` and adding any single state makes
    the value positive.  Every null set sits inside a maximal one, so
    quantifiers over null sets can range over these only.  By monotonicity
    a null set holds only null states, and adding a state that is not null
    makes the value positive: the scan ranges over the submasks of the null
    states, and adds null states only.
    """
    values = v._scaled
    bits = [1 << k for k in v.space.states() if values[1 << k] == 0]  # the null states
    return [
        mask
        for mask in [0, *submasks(sum(bits))]
        if values[mask] == 0 and all(values[mask | b] for b in bits if not mask & b)
    ]


def check_null_additive(v: Capacity) -> PropertyReport:
    """Null-additivity: ``v(E | F) = v(F)`` whenever ``v(E) = 0``.

    A null ``E`` fails iff a state ``k`` of it moves ``v`` along a covering
    pair ``(G, G | {k})``: then ``v(E | G) > v(G)``, and a failure at ``F``
    is a move on the way up from ``F`` to ``E | F``.  Every state of a null
    set is null, so it holds iff no null state moves ``v``; else the
    witness is the first maximal null set that fails, and its first ``F``.
    """
    values = v._scaled
    nulls = mask_of(values[1 << k] == 0 for k in v.space.states())
    if _first_step(values, ne, nulls) is None:
        return PropertyReport(True)
    e = next(e for e in maximal_null_sets(v) if _first_step(values, ne, e))
    f = next(f for f in range(len(values)) if values[e | f] != values[f])
    return PropertyReport(False, (e, f))


def check_P_null_additive(v: Capacity, P: ProbabilityMeasure) -> PropertyReport:
    """``v(G) = v(F)`` whenever ``G`` is ``F`` minus a ``P``-null portion.

    ``P(F - G) = 0`` exactly when ``F - G`` sits inside the set ``N`` of
    zero-weight states, so by monotonicity ``G = F - N`` decides each
    ``F``.  ``v(F - N) < v(F)`` iff a covering pair on the way up adds a
    state of ``N`` and moves ``v``, and the upper mask ``U`` of such a
    pair fails too: the first failing ``F`` is the first such ``U``.
    """
    same_space(v, P)
    null_bits = P.null_states_bits()
    _, f = _first_step(v._scaled, ne, null_bits) or (0, 0)  # an upper mask is never 0
    return PropertyReport(f == 0, None if f == 0 else (f & ~null_bits, f))


def check_dense(partition: Partition, P: ProbabilityMeasure) -> PropertyReport:
    """Is every event approximable from inside by an algebra member?

    Density of the algebra the partition generates: for every ``F`` there
    is a member ``A`` contained in ``F`` with ``P(F - A) = 0``.  The gap
    ``P(F - A)`` of the largest, the blocks inside ``F``, sums ``P(F & B)``
    over the blocks ``B`` not inside ``F``: it is largest block by block,
    at ``B`` less its zero-weight states if any, else less its
    highest-numbered lightest state.  That ``F``, the first with the largest
    gap, holds no block: it is empty iff dense, else the witness is ``(F, 0)``.
    """
    same_space(partition, P)
    null_bits, w = P.null_states_bits(), P.weights
    f = 0
    for block in partition.blocks:
        light = min(block, key=lambda k: (w[k], -k))
        f |= block.bits & ~(null_bits if w[light] == 0 else 1 << light)
    return PropertyReport(f == 0, None if f == 0 else (f, 0))


def replay_convexity_violation(v: Capacity, e: int, f: int) -> bool:
    """True iff the pair strictly violates supermodularity (witness replay)."""
    e, f = check_mask(e, v.space), check_mask(f, v.space)
    return v.values[e] + v.values[f] > v.values[e | f] + v.values[e & f]


def replay_null_additivity_violation(v: Capacity, e: int, f: int) -> bool:
    """True iff ``v(E) = 0`` yet ``v(E | F) != v(F)`` (witness replay)."""
    e, f = check_mask(e, v.space), check_mask(f, v.space)
    return v.values[e] == 0 and v.values[e | f] != v.values[f]
