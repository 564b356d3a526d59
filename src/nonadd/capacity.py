"""Capacities, probability measures, and structural property checks.

A capacity is a monotone set function vanishing on the empty set; it need
not be additive.  All values are exact :class:`fractions.Fraction`s and
every check below is an exact decision; there are no tolerances, because
the characterizations this package verifies are exact iff-statements and
floating error would corrupt them.  The scans over all ``2**n`` subsets
compare the values scaled to one common denominator, as plain ints; the
verdicts, witnesses and details they report are those of the Fractions.

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
from operator import gt
from typing import Sequence

from .sets import (
    MaskLike,
    Partition,
    SpaceMismatchError,
    StateSpace,
    mask_bits,
    max_member_table,
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


def _monotonicity_violation(values: Sequence) -> tuple[int, int] | None:
    """First covering pair ``(F, F | {k})`` with ``v(F) > v(F | {k})``, if any.

    Covering pairs suffice: any ``F ⊆ E`` is reached by adding one state
    at a time, so monotonicity along covers implies it in general.

    For bit ``k`` (``s = 2**k``) the pairs are compared slice against
    slice: offsets ``values[r::2s]`` against ``values[r+s::2s]`` for each
    ``r < s``, or blocks ``values[b:b+s]`` against ``values[b+s:b+2s]``,
    whichever shape gives fewer slices.  The witness is the dip with the
    smallest upper mask ``F | {k}``, the lowest ``k`` on ties: the pair a
    scan by ascending mask, then ascending bit, meets first.
    """
    size = len(values)
    best = None
    s = 1
    while s < size:
        step = s << 1
        if s * step <= size:
            starts, stride, span = range(s), step, size
        else:
            starts, stride, span = range(0, size, step), 1, s
        for lo in starts:
            below = values[lo : lo + span : stride]
            above = values[lo + s : lo + s + span : stride]
            if any(map(gt, below, above)):
                mask = lo + s + stride * list(map(gt, below, above)).index(True)
                if best is None or mask < best[1]:
                    best = (mask - s, mask)
                if stride == 1:
                    break  # later blocks hold only larger masks
        s = step
    return best


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}")


@dataclass(frozen=True)
class Capacity:
    """Monotone set function with ``v(empty) = 0``, one exact value per subset.

    ``values[mask]`` is the capacity of the subset encoded by ``mask``.
    Construction validates the axioms: rejecting a table that is negative
    somewhere, nonzero on the empty set, or non-monotone along some
    covering pair ``(F, F | {k})``.  ``_scaled`` is the same table over
    one common denominator (see :func:`_scale`), made once here and read
    by every scan.
    """

    space: StateSpace
    values: tuple[Fraction, ...]
    _scaled: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if set(map(type, values)) != {Fraction}:
            values = tuple(map(_as_fraction, values))
        object.__setattr__(self, "values", values)
        n = self.space.n
        if len(values) != 1 << n:
            raise CapacityError(
                f"need {1 << n} values for n={n}, got {len(values)}"
            )
        scaled, _ = _scale(values)
        object.__setattr__(self, "_scaled", scaled)
        if scaled[0] != 0:
            raise CapacityError("capacity of the empty set must be 0", (0,))
        if min(scaled) < 0:
            mask = next(m for m, x in enumerate(scaled) if x < 0)
            raise CapacityError(f"negative value at mask {mask}", (mask,))
        pair = _monotonicity_violation(scaled)
        if pair is not None:
            below, mask = pair
            raise CapacityError(f"not monotone: v({below}) > v({mask})", pair)

    def value(self, event: MaskLike) -> Fraction:
        return self.values[mask_bits(event)]

    def total(self) -> Fraction:
        return self.values[-1]


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Additive reference measure: per-state weights summing to exactly 1."""

    space: StateSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = tuple(_as_fraction(x) for x in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.space.n:
            raise ValueError("one weight per state required")
        for k, w in enumerate(weights):
            if w < 0:
                raise ValueError(f"negative weight at state {k}")
        if sum(weights) != 1:
            raise ValueError(f"weights sum to {sum(weights)}, expected 1")

    @classmethod
    def uniform(cls, space: StateSpace) -> ProbabilityMeasure:
        return cls(space, tuple(Fraction(1, space.n) for _ in space.states()))

    def mass(self, event: MaskLike) -> Fraction:
        bits = mask_bits(event)
        total = ZERO
        while bits:
            low = bits & -bits
            total += self.weights[low.bit_length() - 1]
            bits ^= low
        return total

    @cached_property
    def mass_table(self) -> tuple[Fraction, ...]:
        """``P`` evaluated on every subset, indexed by mask."""
        return tuple(subset_sums(self.weights))

    def is_strictly_positive(self) -> bool:
        return all(w > 0 for w in self.weights)

    def null_states_bits(self) -> int:
        """Mask of the states carrying zero weight (the largest null set)."""
        bits = 0
        for k, w in enumerate(self.weights):
            if w == 0:
                bits |= 1 << k
        return bits


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
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def check_monotone(v: Capacity) -> PropertyReport:
    """Is ``v(F) <= v(E)`` whenever ``F`` is contained in ``E``?

    Scans all covering pairs ``(F, F | {k})``, which is equivalent to the
    full quantifier.  Constructed capacities always pass (the constructor
    enforces the same scan), so this is the replayable form of that
    invariant.
    """
    pair = _monotonicity_violation(v._scaled)
    if pair is None:
        return PropertyReport(True)
    values = v.values
    below, mask = pair
    return PropertyReport(
        False,
        pair,
        f"v({below}) = {values[below]} > {values[mask]} = v({mask})",
    )


def check_convex(v: Capacity) -> PropertyReport:
    """Supermodularity: ``v(E) + v(F) <= v(E | F) + v(E & F)`` for all pairs.

    Checked through the equivalent local criterion over all triples
    ``(A, i, j)`` with ``i, j`` outside ``A``::

        v(A | {i,j}) + v(A)  >=  v(A | {i}) + v(A | {j})

    which costs ``O(n^2 2^n)`` instead of ``O(4^n)``.  A violating triple
    is converted back to the pair ``(E, F) = (A | {i}, A | {j})`` so the
    witness replays against the definition verbatim.
    """
    values = v._scaled
    bits = [1 << i for i in range(v.space.n)]
    for base in range(v.space.num_subsets):
        x = values[base]
        free = [b for b in bits if not base & b]
        for i, bi in enumerate(free):
            e = base | bi
            xe = values[e]
            for bj in free[i + 1 :]:
                if values[e | bj] + x < xe + values[base | bj]:
                    f = base | bj
                    vals = v.values
                    lhs = vals[e | f] + vals[base]
                    rhs = vals[e] + vals[f]
                    return PropertyReport(
                        False,
                        (e, f),
                        f"v({e}) + v({f}) = {rhs} > {lhs} = v(union) + v(intersection)",
                    )
    return PropertyReport(True)


def maximal_null_sets(v: Capacity) -> list[int]:
    """Inclusion-maximal subsets of capacity zero.

    ``E`` is maximal-null iff ``v(E) = 0`` and adding any single state makes
    the value positive.  Every null set sits inside a maximal one, so
    quantifiers over null sets can range over these only.
    """
    values = v._scaled
    full = v.space.full_bits
    out = []
    for mask, x in enumerate(values):
        if x != 0:
            continue
        rest = full & ~mask
        maximal = True
        while rest:
            low = rest & -rest
            if values[mask | low] == 0:
                maximal = False
                break
            rest ^= low
        if maximal:
            out.append(mask)
    return out


def check_null_additive(v: Capacity) -> PropertyReport:
    """Null-additivity: ``v(E | F) = v(F)`` whenever ``v(E) = 0``.

    Only inclusion-maximal null sets need checking: if the condition holds
    for a maximal ``E'`` containing ``E`` then monotonicity squeezes
    ``v(F) <= v(E | F) <= v(E' | F) = v(F)``.
    """
    values = v._scaled
    for e in maximal_null_sets(v):
        if e == 0:
            continue
        for f in range(v.space.num_subsets):
            if values[e | f] != values[f]:
                vals = v.values
                return PropertyReport(
                    False,
                    (e, f),
                    f"v(E) = 0 but v(E|F) = {vals[e | f]} != {vals[f]} = v(F)",
                )
    return PropertyReport(True)


def check_P_null_additive(v: Capacity, P: ProbabilityMeasure) -> PropertyReport:
    """``v(G) = v(F)`` whenever ``G`` is ``F`` minus a ``P``-null portion.

    ``P(F - G) = 0`` exactly when ``F - G`` sits inside the set ``N`` of
    zero-weight states, so for fixed ``F`` the extreme admissible ``G`` is
    ``F - N``; monotonicity makes that single comparison decide all of
    them.  With strictly positive ``P`` the property holds vacuously.
    """
    if v.space != P.space:
        raise SpaceMismatchError("capacity and measure on different spaces")
    null_bits = P.null_states_bits()
    if null_bits == 0:
        return PropertyReport(True, detail="P strictly positive: vacuous")
    values = v._scaled
    for f in range(v.space.num_subsets):
        g = f & ~null_bits
        if values[g] != values[f]:
            vals = v.values
            return PropertyReport(
                False,
                (g, f),
                f"P(F-G) = 0 but v(G) = {vals[g]} != {vals[f]} = v(F)",
            )
    return PropertyReport(True)


def check_dense(partition: Partition, P: ProbabilityMeasure) -> PropertyReport:
    """Is every event approximable from inside by an algebra member?

    Density of the algebra the partition generates: for every ``F`` there
    is a member ``A`` contained in ``F`` with ``P(F - A) = 0``.  Since
    members are closed under union it suffices to look at the largest
    member inside ``F``, read from :func:`~nonadd.sets.max_member_table`.
    The witness ``(F, A_F)`` is the first event with the largest mass gap.
    """
    if partition.space != P.space:
        raise SpaceMismatchError("partition and measure on different spaces")
    mass = subset_sums(_scale(P.weights)[0])
    below = max_member_table(partition)
    gaps = [mass[f & ~a] for f, a in enumerate(below)]
    worst_gap = max(gaps)
    if not worst_gap:
        return PropertyReport(True)
    f = gaps.index(worst_gap)
    a = below[f]
    return PropertyReport(
        False, (f, a), f"P(F - A_F) = {P.mass(f & ~a)} at F = {f}"
    )


def replay_convexity_violation(v: Capacity, e: MaskLike, f: MaskLike) -> bool:
    """True iff the pair strictly violates supermodularity (witness replay)."""
    eb, fb = mask_bits(e), mask_bits(f)
    return v.values[eb] + v.values[fb] > v.values[eb | fb] + v.values[eb & fb]


def replay_null_additivity_violation(
    v: Capacity, e: MaskLike, f: MaskLike
) -> bool:
    """True iff ``v(E) = 0`` yet ``v(E | F) != v(F)`` (witness replay)."""
    eb, fb = mask_bits(e), mask_bits(f)
    return v.values[eb] == 0 and v.values[eb | fb] != v.values[fb]
