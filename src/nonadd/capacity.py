"""Capacities, probability measures, and structural property checks.

A capacity is a monotone set function vanishing on the empty set; it need
not be additive.  All values are exact :class:`fractions.Fraction`s and
every check below is an exact decision; there are no tolerances, because
the characterizations this package verifies are exact iff-statements and
floating error would corrupt them.

Each ``check_*`` function returns a :class:`PropertyReport`.  When a
property fails, the report carries a witness that replays the defining
inequality: feeding the witness back into the definition produces a strict
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .sets import (
    AlgebraView,
    MaskLike,
    SpaceMismatchError,
    StateSpace,
    mask_bits,
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


def _monotonicity_violation(values: Sequence[Fraction]) -> tuple[int, int] | None:
    """First covering pair ``(F, F | {k})`` with ``v(F) > v(F | {k})``, if any.

    Covering pairs suffice: any ``F ⊆ E`` is reached by adding one state
    at a time, so monotonicity along covers implies it in general.
    """
    for mask in range(1, len(values)):
        rest = mask
        while rest:
            low = rest & -rest
            below = mask ^ low
            if values[below] > values[mask]:
                return below, mask
            rest ^= low
    return None


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
    covering pair ``(F, F | {k})``.
    """

    space: StateSpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(_as_fraction(x) for x in self.values)
        object.__setattr__(self, "values", values)
        n = self.space.n
        if len(values) != 1 << n:
            raise CapacityError(
                f"need {1 << n} values for n={n}, got {len(values)}"
            )
        if values[0] != 0:
            raise CapacityError("capacity of the empty set must be 0", (0,))
        for mask, x in enumerate(values):
            if x < 0:
                raise CapacityError(f"negative value at mask {mask}", (mask,))
        pair = _monotonicity_violation(values)
        if pair is not None:
            below, mask = pair
            raise CapacityError(f"not monotone: v({below}) > v({mask})", pair)

    @classmethod
    def from_mapping(
        cls, space: StateSpace, table: Mapping[MaskLike, Fraction | int | str]
    ) -> Capacity:
        values = [ZERO] * space.num_subsets
        seen = set()
        for key, x in table.items():
            bits = mask_bits(key)
            values[bits] = _as_fraction(x)
            seen.add(bits)
        if len(seen) != space.num_subsets:
            raise CapacityError(
                f"table must cover all {space.num_subsets} subsets, got {len(seen)}"
            )
        return cls(space, tuple(values))

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
        table = [ZERO] * self.space.num_subsets
        for mask in range(1, self.space.num_subsets):
            low = mask & -mask
            table[mask] = table[mask ^ low] + self.weights[low.bit_length() - 1]
        return tuple(table)

    def as_capacity(self) -> Capacity:
        """The measure viewed as an (additive, hence convex) capacity."""
        return Capacity(self.space, self.mass_table)

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
    values = v.values
    pair = _monotonicity_violation(values)
    if pair is None:
        return PropertyReport(True)
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
    values = v.values
    n = v.space.n
    for base in range(v.space.num_subsets):
        for i in range(n):
            bi = 1 << i
            if base & bi:
                continue
            for j in range(i + 1, n):
                bj = 1 << j
                if base & bj:
                    continue
                lhs = values[base | bi | bj] + values[base]
                rhs = values[base | bi] + values[base | bj]
                if lhs < rhs:
                    e, f = base | bi, base | bj
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
    values = v.values
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
    values = v.values
    for e in maximal_null_sets(v):
        if e == 0:
            continue
        for f in range(v.space.num_subsets):
            if values[e | f] != values[f]:
                return PropertyReport(
                    False,
                    (e, f),
                    f"v(E) = 0 but v(E|F) = {values[e | f]} != {values[f]} = v(F)",
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
    values = v.values
    for f in range(v.space.num_subsets):
        g = f & ~null_bits
        if values[g] != values[f]:
            return PropertyReport(
                False,
                (g, f),
                f"P(F-G) = 0 but v(G) = {values[g]} != {values[f]} = v(F)",
            )
    return PropertyReport(True)


def check_dense(alg: AlgebraView, P: ProbabilityMeasure) -> PropertyReport:
    """Is every event approximable from inside by an algebra member?

    Density of the algebra: for every ``F`` there is a member ``A``
    contained in ``F`` with ``P(F - A) = 0``.  Since members are closed
    under union it suffices to look at the maximal member below ``F``.
    The witness is the event with the largest mass gap.
    """
    if alg.space != P.space:
        raise SpaceMismatchError("algebra and measure on different spaces")
    table = P.mass_table
    worst_gap = ZERO
    worst: tuple[int, int] | None = None
    for f in range(P.space.num_subsets):
        a = alg.max_member_below(f).bits
        gap = table[f & ~a]
        if gap > worst_gap:
            worst_gap = gap
            worst = (f, a)
    if worst is None:
        return PropertyReport(True)
    return PropertyReport(
        False, worst, f"P(F - A_F) = {worst_gap} at F = {worst[0]}"
    )


class NonMonotoneChainError(ValueError):
    """The given subset sequence is not monotone under inclusion."""


def check_continuity_along_chain(
    evaluate: Callable[[object], Fraction],
    chain: Sequence,
    limit: object | None = None,
) -> PropertyReport:
    """Does the evaluator commute with the limit of a monotone chain?

    ``chain`` must be monotone under inclusion (items need ``<=``); a
    finite list stands for the eventually-constant sequence that stays at
    its last element, so the observed limit of values is the value at the
    last element.  ``limit`` defaults to that element: on a finite space
    chains stabilize and the check then holds for any capacity.  Passing
    an explicit ``limit`` (e.g. the full countable space above a chain of
    prefixes) makes this the genuine continuity test; the caller is
    responsible for the chain being deep enough that its values have
    stabilized.
    """
    items = list(chain)
    if not items:
        raise ValueError("empty chain")
    increasing = all(a <= b for a, b in zip(items, items[1:]))
    decreasing = all(b <= a for a, b in zip(items, items[1:]))
    if not (increasing or decreasing):
        raise NonMonotoneChainError("chain is not monotone under inclusion")
    if limit is None:
        limit = items[-1]
    tail_value = evaluate(items[-1])
    limit_value = evaluate(limit)
    if tail_value == limit_value:
        return PropertyReport(True, detail=f"limit value {limit_value}")
    return PropertyReport(
        False,
        (items[-1], limit),
        f"values along the chain reach {tail_value}, "
        f"but the limit set has value {limit_value}",
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
