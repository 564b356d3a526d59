"""Shared test utilities: brute-force oracles and exhaustive enumerations.

Everything here re-derives expected values by the most literal method
available (direct quantifier sweeps, survival-function scans), so the
library paths are checked against independent computations.
"""

from __future__ import annotations

from fractions import Fraction

from nonadd import Capacity, ProbabilityMeasure, SimpleFunction, StateSpace

ZERO = Fraction(0)


def all_set_partitions(items):
    """Every partition of ``items`` as a list of blocks (lists)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def survival_scan_choquet(f: SimpleFunction, v: Capacity) -> Fraction:
    """Riemann sum of the survival function ``t -> v({f >= t})``.

    The survival function is a step function constant on the intervals
    between consecutive values of ``f``; summing height times width over
    those intervals is the literal area computation.
    """
    breakpoints = sorted(set(f.values) | {ZERO})
    total = ZERO
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        total += (hi - lo) * v.values[f.level_set_bits(hi)]
    return total


def convex_by_all_pairs(v: Capacity) -> tuple[bool, tuple[int, int] | None]:
    """Literal supermodularity sweep over all O(4^n) event pairs."""
    for e in range(v.space.num_subsets):
        for g in range(v.space.num_subsets):
            if v.values[e] + v.values[g] > v.values[e | g] + v.values[e & g]:
                return False, (e, g)
    return True, None


def null_additive_by_all_pairs(v: Capacity) -> tuple[bool, tuple[int, int] | None]:
    """Literal null-additivity sweep over all null sets and all events."""
    for e in range(v.space.num_subsets):
        if v.values[e] != 0:
            continue
        for g in range(v.space.num_subsets):
            if v.values[e | g] != v.values[g]:
                return False, (e, g)
    return True, None


def p_null_additive_by_all_pairs(
    v: Capacity, P: ProbabilityMeasure
) -> tuple[bool, tuple[int, int] | None]:
    """Literal sweep over all nested pairs with a P-null difference."""
    for f in range(v.space.num_subsets):
        g = f
        while True:  # all subsets of f
            if P.mass(f & ~g) == 0 and v.values[g] != v.values[f]:
                return False, (g, f)
            if g == 0:
                break
            g = (g - 1) & f
    return True, None


def dense_by_member_scan(members, P: ProbabilityMeasure) -> bool:
    """Literal density check scanning every algebra member per event."""
    member_bits = [m.bits for m in members]
    for f in range(P.space.num_subsets):
        if not any(a & ~f == 0 and P.mass(f & ~a) == 0 for a in member_bits):
            return False
    return True


def lebesgue(f: SimpleFunction, P: ProbabilityMeasure) -> Fraction:
    return sum((x * w for x, w in zip(f.values, P.weights)), ZERO)


def space_of(n: int) -> StateSpace:
    return StateSpace(n)
