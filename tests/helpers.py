"""Shared test utilities: brute-force oracles and exhaustive enumerations.

Everything here re-derives expected values by the most literal method
available (direct quantifier sweeps, survival-function scans), so the
library paths are checked against independent computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nonadd import Capacity, ProbabilityMeasure, SimpleFunction, StateSpace
from nonadd.simplex import LPSolution, UnboundedProgramError

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


def sparse_columns(
    rows: Sequence[Sequence[Fraction]], nv: int
) -> list[tuple[int, tuple[tuple[int, Fraction], ...]]]:
    """The ``nv`` columns of dense ``rows`` in ``solve_max``'s ``(mask, entries)`` form."""
    columns = []
    for j in range(nv):
        column = [row[j] for row in rows]
        mask = sum(1 << i for i, a in enumerate(column) if a == 1)
        columns.append((mask, tuple((i, a) for i, a in enumerate(column) if a and a != 1)))
    return columns


def dense_solve_max(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPSolution:
    """Dense-tableau simplex under Bland's rule: the reference for ``solve_max``.

    Every pivot updates the whole tableau, slack identity and reduced-cost
    row included, so it shares no pricing or basis code with the revised
    simplex; both must pick the same pivots and return the same
    :class:`LPSolution`.
    """
    m = len(rows)
    nv = len(objective)
    if len(rhs) != m:
        raise ValueError("one rhs entry per constraint row required")
    for i, b in enumerate(rhs):
        if b < 0:
            raise ValueError(f"rhs[{i}] = {b} is negative")
    ncols = nv + m

    # Dense tableau: one list per constraint, slack identity appended,
    # rhs in the last position.  `red` is the reduced-cost row.
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = list(rows[i])
        if len(row) != nv:
            raise ValueError("constraint row length mismatch")
        row.extend(Fraction(1) if j == i else ZERO for j in range(m))
        row.append(rhs[i])
        tableau.append(row)
    red = list(objective) + [ZERO] * m
    basis = list(range(nv, nv + m))

    max_pivots = 50 * (m + ncols) + 10_000  # safety net; Bland terminates
    pivots = 0
    while True:
        entering = -1
        for j in range(ncols):
            if red[j] > 0:
                entering = j  # Bland: smallest index with positive reduced cost
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise UnboundedProgramError("no blocking constraint for entering column")

        pivot_row = tableau[leaving]
        piv = pivot_row[entering]
        if piv != 1:
            inv = 1 / piv
            tableau[leaving] = pivot_row = [x * inv for x in pivot_row]
        for i in range(m):
            if i != leaving:
                factor = tableau[i][entering]
                if factor:
                    row = tableau[i]
                    tableau[i] = [a - factor * b for a, b in zip(row, pivot_row)]
        factor = red[entering]
        if factor:
            red = [a - factor * b for a, b in zip(red, pivot_row)]
        basis[leaving] = entering

        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("pivot limit exceeded; anti-cycling rule broken?")

    x = [ZERO] * nv
    for i, var in enumerate(basis):
        if var < nv:
            x[var] = tableau[i][-1]
    duals = tuple(-red[nv + i] for i in range(m))
    value = sum((c * xi for c, xi in zip(objective, x)), ZERO)
    dual_value = sum((y * b for y, b in zip(duals, rhs)), ZERO)
    if value != dual_value:
        raise RuntimeError(
            f"strong duality violated: primal {value} vs dual {dual_value}"
        )
    return LPSolution(value, tuple(x), duals, pivots)
