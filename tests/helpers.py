"""Shared test utilities: brute-force oracles and exhaustive enumerations.

Everything here re-derives expected values by the most literal method
available (direct quantifier sweeps, survival-function scans), so the
library paths are checked against independent computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nonadd import Capacity, ProbabilityMeasure, PropertyReport, SimpleFunction, StateSpace
from nonadd.integrals import Decomposition, IntegralResult
from nonadd.sets import mask_of, states_of
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
        total += (hi - lo) * v.values[mask_of(x >= hi for x in f.values)]
    return total


def level_scan_choquet(f: SimpleFunction, v: Capacity) -> IntegralResult:
    """The layer-cake integral with its nested witness, in Fractions.

    The distinct positive values sorted ``t_1 > ... > t_K``, each level set
    ``{f >= t_k}`` built by its own scan of the values, weight
    ``t_k - t_{k+1}``, largest level set first: the reference for
    ``choquet_integral``, which sorts the states once over scaled ints.
    """
    levels = sorted({x for x in f.values if x > 0}, reverse=True)
    total = ZERO
    terms = []
    for t, t_next in zip(levels, levels[1:] + [ZERO]):
        bits = mask_of(x >= t for x in f.values)
        total += (t - t_next) * v.values[bits]
        terms.append((t - t_next, bits))
    terms.reverse()
    return IntegralResult(total, Decomposition(tuple(terms)))


def subset_sums_by_low_bit(weights: Sequence) -> list:
    """The sum of ``weights`` over every subset, indexed by mask, by the
    recurrence on the low bit: ``table[mask]`` is the table at ``mask``
    less its lowest state, plus that state's weight.  The reference for
    ``sets.subset_sums``, which builds the table by doubling."""
    table = [weights[0] * 0 if weights else 0] * (1 << len(weights))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    return table


def prime_capacity(n: int) -> Capacity:
    """``v(T) = |T| + 1/p_T``: monotone, one distinct prime denominator per event."""
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
    table = [ZERO] + [
        Fraction(bin(m).count("1")) + Fraction(1, primes[m]) for m in range(1, 1 << n)
    ]
    return Capacity(StateSpace(n), tuple(table))


def maximal_null_sets_by_all_masks(v: Capacity) -> list[int]:
    """Every mask of capacity zero that adding any one state makes positive."""
    full = v.space.num_subsets - 1
    values = v._scaled
    return [
        m
        for m, x in enumerate(values)
        if x == 0 and all(values[m | 1 << k] for k in states_of(full ^ m))
    ]


def convex_by_local_loop(v: Capacity) -> PropertyReport:
    """The local supermodularity loop over every triple ``(A, i, j)``,
    ``A`` ascending, then ``i < j`` outside ``A`` ascending: the first
    ``(A | {i}, A | {j})`` with ``v(A | {i,j}) + v(A) < v(A | {i}) + v(A | {j})``."""
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
                    return PropertyReport(False, (e, base | bj))
    return PropertyReport(True)


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
    support = tuple(j for j, w in enumerate(x) if w)
    return LPSolution(value, tuple(x), duals, pivots, support)
