"""Exact primal simplex for programs of the form ``max c.x : A x <= b, x >= 0``.

Every integral in this package reduces to such a program with a
nonnegative right-hand side (the integrand), so the all-slack basis is
feasible and a single phase suffices.  ``A`` comes as sparse columns:
each column is ``(mask, entries)``, where bit ``i`` of ``mask`` marks a
row holding 1 and ``entries`` lists ``(row, coefficient)`` for every
other nonzero coefficient.  An event column of the concave integral is
its mask alone, so the n x (2^n - 1) matrix is never formed.

The solver is a revised simplex: it keeps the m x m basis inverse, the
basic values ``B^-1 b`` and the duals ``y`` as :class:`fractions.Fraction`,
and prices the columns on demand, one at a time in index order.  Pricing
is in ints: with the duals over their common denominator ``dy`` (``Y =
y*dy``) and ``c_j = p_j/q_j``, column j enters when ``p_j*dy > q_j*Y.A_j``,
where each column's entries are scaled to ints by their own common
denominator.  ``Y`` summed over a mask is that of the mask without its
lowest bit, priced earlier in the same scan, plus one entry of ``Y``.
Bland's rule keeps the pivot sequence finite, and the duals at
optimality are an exact optimality certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedProgramError(RuntimeError):
    """The objective can grow without bound (never the case for integrals)."""


@dataclass(frozen=True)
class LPSolution:
    """Optimal primal point, exact dual certificate, and the shared value."""

    value: Fraction
    x: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]
    pivots: int


def solve_max(
    objective: Sequence[Fraction],
    columns: Sequence[tuple[int, Sequence[tuple[int, Fraction]]]],
    rhs: Sequence[Fraction],
) -> LPSolution:
    """Maximize ``objective . x`` subject to ``A x <= rhs`` and ``x >= 0``.

    Column ``j`` of ``A`` is ``columns[j] = (mask, entries)``: 1 in each
    row ``i`` with bit ``i`` of ``mask`` set, plus ``a`` in row ``i`` for
    each ``(i, a)`` of ``entries``; every other coefficient is 0.  There is
    one row per ``rhs`` entry, and ``rhs >= 0`` componentwise is required.

    Returns the optimal ``x``, the dual vector ``y`` (one multiplier per
    row), and their common objective value; ``sum(y*rhs) == value`` is
    asserted before returning, so a returned solution is certified optimal.

    Bland's rule fixes the pivots: the entering column is the smallest
    index with a positive reduced cost (the structural columns, then the
    slack of each row), and the leaving row has the minimum ratio, ties
    going to the smaller basic variable.
    """
    m = len(rhs)
    nv = len(objective)
    if len(columns) != nv:
        raise ValueError(f"{len(columns)} columns for {nv} objective entries")
    for i, b in enumerate(rhs):
        if b < 0:
            raise ValueError(f"rhs[{i}] = {b} is negative")

    # Each column, read once: its mask, its entries, and, for pricing,
    # c_j = p/q with the entries times their common denominator e, as
    # (p*e, q, e, int entries); a mask alone has e = 1 and no entries.
    masks = [mask for mask, _ in columns]
    for j, mask in enumerate(masks):
        if mask < 0 or mask >> m:
            raise ValueError(f"column {j} has a row outside 0..{m - 1}")
    entries: list[tuple[tuple[int, Fraction], ...]] = [()] * nv
    priced = [(*c.as_integer_ratio(), 1, ()) for c in objective]
    for j, (_, col) in enumerate(columns):
        if col:
            col = entries[j] = tuple((i, a) for i, a in col if a)
            if any(not 0 <= i < m for i, _ in col):
                raise ValueError(f"column {j} has a row outside 0..{m - 1}")
            p, q, _, _ = priced[j]
            e = math.lcm(*(a.denominator for _, a in col))
            priced[j] = (p * e, q, e, tuple((i, int(a * e)) for i, a in col))

    inverse = [[ONE if k == i else ZERO for k in range(m)] for i in range(m)]
    beta = list(rhs)  # B^-1 b, the values of the basic variables
    y = [ZERO] * m  # c_B B^-1, the duals
    basis = list(range(nv, nv + m))

    max_pivots = 50 * (2 * m + nv) + 10_000  # safety net; Bland terminates
    pivots = 0
    while True:
        dy = math.lcm(*(a.denominator for a in y))
        big = [a.numerator * (dy // a.denominator) for a in y]  # Y = y * dy
        by_bit = {1 << i: a for i, a in enumerate(big)}
        by_bit[0] = 0  # mask 0 sums to 0
        sums = {0: 0}  # Y summed over each mask priced in this scan
        entering = -1
        for j, mask in enumerate(masks):
            rest = mask & (mask - 1)  # the mask less its lowest bit
            s = sums.get(rest)
            if s is None:
                s, bits = 0, rest
                while bits:
                    low = bits & -bits
                    s += by_bit[low]
                    bits ^= low
            s += by_bit[mask ^ rest]
            sums[mask] = s
            pe, q, e, col = priced[j]
            if col:
                s = s * e + sum(big[i] * a for i, a in col)
            top = pe * dy - q * s
            if top > 0:
                entering = j  # Bland: smallest index with positive reduced cost
                gain = Fraction(top, q * e * dy)
                break
        else:
            for i in range(m):
                if y[i] < 0:  # the reduced cost of slack i is -y[i]
                    entering, gain = nv + i, -y[i]
                    break
        if entering < 0:
            break

        # d = B^-1 A_e, the entering column in the current basis
        if entering < nv:
            unit = [k for k in range(m) if masks[entering] >> k & 1]
            other = entries[entering]
            d = []
            for row in inverse:
                terms = [row[k] for k in unit if row[k]]  # B^-1 is mostly zeros
                d.append(sum(terms + [row[k] * a for k, a in other], ZERO))
        else:
            d = [row[entering - nv] for row in inverse]

        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(m):
            coeff = d[i]
            if coeff > 0:
                ratio = beta[i] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise UnboundedProgramError("no blocking constraint for entering column")

        piv = d[leaving]
        pivot_row = inverse[leaving]
        if piv != 1:
            inv = 1 / piv
            inverse[leaving] = pivot_row = [a * inv for a in pivot_row]
            beta[leaving] *= inv
        for i in range(m):
            factor = d[i]
            if i != leaving and factor:
                inverse[i] = [a - factor * b for a, b in zip(inverse[i], pivot_row)]
                beta[i] -= factor * beta[leaving]
        y = [a + gain * b for a, b in zip(y, pivot_row)]
        basis[leaving] = entering

        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("pivot limit exceeded; anti-cycling rule broken?")

    # Non-basic variables are 0, so the primal value sums the basic ones.
    x = [ZERO] * nv
    value = ZERO
    for i, var in enumerate(basis):
        if var < nv:
            x[var] = beta[i]
            value += objective[var] * beta[i]
    duals = tuple(y)
    dual_value = sum((yi * b for yi, b in zip(duals, rhs)), ZERO)
    if value != dual_value:
        raise RuntimeError(
            f"strong duality violated: primal {value} vs dual {dual_value}"
        )
    return LPSolution(value, tuple(x), duals, pivots)
