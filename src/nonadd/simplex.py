"""Exact primal simplex for programs of the form ``max c.x : A x <= b, x >= 0``.

Every integral in this package reduces to such a program with a
nonnegative right-hand side (the integrand), so the all-slack basis is
feasible and a single phase suffices.  The solver is a revised simplex:
it keeps the m x m basis inverse, the basic values ``B^-1 b`` and the
duals ``y``, and prices the columns on demand, one at a time in index
order, as ``c_j - y.A_j``.  A program with few rows and many columns
(the concave integral has one row per state and one column per event)
thus never updates a column that does not enter.  Arithmetic is pure
:class:`fractions.Fraction`; Bland's rule keeps the pivot sequence
finite, and the duals at optimality are an exact optimality certificate.
"""

from __future__ import annotations

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
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPSolution:
    """Maximize ``objective . x`` subject to ``rows x <= rhs`` and ``x >= 0``.

    Requires ``rhs >= 0`` componentwise.  Returns the optimal ``x``, the
    dual vector ``y`` (one multiplier per constraint row), and their common
    objective value; ``sum(y*rhs) == value`` is asserted before returning,
    so a returned solution is certified optimal.

    Bland's rule fixes the pivots: the entering column is the smallest
    index with a positive reduced cost (the structural columns, then the
    slack of each row), and the leaving row has the minimum ratio, ties
    going to the smaller basic variable.
    """
    m = len(rows)
    nv = len(objective)
    if len(rhs) != m:
        raise ValueError("one rhs entry per constraint row required")
    for i, b in enumerate(rhs):
        if b < 0:
            raise ValueError(f"rhs[{i}] = {b} is negative")
    if any(len(row) != nv for row in rows):
        raise ValueError("constraint row length mismatch")

    # Each column, read once: the rows where it holds 1, and the rows
    # where it holds another nonzero coefficient.
    units: list[tuple[int, ...]] = []
    scaled: list[tuple[tuple[int, Fraction], ...]] = []
    for column in (zip(*rows) if m else [()] * nv):
        units.append(tuple(i for i, a in enumerate(column) if a == 1))
        scaled.append(tuple((i, a) for i, a in enumerate(column) if a and a != 1))

    inverse = [[ONE if k == i else ZERO for k in range(m)] for i in range(m)]
    beta = list(rhs)  # B^-1 b, the values of the basic variables
    y = [ZERO] * m  # c_B B^-1, the duals
    basis = list(range(nv, nv + m))

    max_pivots = 50 * (2 * m + nv) + 10_000  # safety net; Bland terminates
    pivots = 0
    while True:
        entering = -1
        for j in range(nv):
            gain = objective[j]
            for i in units[j]:
                gain -= y[i]
            for i, a in scaled[j]:
                gain -= y[i] * a
            if gain > 0:
                entering = j  # Bland: smallest index with positive reduced cost
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
            d = []
            for row in inverse:
                s = ZERO
                for k in units[entering]:
                    s += row[k]
                for k, a in scaled[entering]:
                    s += row[k] * a
                d.append(s)
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

    x = [ZERO] * nv
    for i, var in enumerate(basis):
        if var < nv:
            x[var] = beta[i]
    duals = tuple(y)
    value = sum((c * xi for c, xi in zip(objective, x)), ZERO)
    dual_value = sum((yi * b for yi, b in zip(duals, rhs)), ZERO)
    if value != dual_value:
        raise RuntimeError(
            f"strong duality violated: primal {value} vs dual {dual_value}"
        )
    return LPSolution(value, tuple(x), duals, pivots)
