"""Exact primal simplex for programs of the form ``max c.x : A x <= b, x >= 0``.

Every integral in this package reduces to such a program with a
nonnegative right-hand side (the integrand), so the all-slack basis is
feasible and a single phase suffices.  ``A`` comes as sparse columns:
each column is ``(mask, entries)``, where bit ``i`` of ``mask`` marks a
row holding 1 and ``entries`` lists ``(row, coefficient)`` for every
other nonzero coefficient.  An event column of the concave integral is
its mask alone, so the n x (2^n - 1) matrix is never formed.

The solver is a revised simplex that works in ints from reading the
program to checking its solution.  The slack of row i is one more
column, the unit mask ``1 << i`` at cost 0, so all columns share one
path.  Each column is scaled by the common denominator ``e`` of its
entries, so the basis ``B`` is an int matrix; the solver keeps its
adjugate ``adj`` and its determinant ``det > 0``, with ``B^-1 =
adj/det`` (Edmonds 1967).  Row i of ``adj`` carries one more entry, row
i of ``adj (rhs*db)``, where ``db`` is the common denominator of
``rhs``.  A pivot on row l with ``d = adj (e*A_e)`` keeps row l and
turns every other row into ``(d_l*row_i - d_i*row_l) // det``, an exact
division (Bareiss 1968); then ``det = d_l``.  The duals are ``Y/dy``:
``c'_j = c_j*e`` is the objective of the scaled column, ``dc`` the
common denominator of the basic ``c'``, ``Y = (c'_B*dc) adj`` and
``dy = dc*det``.

Columns are priced on demand, one at a time in index order: with ``c_j =
p_j/q_j``, column j enters when ``p_j*dy > q_j*Y.A_j``, where each
column's entries are scaled to ints by their own common denominator.
``Y`` summed over a mask is that of the mask without its lowest bit,
priced earlier in the same scan, plus one entry of ``Y``.  Bland's rule
keeps the pivot sequence finite.  At optimality the primal and dual
values, both times ``dy*db``, must be equal ints, an exact certificate;
only then are the value, the point and the duals made ``Fraction``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


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
    checked in ints before any of them is built, so a returned solution is
    certified optimal.

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

    # Each column, read once: its mask and, for pricing and the basis,
    # c_j = p/q with the entries times their common denominator e, as
    # (p*e, q, e, int entries); a mask alone has e = 1 and no entries.
    masks = [mask for mask, _ in columns]
    for j, mask in enumerate(masks):
        if mask < 0 or mask >> m:
            raise ValueError(f"column {j} has a row outside 0..{m - 1}")
    priced = [(*c.as_integer_ratio(), 1, ()) for c in objective]
    for j, (_, col) in enumerate(columns):
        if col:
            col = tuple((i, a) for i, a in col if a)
            if any(not 0 <= i < m for i, _ in col):
                raise ValueError(f"column {j} has a row outside 0..{m - 1}")
            p, q, _, _ = priced[j]
            e = math.lcm(*(a.denominator for _, a in col))
            priced[j] = (p * e, q, e, tuple((i, int(a * e)) for i, a in col))
    # The slack of row i is column nv + i: the unit mask 1 << i at cost 0,
    # so it is priced after every structural column and enters iff Y_i < 0.
    masks += [1 << i for i in range(m)]
    priced += [(0, 1, 1, ())] * m

    # B^-1 = adj/det, where the basis B holds the columns times their e,
    # so adj is an int matrix and det > 0.  Each row carries one more
    # entry, the basic value B^-1 b times det*db, with db the common
    # denominator of rhs, so one update keeps both exact.
    db = math.lcm(*(b.denominator for b in rhs))
    rb = [b.numerator * (db // b.denominator) for b in rhs]  # rhs*db
    adj = [[int(k == i) for k in range(m)] + [rb[i]] for i in range(m)]
    det = dc = 1
    big = [0] * m  # Y = y*dy, the duals over their denominator dy = dc*det
    basis = list(range(nv, nv + m))

    max_pivots = 50 * (2 * m + nv) + 10_000  # safety net; Bland terminates
    pivots = 0
    while True:
        dy = dc * det
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
            if pe * dy > q * s:
                entering = j  # Bland: smallest index with positive reduced cost
                break
        if entering < 0:
            break

        # d = adj A'_e = det B^-1 A'_e, for the entering column A'_e times its e
        _, _, e, col = priced[entering]
        unit = [k for k in range(m) if masks[entering] >> k & 1]
        d = [
            e * sum(row[k] for k in unit) + sum(row[k] * a for k, a in col)
            for row in adj
        ]

        # the minimum ratio row[m]/d_i over d_i > 0, compared crosswise
        leaving = -1
        for i, di in enumerate(d):
            if di > 0:
                if leaving < 0:
                    leaving = i
                    continue
                left, right = adj[i][m] * d[leaving], adj[leaving][m] * di
                if left < right or (left == right and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise UnboundedProgramError("no blocking constraint for entering column")

        # The new basis has det d_l; row l of adj stays, and every other
        # row is divided exactly by the old det (Bareiss), so a row with
        # d_i = 0 is only rescaled by d_l/det.
        dl = d[leaving]
        pivot_row = adj[leaving]
        for i, di in enumerate(d):
            if i == leaving:
                continue
            if di:
                adj[i] = [(dl * a - di * b) // det for a, b in zip(adj[i], pivot_row)]
            elif dl != det:
                adj[i] = [dl * a // det for a in adj[i]]
        det = dl
        basis[leaving] = entering

        # Y = (c'_B*dc) adj, with dc the common denominator of c'_B
        dc = math.lcm(*(priced[var][1] for var in basis))
        big = [0] * m
        for var, row in zip(basis, adj):
            pe, q, _, _ = priced[var]
            if pe:
                w = pe * (dc // q)
                big = [a + w * b for a, b in zip(big, row)]

        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("pivot limit exceeded; anti-cycling rule broken?")

    # Strong duality in ints: c'_B B^-1 b and Y.b, both times dy*db
    # (non-basic variables are 0, so the primal value sums the basic ones).
    primal = sum(
        priced[var][0] * (dc // priced[var][1]) * row[m]
        for var, row in zip(basis, adj)
    )
    dual = sum(a * b for a, b in zip(big, rb))
    if primal != dual:
        raise RuntimeError(f"strong duality violated: primal {primal} vs dual {dual}")
    x = [Fraction(0)] * nv
    for var, row in zip(basis, adj):
        if var < nv:
            x[var] = Fraction(priced[var][2] * row[m], det * db)
    duals = tuple(Fraction(a, dy) for a in big)
    return LPSolution(Fraction(primal, dy * db), tuple(x), duals, pivots)
