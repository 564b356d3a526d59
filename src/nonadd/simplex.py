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
``dy = dc*det``.  The same pivot updates ``Y`` in O(m) from the entering
column's price ``s = Y.(e*A_e)``, which the scan already holds: as
``sum_i c'_i*dc*d_i = s``, ``Y`` becomes ``(d_l*Y - s*row_l) // det +
c'_e*dc*row_l``.  The update is taken over ``L = lcm(dc, q_e)``, with
``q_e`` the entering cost's denominator, so that ``c'_e*L`` is an int;
``Y`` is then divided exactly by ``L // dc'``, ``dc'`` being the common
denominator of the new basic ``c'``.

Columns are priced on demand, one at a time in index order: with ``c_j =
p_j/q_j``, column j enters when ``p_j*dy > q_j*Y.A_j``, where each
column's entries are scaled to ints by their own common denominator.
``Y`` summed over a mask is that of the mask without its lowest bit,
priced earlier in the same scan, plus one entry of ``Y``.  Bland's rule
keeps the pivot sequence finite.  At optimality the primal and dual
values, both times ``dy*db``, must be equal ints, an exact certificate;
only then are the value, the point and the duals made ``Fraction``s.
The solution also names its support, the structural columns basic at a
nonzero value, so a caller reads at most m entries of ``x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

from .sets import states_of


class UnboundedProgramError(RuntimeError):
    """The objective can grow without bound (never the case for integrals)."""


@dataclass(frozen=True)
class LPSolution:
    """Optimal primal point, exact dual certificate, and the shared value.

    ``support`` lists the indices ``j`` with ``x[j] != 0`` in ascending
    order; they are basic, so there are at most one per row.
    """

    value: Fraction
    x: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]
    pivots: int
    support: tuple[int, ...]


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
    if m and min(rhs) < 0:
        i = next(i for i, b in enumerate(rhs) if b < 0)
        raise ValueError(f"rhs[{i}] = {rhs[i]} is negative")

    # The program, read once into parallel lists: each column's mask and,
    # for pricing and the basis, c_j = p/q with the entries times their
    # common denominator e, as p*e, q, e and (rows, int entries); a mask
    # alone has e = 1 and no entries.
    masks = [mask for mask, _ in columns]
    if masks and (min(masks) < 0 or max(masks) >> m):
        j = next(j for j, mask in enumerate(masks) if mask < 0 or mask >> m)
        raise ValueError(f"column {j} has a row outside 0..{m - 1}")
    entries = [col for _, col in columns]
    ratios = [c.as_integer_ratio() for c in objective]
    # The slack of row i is column nv + i: the unit mask 1 << i at cost 0,
    # so it is priced after every structural column and enters iff Y_i < 0.
    masks += [1 << i for i in range(m)]
    P = [p for p, _ in ratios] + [0] * m
    Q = [q for _, q in ratios] + [1] * m
    E = [1] * (nv + m)
    ints = [()] * (nv + m)
    for j in compress(range(nv), entries):
        col = [(i, a.as_integer_ratio()) for i, a in entries[j] if a]
        if not col:
            continue
        rows, coefs = zip(*col)
        if min(rows) < 0 or max(rows) >= m:
            raise ValueError(f"column {j} has a row outside 0..{m - 1}")
        e = math.lcm(*(q for _, q in coefs))
        P[j] *= e
        E[j] = e
        ints[j] = (rows, tuple(p * (e // q) for p, q in coefs))

    # B^-1 = adj/det, where the basis B holds the columns times their e,
    # so adj is an int matrix and det > 0.  Each row carries one more
    # entry, the basic value B^-1 b times det*db, with db the common
    # denominator of rhs, so one update keeps both exact.
    db = math.lcm(*(b.denominator for b in rhs))
    rb = [b.numerator * (db // b.denominator) for b in rhs]  # rhs*db
    adj = [[0] * m + [b] for b in rb]
    for i, row in enumerate(adj):
        row[i] = 1
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
                while bits:  # inline, not states_of: the hottest loop here
                    low = bits & -bits
                    s += by_bit[low]
                    bits ^= low
            s += by_bit[mask ^ rest]
            sums[mask] = s
            col = ints[j]
            if col:
                s = s * E[j] + sum(map(mul, map(big.__getitem__, col[0]), col[1]))
            if P[j] * dy > Q[j] * s:
                entering = j  # Bland: smallest index with positive reduced cost
                break
        if entering < 0:
            break

        # d = adj A'_e = det B^-1 A'_e, for the entering column A'_e times
        # its e; s = Y.A'_e is the entering column's price from the scan
        mask = masks[entering]
        unit = list(states_of(mask))
        d = [sum(map(row.__getitem__, unit)) for row in adj]
        col = ints[entering]
        if col:
            e, (rows, coefs) = E[entering], col
            d = [
                e * a + sum(map(mul, map(row.__getitem__, rows), coefs))
                for a, row in zip(d, adj)
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

        # The same update for Y, over L = lcm(dc, q_e): sum_i c'_i*dc*d_i
        # is s, so the old basic columns give (d_l*Y - s*row_l) // det, and
        # the entering one c'_e*L*row_l.  Then Y is divided exactly by
        # L // dc', with dc' the common denominator of the new basic c'.
        L = math.lcm(dc, Q[entering])
        up, w = L // dc, P[entering] * (L // Q[entering])
        big = [(dl * a - s * b) // det * up + w * b for a, b in zip(big, pivot_row)]
        det = dl
        basis[leaving] = entering
        dc = math.lcm(*map(Q.__getitem__, basis))
        if dc != L:
            down = L // dc
            big = [a // down for a in big]

        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("pivot limit exceeded; anti-cycling rule broken?")

    # Strong duality in ints: c'_B B^-1 b and Y.b, both times dy*db
    # (non-basic variables are 0, so the primal value sums the basic ones).
    primal = sum(P[var] * (dc // Q[var]) * row[m] for var, row in zip(basis, adj))
    dual = sum(map(mul, big, rb))
    if primal != dual:
        raise RuntimeError(f"strong duality violated: primal {primal} vs dual {dual}")
    support = sorted(var for var, row in zip(basis, adj) if var < nv and row[m])
    x = [Fraction(0)] * nv
    for var, row in zip(basis, adj):
        if var < nv:
            x[var] = Fraction(E[var] * row[m], det * db)
    duals = tuple(Fraction(a, dy) for a in big)
    return LPSolution(Fraction(primal, dy * db), tuple(x), duals, pivots, tuple(support))
