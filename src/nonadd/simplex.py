"""Exact primal simplex for programs of the form ``max c.x : A x <= b, x >= 0``.

Every integral in this package reduces to such a program with a
nonnegative right-hand side (the integrand), so the all-slack basis is
feasible and a single phase suffices.  ``A`` comes as sparse columns:
each column is ``(mask, entries)``, where bit ``i`` of ``mask`` marks a
row holding 1 and ``entries`` lists ``(row, coefficient)`` for every
other nonzero coefficient.  An event column of the concave integral is
its mask alone, so the n x (2^n - 1) matrix is never formed.

The solver is a revised simplex that works in ints from reading the
program to checking its solution.  The costs are ints ``P`` over one
denominator ``D``.  The slack of row i is one more column, the unit mask
``1 << i`` at cost 0, so all columns share one path.  Each column and
its cost are scaled by ``e``, the common denominator of its entries and
of a Fraction cost (a positive scale keeps Bland's pivots, and no
denominator grows with the number of columns), so the basis ``B`` is an
int matrix; the solver keeps its adjugate ``adj`` and its
determinant ``det > 0``, with ``B^-1 = adj/det`` (Edmonds 1967).  Row i
of ``adj`` carries one more entry, row i of ``adj (rhs*db)``, where
``db`` is the common denominator of ``rhs``.  A pivot on row l with
``d = adj (e*A_e)`` keeps row l and turns every other row into
``(d_l*row_i - d_i*row_l) // det``, an exact division (Bareiss 1968);
then ``det = d_l``.  The duals are ``Y/(D*det)`` with ``Y = P_B adj``
in ints, and the same pivot updates ``Y`` in O(m) from the entering
column's price ``s = Y.(e*A_e)``, which the scan already holds: as
``P_B.d = s``, ``Y`` becomes ``(d_l*Y - s*row_l) // det + P_e*row_l``.

Columns are priced on demand, one at a time in index order: column j
enters when ``P_j*det > Y.(e*A_j)``, both sides over ``D*det``.  ``Y``
summed over a mask is that of the mask without its lowest bit, priced
earlier in the same scan, plus one entry of ``Y``.  Bland's rule keeps
the pivot sequence finite.  At optimality the primal and dual values,
both over ``D*det*db``, must be equal ints, an exact certificate; only
then are the value, the point and the duals made ``Fraction``s.  The
solution also names its support, the structural columns basic at a
nonzero value, so a caller reads at most m entries of ``x``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from numbers import Rational
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
    objective: Sequence[int | Fraction],
    columns: Sequence[tuple[int, Sequence[tuple[int, Fraction]]]],
    rhs: Sequence[Fraction],
    denominator: int = 1,
) -> LPSolution:
    """Maximize ``objective . x / denominator`` under ``A x <= rhs``, ``x >= 0``.

    Column ``j`` of ``A`` is ``columns[j] = (mask, entries)``: 1 in each
    row ``i`` with bit ``i`` of ``mask`` set, plus ``a`` in row ``i`` for
    each ``(i, a)`` of ``entries``; every other coefficient is 0.  There is
    one row per ``rhs`` entry, and ``rhs >= 0`` componentwise is required.
    The costs are ints or Fractions, all over a positive int ``denominator``.

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
    if type(denominator) is not int or denominator < 1:
        raise ValueError(f"denominator {denominator!r} is not a positive int")

    # The program, read once into parallel lists: each column's mask, and
    # its cost over D and entries times e, the common denominator of its
    # entries and of a Fraction cost, as P*e, e and (rows, int entries); a
    # mask alone at an int cost has e = 1 and no entries.
    masks = [mask for mask, _ in columns]
    if masks and (min(masks) < 0 or max(masks) >> m):
        j = next(j for j, mask in enumerate(masks) if mask < 0 or mask >> m)
        raise ValueError(f"column {j} has a row outside 0..{m - 1}")
    entries = [col for _, col in columns]
    P = [*objective] + [0] * m  # the slacks' costs last
    # The slack of row i is column nv + i: the unit mask 1 << i at cost 0,
    # so it is priced after every structural column and enters iff Y_i < 0.
    masks += [1 << i for i in range(m)]
    E = [1] * (nv + m)
    ints = [()] * (nv + m)
    if not all(type(p) is int for p in P):  # a cost p/q scales its column by q
        if not all(issubclass(kind, Rational) for kind in {*map(type, P)}):
            raise ValueError("a cost is not an int or a Fraction")
        P, E = map(list, zip(*(p.as_integer_ratio() for p in P)))
        ints = [((), ()) if e > 1 else () for e in E]  # the mask priced times q
    for j in compress(range(nv), entries):
        col = [(i, a.as_integer_ratio()) for i, a in entries[j] if a]
        if not col:
            continue
        rows, coefs = zip(*col)
        if min(rows) < 0 or max(rows) >= m:
            raise ValueError(f"column {j} has a row outside 0..{m - 1}")
        e = math.lcm(E[j], *(q for _, q in coefs))
        P[j] *= e // E[j]
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
    det = 1
    big = [0] * m  # Y = P_B adj, the duals times D*det
    basis = list(range(nv, nv + m))

    max_pivots = 50 * (2 * m + nv) + 10_000  # safety net; Bland terminates
    pivots = 0
    while True:
        by_bit = {1 << i: a for i, a in enumerate(big)}
        by_bit[0] = 0  # mask 0 sums to 0
        sums = defaultdict(type(None))  # Y summed over each mask priced
        sums[0] = 0
        entering = -1
        for j, mask in enumerate(masks):
            rest = mask & (mask - 1)  # the mask less its lowest bit
            s = sums[rest]
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
                s *= E[j]
                if col[0]:
                    s += sum(map(mul, map(big.__getitem__, col[0]), col[1]))
            if P[j] * det > s:
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

        # The same update for Y: P_B.d is s, so the old basic columns give
        # (d_l*Y - s*row_l) // det, and the entering one P_e*row_l.
        pe = P[entering]
        big = [(dl * a - s * b) // det + pe * b for a, b in zip(big, pivot_row)]
        det = dl
        basis[leaving] = entering

        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("pivot limit exceeded; anti-cycling rule broken?")

    # Strong duality in ints: P_B B^-1 b and Y.b, both over D*det*db
    # (non-basic variables are 0, so the primal value sums the basic ones).
    primal = sum(P[var] * row[m] for var, row in zip(basis, adj))
    dual = sum(map(mul, big, rb))
    if primal != dual:
        raise RuntimeError(f"strong duality violated: primal {primal} vs dual {dual}")
    support = sorted(var for var, row in zip(basis, adj) if var < nv and row[m])
    x = [Fraction(0)] * nv
    for var, row in zip(basis, adj):
        if var < nv:
            x[var] = Fraction(E[var] * row[m], det * db)
    dy = denominator * det
    duals = tuple(Fraction(a, dy) for a in big)
    return LPSolution(Fraction(primal, dy * db), tuple(x), duals, pivots, tuple(support))
