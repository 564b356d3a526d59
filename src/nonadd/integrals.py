"""The four non-additive integrals and the totally balanced cover.

* :func:`choquet_integral`: layer-cake value of a nonnegative function
  against a capacity, computed exactly from the finitely many level sets.
* :func:`concave_integral`: the best value of any subdecomposition
  ``sum(w_i * indicator(F_i)) <= f``; a linear program over one weight per
  nonempty subset, solved by exact simplex with a dual certificate.
* :func:`psa_integral`: the integral available to someone who only knows
  the probabilities of the members of a partition-generated algebra;
  closed form: each block contributes its minimum times its mass.
* :func:`psp_integral`: the integral available to someone who only knows
  the expectations of a family of functions; a linear program with one
  weight per known function.
* :func:`balanced_cover`: the capacity whose value at each event is the
  concave integral of that event's indicator; integrating against the
  cover changes nothing.
* :func:`brute_force_cav_oracle`: an independent re-derivation of the
  concave value by exhaustive vertex enumeration of the dual polyhedron,
  kept deliberately free of the simplex code path.

Suprema are attained here: on a finite space each defining supremum is a
finite LP, so every result carries a witness decomposition achieving it.
Unbounded integrals cannot arise (finite space, finite values); that case
is structurally excluded rather than handled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .capacity import Capacity, ProbabilityMeasure, _as_fraction
from .sets import (
    Partition,
    StateSpace,
    same_space,
    submasks,
    subset_sums,
)
from .simplex import solve_max

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SimpleFunction:
    """Nonnegative function on the states, one exact value per state."""

    space: StateSpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(_as_fraction(x) for x in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.n:
            raise ValueError("one value per state required")
        for k, x in enumerate(values):
            if x < 0:
                raise ValueError(f"negative value at state {k}")

    @classmethod
    def indicator(cls, space: StateSpace, bits: int) -> SimpleFunction:
        return cls(space, tuple(ONE if bits >> k & 1 else ZERO for k in space.states()))

    @classmethod
    def constant(cls, space: StateSpace, c: Fraction | int | str) -> SimpleFunction:
        c = _as_fraction(c)
        return cls(space, tuple(c for _ in space.states()))

    def __call__(self, state: int) -> Fraction:
        return self.values[state]

    def __add__(self, other: SimpleFunction) -> SimpleFunction:
        same_space(self, other)
        return SimpleFunction(
            self.space, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scale(self, c: Fraction | int) -> SimpleFunction:
        c = _as_fraction(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return SimpleFunction(self.space, tuple(c * x for x in self.values))

    def __le__(self, other: SimpleFunction) -> bool:
        same_space(self, other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def level_set_bits(self, t: Fraction) -> int:
        """Mask of ``{x : f(x) >= t}``."""
        bits = 0
        for k, x in enumerate(self.values):
            if x >= t:
                bits |= 1 << k
        return bits

    def expectation(self, P: ProbabilityMeasure) -> Fraction:
        """The ordinary (additive) integral against ``P``."""
        same_space(self, P)
        return sum((x * w for x, w in zip(self.values, P.weights)), ZERO)


@dataclass(frozen=True)
class Decomposition:
    """Weighted family of events witnessing an integral value.

    ``terms`` is a tuple of ``(weight, mask)`` pairs with positive weights.
    Whether the weighted indicator sum stays below a given function is a
    property of the pair, checked via :meth:`fits_under`.
    """

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        terms = tuple((_as_fraction(w), int(m)) for w, m in self.terms)
        object.__setattr__(self, "terms", terms)
        for w, _ in terms:
            if w <= 0:
                raise ValueError("weights must be strictly positive")

    def indicator_sum(self, space: StateSpace) -> tuple[Fraction, ...]:
        acc = [ZERO] * space.n
        for w, m in self.terms:
            for k in range(space.n):
                if m >> k & 1:
                    acc[k] += w
        return tuple(acc)

    def fits_under(self, f: SimpleFunction) -> bool:
        return all(a <= b for a, b in zip(self.indicator_sum(f.space), f.values))

    def weight_against(self, v: Capacity) -> Fraction:
        return sum((w * v.values[m] for w, m in self.terms), ZERO)


@dataclass(frozen=True)
class FunctionDecomposition:
    """Weighted family of functions witnessing a known-expectations integral."""

    terms: tuple[tuple[Fraction, SimpleFunction], ...]

    def __post_init__(self) -> None:
        terms = tuple((_as_fraction(w), g) for w, g in self.terms)
        object.__setattr__(self, "terms", terms)
        for w, _ in terms:
            if w <= 0:
                raise ValueError("weights must be strictly positive")

    def combination(self, space: StateSpace) -> tuple[Fraction, ...]:
        acc = [ZERO] * space.n
        for w, g in self.terms:
            for k, x in enumerate(g.values):
                acc[k] += w * x
        return tuple(acc)

    def fits_under(self, f: SimpleFunction) -> bool:
        return all(a <= b for a, b in zip(self.combination(f.space), f.values))

    def weight_against(self, P: ProbabilityMeasure) -> Fraction:
        return sum((w * g.expectation(P) for w, g in self.terms), ZERO)


@dataclass(frozen=True)
class IntegralResult:
    """Exact integral value plus the certificates that pin it down.

    ``witness`` achieves the value from below (a feasible decomposition
    whose weighted capacity sum equals ``value``); ``dual_witness``, when
    present, is a per-state vector certifying optimality from above
    (strong duality: its pairing with the integrand equals ``value``).
    """

    value: Fraction
    witness: Decomposition | FunctionDecomposition | None = None
    dual_witness: tuple[Fraction, ...] | None = None


def choquet_integral(f: SimpleFunction, v: Capacity) -> IntegralResult:
    """Layer-cake integral of ``f`` against ``v``.

    With the distinct positive values of ``f`` sorted ``t_1 > ... > t_K``,
    the value is ``sum_k (t_k - t_{k+1}) * v({f >= t_k})`` with
    ``t_{K+1} = 0``, the exact area under ``t -> v({f >= t})``.  The
    witness is the nested decomposition with those weights, listed largest
    level set first.
    """
    same_space(f, v)
    levels = sorted({x for x in f.values if x > 0}, reverse=True)
    total = ZERO
    terms = []
    for idx, t in enumerate(levels):
        t_next = levels[idx + 1] if idx + 1 < len(levels) else ZERO
        w = t - t_next
        bits = f.level_set_bits(t)
        total += w * v.values[bits]
        terms.append((w, bits))
    terms.reverse()  # lowest threshold = largest set first: decreasing chain
    return IntegralResult(total, Decomposition(tuple(terms)))


def concave_integral(f: SimpleFunction, v: Capacity) -> IntegralResult:
    """Best subdecomposition value: the concave integral of ``f`` against ``v``.

    Solves ``max sum_T w_T v(T)`` subject to, at every state ``x``,
    ``sum_{T containing x} w_T <= f(x)`` and ``w >= 0``, one variable per
    nonempty subset.  Always feasible (``w = 0``) and bounded (``f`` and
    ``v`` finite).  Returns the optimal decomposition and the dual vector
    ``y`` solving ``min sum_x y_x f(x)`` with ``sum_{x in T} y_x >= v(T)``;
    primal and dual values agree exactly, certifying optimality.
    """
    return _best_decomposition(f, v, range(1, f.space.num_subsets))


def _best_decomposition(
    f: SimpleFunction, v: Capacity, masks: Sequence[int]
) -> IntegralResult:
    """``max sum_T w_T v(T)`` under ``sum_{T containing x} w_T <= f(x)``,
    one LP column per mask."""
    same_space(f, v)
    objective = [v.values[m] for m in masks]
    columns = [(m, ()) for m in masks]
    return _lp_integral(f, v, objective, columns, masks, Decomposition)


def _lp_integral(
    f: SimpleFunction,
    known: Capacity | ProbabilityMeasure,
    objective: list[Fraction],
    columns: list[tuple[int, tuple[tuple[int, Fraction], ...]]],
    targets: Sequence,
    witness_type: type[Decomposition] | type[FunctionDecomposition],
) -> IntegralResult:
    """``max objective . w`` under ``columns . w <= f`` and ``w >= 0``, replayed.

    The one LP path of the integrals.  The witness pairs each nonzero
    weight with its column's target (an event mask, or a known function);
    it must fit under ``f`` and weigh the optimal value against ``known``
    (the capacity, or the measure), or the basis is inconsistent.
    ``solve_max`` is looked up in this module at each call, so a wrapper
    set on the module later (a tracer's, a test's) sees every solve.
    """
    sol = solve_max(objective, columns, list(f.values))
    witness = witness_type(tuple((w, t) for w, t in zip(sol.x, targets) if w != 0))
    if not witness.fits_under(f) or witness.weight_against(known) != sol.value:
        raise RuntimeError("simplex returned an inconsistent optimal basis")
    return IntegralResult(sol.value, witness, dual_witness=sol.duals)


def verify_dual_certificate(
    result: IntegralResult, f: SimpleFunction, v: Capacity
) -> bool:
    """Replay a concave-integral dual certificate against its definition.

    Checks that ``y`` has one entry per state, ``y >= 0``, ``sum_{x in T}
    y_x >= v(T)`` for every ``T`` (one subset-sum pass), and ``sum_x y_x
    f(x) == value``.  ``f`` and ``v`` must share one state space.
    """
    same_space(f, v)
    y = result.dual_witness
    if y is None or len(y) != f.space.n or any(c < 0 for c in y):
        return False
    if any(s < x for s, x in zip(subset_sums(y), v.values)):
        return False
    return sum((c * x for c, x in zip(y, f.values)), ZERO) == result.value


def balanced_cover(v: Capacity) -> Capacity:
    """The totally balanced cover: each event's concave integral of itself.

    The cover dominates ``v`` pointwise, is itself a capacity, and leaves
    every concave integral unchanged; applying it twice is the same as
    applying it once.  The LP for ``A`` offers only the subsets of ``A``
    as columns: every state outside ``A`` has right-hand side 0, so any
    weight on a subset that meets such a state is forced to 0, and the
    optimal value is the one the LP over all subsets reaches.
    """
    table = [ZERO] * v.space.num_subsets
    for bits in range(1, v.space.num_subsets):
        table[bits] = _best_decomposition(
            SimpleFunction.indicator(v.space, bits), v, submasks(bits)
        ).value
    return Capacity(v.space, tuple(table))


def psa_integral(
    f: SimpleFunction, P: ProbabilityMeasure, partition: Partition
) -> IntegralResult:
    """Integral under partition-limited information.

    Only the probabilities of unions of partition blocks are known; the
    value reduces to the closed form ``sum_blocks min(f on block) * P(block)``.
    Coincides exactly with both the Choquet and the concave integral taken
    against the capacity induced by ``(P, partition)``.
    """
    same_space(f, P, partition)
    total = ZERO
    terms = []
    for block in partition.blocks:
        m = min(f.values[k] for k in block)
        if m > 0:
            terms.append((m, block.bits))
        total += m * P.mass(block.bits)
    return IntegralResult(total, Decomposition(tuple(terms)))


def psp_integral(
    f: SimpleFunction, P: ProbabilityMeasure, family: Sequence[SimpleFunction]
) -> IntegralResult:
    """Integral under known-expectations information.

    The decision maker knows ``int g dP`` for each ``g`` in ``family`` and
    values ``f`` by the best positive combination staying below it:
    ``max sum_i w_i int g_i dP`` with ``sum_i w_i g_i <= f`` pointwise.
    One LP variable per family member.
    """
    family = tuple(family)
    if not family:
        raise ValueError("the known-function family must be nonempty")
    same_space(f, P, *family)
    objective = [g.expectation(P) for g in family]
    columns = [
        (
            sum(1 << x for x, a in enumerate(g.values) if a == 1),
            tuple((x, a) for x, a in enumerate(g.values) if a and a != 1),
        )
        for g in family
    ]
    return _lp_integral(f, P, objective, columns, family, FunctionDecomposition)


def induced_psp_capacity(
    P: ProbabilityMeasure, family: Sequence[SimpleFunction]
) -> Capacity:
    """Capacity induced by known-expectations information.

    Tabulates the known-expectations integral of every event's indicator.
    The result is validated as a capacity; unlike the partition case it
    need not be convex, so the Choquet and concave integrals against it
    can differ.  The LP for ``A`` keeps only the members that vanish
    outside ``A``: every state outside ``A`` has right-hand side 0 and
    every member is nonnegative, so the weight of a member positive there
    is forced to 0.  With no member kept the value is 0.
    """
    family = tuple(family)
    if not family:
        raise ValueError("the known-function family must be nonempty")
    same_space(P, *family)
    supports = [sum(1 << k for k, x in enumerate(g.values) if x) for g in family]
    table = [ZERO] * P.space.num_subsets
    for bits in range(1, P.space.num_subsets):
        kept = [g for g, s in zip(family, supports) if not s & ~bits]
        if kept:
            table[bits] = psp_integral(
                SimpleFunction.indicator(P.space, bits), P, kept
            ).value
    return Capacity(P.space, tuple(table))


def _solve_square_system(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None when singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_force_cav_oracle(f: SimpleFunction, v: Capacity) -> Fraction:
    """Concave integral by exhaustive dual vertex enumeration (tiny spaces).

    The dual polyhedron ``{y >= 0 : sum_{x in T} y_x >= v(T) for all T}``
    is pointed and nonempty, and the objective ``sum y_x f(x)`` is bounded
    below, so the minimum is attained at a vertex.  Every vertex solves
    some ``n`` of the ``2**n - 1 + n`` constraints as equalities; this
    enumerates all such square systems, keeps the feasible solutions, and
    returns the minimal objective.  Shares no code with the simplex path.
    Refuses ``n > 4``; the enumeration is the point, not the scale.
    """
    same_space(f, v)
    n = f.space.n
    if n > 4:
        raise ValueError("brute-force oracle is limited to n <= 4")
    # Constraint list in ">= rhs" form: cover rows then sign rows.
    con_rows: list[list[Fraction]] = []
    con_rhs: list[Fraction] = []
    for t in range(1, f.space.num_subsets):
        con_rows.append([ONE if t >> x & 1 else ZERO for x in range(n)])
        con_rhs.append(v.values[t])
    for x in range(n):
        con_rows.append([ONE if k == x else ZERO for k in range(n)])
        con_rhs.append(ZERO)

    best: Fraction | None = None
    for picks in combinations(range(len(con_rows)), n):
        y = _solve_square_system(
            [con_rows[i] for i in picks], [con_rhs[i] for i in picks]
        )
        if y is None:
            continue
        feasible = all(
            sum((r * c for r, c in zip(row, y)), ZERO) >= b
            for row, b in zip(con_rows, con_rhs)
        )
        if not feasible:
            continue
        value = sum((fx * c for fx, c in zip(f.values, y)), ZERO)
        if best is None or value < best:
            best = value
    if best is None:
        raise RuntimeError("dual polyhedron unexpectedly has no vertex")
    return best


def chain_restricted_value(
    f: SimpleFunction, v: Capacity, chain: Iterable[int]
) -> Fraction:
    """Best decomposition value over one fixed nested family of events.

    Used to probe the definition of the layer-cake integral as a supremum
    over nested decompositions: for any chain the value stays below the
    layer formula, with equality when the chain is the level sets of ``f``.
    """
    masks = list(chain)
    for a, b in zip(masks, masks[1:]):
        if b & ~a:
            raise ValueError("events must be nested decreasingly")
    return _best_decomposition(f, v, [m for m in masks if m]).value
