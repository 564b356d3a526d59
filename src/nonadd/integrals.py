"""The four non-additive integrals and the totally balanced cover.

* :func:`choquet_integral`: layer-cake value of a nonnegative function
  against a capacity, computed exactly from the finitely many level sets,
  read off one sort of the states by value.
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
  cover changes nothing.  Each event is certified before it is solved: a
  split of two smaller events bounds it from below, and a smaller event's
  dual extended by one state bounds it from above; only an event where
  the two bounds do not meet runs its LP, and a convex table runs none.
* :func:`brute_force_cav_oracle`: an independent re-derivation of the
  concave value by exhaustive vertex enumeration of the dual polyhedron,
  kept deliberately free of the simplex code path.

Suprema are attained here: on a finite space each defining supremum is a
finite LP, so every result carries a witness decomposition achieving it.
Unbounded integrals cannot arise (finite space, finite values); that case
is structurally excluded rather than handled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby, repeat
from operator import add, lt, mul, sub
from typing import Iterable, Sequence

from .capacity import Capacity, ProbabilityMeasure, _scale
from .sets import (
    Partition,
    StateSpace,
    check_mask,
    check_size,
    check_values,
    mask_of,
    same_space,
    states_of,
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
        values = check_values(self.values, "values", self.space.n)
        object.__setattr__(self, "values", values)

    @classmethod
    def indicator(cls, space: StateSpace, bits: int) -> SimpleFunction:
        check_mask(bits, space)
        return cls(space, tuple(ONE if bits >> k & 1 else ZERO for k in space.states()))

    @classmethod
    def constant(cls, space: StateSpace, c: Fraction | int | str) -> SimpleFunction:
        return cls(space, (c,) * space.n)

    def __call__(self, state: int) -> Fraction:
        return self.values[check_size(state, "state", 0, self.space.n - 1)]

    def __add__(self, other: SimpleFunction) -> SimpleFunction:
        same_space(self, other)
        return SimpleFunction(
            self.space, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scale(self, c: Fraction | int) -> SimpleFunction:
        (c,) = check_values((c,), "a scale factor")
        return SimpleFunction(self.space, tuple(c * x for x in self.values))

    def __le__(self, other: SimpleFunction) -> bool:
        same_space(self, other)
        return all(a <= b for a, b in zip(self.values, other.values))

    @cached_property
    def _scaled(self) -> tuple[tuple, int]:
        """The values over one common denominator, ``(scaled, common)`` as
        :func:`~nonadd.capacity._scale` gives them: ints with their factor,
        or past its budget the Fractions with 1.  Made on first use."""
        return _scale(self.values)

    def expectation(self, P: ProbabilityMeasure) -> Fraction:
        """The ordinary (additive) integral against ``P``: one sum over both
        scaled tuples, divided once."""
        same_space(self, P)
        (values, fc), (weights, pc) = self._scaled, P._scaled
        return Fraction(sum(map(mul, values, weights)), fc * pc)


@dataclass(frozen=True)
class Decomposition:
    """Weighted family of events witnessing an integral value.

    ``terms`` is a tuple of ``(weight, mask)`` pairs with positive weights.
    Whether the weighted indicator sum stays below a given function is a
    property of the pair, checked via :meth:`fits_under`.
    """

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        masks = [check_size(m, "mask", 0) for _, m in terms]
        object.__setattr__(self, "terms", _positive(terms, masks))

    @classmethod
    def _built(cls, terms: tuple[tuple[Fraction, int], ...]) -> Decomposition:
        """A witness the library has just built, positive ``Fraction``
        weights on in-range masks, kept without re-checking them; a caller's
        terms go through ``Decomposition(...)``."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        return self

    @cached_property
    def _numerators(self) -> tuple[list[int], int]:
        """The weights over their least common denominator ``d``: each
        weight's numerator over ``d``, and ``d``."""
        d = math.lcm(*(w.denominator for w, _ in self.terms))
        return [w.numerator * (d // w.denominator) for w, _ in self.terms], d

    def fits_under(self, f: SimpleFunction) -> bool:
        """Is the weighted indicator sum at most ``f`` at every state?

        The sum is taken per state in ints over the weights' ``d``, and
        ``acc / d <= scaled / common`` is read as ``acc * common <= scaled * d``
        against ``f``'s scaled values.
        """
        check_mask(max((m for _, m in self.terms), default=0), f.space)
        scaled, common = f._scaled
        nums, d = self._numerators
        acc = [0] * f.space.n
        for p, (_, m) in zip(nums, self.terms):
            for k in states_of(m):
                acc[k] += p
        return all(a * common <= b * d for a, b in zip(acc, scaled))

    def weight_against(self, v: Capacity) -> Fraction:
        """``sum(w * v(m))``, one int sum over the weights' ``d`` and ``v``'s
        common denominator."""
        check_mask(max((m for _, m in self.terms), default=0), v.space)
        nums, d = self._numerators
        total = sum(p * v._scaled[m] for p, (_, m) in zip(nums, self.terms))
        return Fraction(total, d * v._common)


@dataclass(frozen=True)
class FunctionDecomposition:
    """Weighted family of functions witnessing a known-expectations integral."""

    terms: tuple[tuple[Fraction, SimpleFunction], ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", _positive(terms, [g for _, g in terms]))

    @cached_property
    def _numerators(self) -> tuple[list[tuple[int, tuple]], int]:
        """The terms over one ``D``, the lcm of each weight's denominator
        times its function's common denominator: per term, the int that
        carries ``g``'s scaled values to ``w * g`` over ``D``, with those
        values; and ``D``."""
        parts = [(w, *g._scaled) for w, g in self.terms]
        d = math.lcm(*(w.denominator * c for w, _, c in parts))
        return [(w.numerator * (d // (w.denominator * c)), s) for w, s, c in parts], d

    def fits_under(self, f: SimpleFunction) -> bool:
        """Is ``sum(w * g)`` at most ``f`` at every state?  The sum is taken
        per state in ints over ``D``, and read against ``f`` as
        ``acc * common <= scaled * D``."""
        same_space(f, *(g for _, g in self.terms))
        scaled, common = f._scaled
        nums, d = self._numerators
        acc = [0] * f.space.n
        for p, values in nums:
            acc = list(map(add, acc, map(mul, values, repeat(p))))
        return all(a * common <= b * d for a, b in zip(acc, scaled))

    def weight_against(self, P: ProbabilityMeasure) -> Fraction:
        """``sum(w * int g dP)``, each expectation one int sum against
        ``P``'s scaled weights, all over ``D``, divided once."""
        same_space(P, *(g for _, g in self.terms))
        weights, common = P._scaled
        nums, d = self._numerators
        total = sum(p * sum(map(mul, values, weights)) for p, values in nums)
        return Fraction(total, d * common)


def _positive(terms: tuple[tuple, ...], targets: list) -> tuple[tuple, ...]:
    """Each term's weight, exact and positive, paired with its checked target."""
    weights = check_values([w for w, _ in terms], "weights")
    if not all(weights):
        raise ValueError("weights must be strictly positive")
    return tuple(zip(weights, targets))


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
    level set first.  The states are sorted once by ``f``'s scaled values,
    and the value is one sum over both scaled tables, divided once.
    """
    same_space(f, v)
    scaled, common = f._scaled
    # each run of equal values joins the level set the larger values built
    order = sorted(range(f.space.n), key=scaled.__getitem__, reverse=True)
    levels, bits = [], 0
    for a, group in groupby(order, key=scaled.__getitem__):
        if a <= 0:
            break
        for k in group:
            bits |= 1 << k
        levels.append((a, bits))
    gaps = [a - b for (a, _), (b, _) in zip(levels, levels[1:] + [(0, 0)])]
    total = sum(d * v._scaled[m] for d, (_, m) in zip(gaps, levels))
    terms = [(Fraction(d, common), m) for d, (_, m) in zip(gaps, levels)]
    terms.reverse()  # lowest threshold = largest set first: decreasing chain
    return IntegralResult(
        Fraction(total, common * v._common), Decomposition._built(tuple(terms))
    )


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
    one LP column per mask, priced from the table over its common denominator."""
    same_space(f, v)
    objective = [v._scaled[m] for m in masks]
    columns = [(m, ()) for m in masks]
    return _lp_integral(f, v, objective, columns, masks, Decomposition, v._common)


def _lp_integral(
    f: SimpleFunction,
    known: Capacity | ProbabilityMeasure,
    objective: list[int | Fraction],
    columns: list[tuple[int, tuple[tuple[int, Fraction], ...]]],
    targets: Sequence,
    witness_type: type[Decomposition] | type[FunctionDecomposition],
    denominator: int = 1,
) -> IntegralResult:
    """``max objective . w / denominator`` under ``columns . w <= f``, ``w >= 0``, replayed.

    The one LP path of the integrals.  The witness pairs each nonzero
    weight, read from the solution's support alone, with its column's
    target (an event mask, or a known function); it must fit under ``f``
    and weigh the optimal value against ``known`` (the capacity, or the
    measure), or the basis is inconsistent.
    ``solve_max`` is looked up in this module at each call, so a wrapper
    set on the module later (a tracer's, a test's) sees every solve.
    """
    sol = solve_max(objective, columns, list(f.values), denominator)
    witness = witness_type(tuple((sol.x[j], targets[j]) for j in sol.support))
    if not witness.fits_under(f) or witness.weight_against(known) != sol.value:
        raise RuntimeError("simplex returned an inconsistent optimal basis")
    return IntegralResult(sol.value, witness, dual_witness=sol.duals)


def verify_dual_certificate(
    result: IntegralResult, f: SimpleFunction, v: Capacity
) -> bool:
    """Replay a concave-integral dual certificate against its definition.

    Checks that ``y`` has one entry per state, ``y >= 0``, ``sum_{x in T}
    y_x >= v(T)`` for every ``T`` (one subset-sum pass), and ``sum_x y_x
    f(x) == value``.  ``f`` and ``v`` must share one state space.  ``y``
    is put over its lcm ``d``, and the subset sums of its numerators are
    read against ``v``'s scaled table as ``sums * common >= scaled * d``.
    """
    same_space(f, v)
    y = result.dual_witness
    if y is None or len(y) != f.space.n or any(c < 0 for c in y):
        return False
    d = math.lcm(*(c.denominator for c in y))
    ys = [c.numerator * (d // c.denominator) for c in y]
    sums = map(mul, subset_sums(ys), repeat(v._common))
    if any(map(lt, sums, map(mul, v._scaled, repeat(d)))):
        return False
    values, common = f._scaled
    return Fraction(sum(map(mul, ys, values)), d * common) == result.value


def balanced_cover(v: Capacity) -> Capacity:
    """The totally balanced cover: each event's concave integral of itself.

    The cover dominates ``v`` pointwise, is itself a capacity, and leaves
    every concave integral unchanged; applying it twice is the same as
    applying it once.

    The value at ``A`` is the optimum of the LP over the subsets of ``A``
    (a state outside ``A`` has right-hand side 0, so no other column can
    carry weight), and the events are certified in ascending order before
    any is solved (Bondareva 1963, Shapley 1967):

    * from below, ``LB(A)`` is the best of ``v(A)`` and ``cover(B) +
      cover(A - B)`` over every split: two feasible decompositions joined
      stay feasible;
    * from above, for a state ``x`` of ``A``, top state first, the stored
      dual of ``A - {x}`` extended by ``y_x = LB(A) - cover(A - {x})``
      (``>= 0``, as ``LB(A) >= cover(A - {x}) + v({x})``) is a feasible
      dual if ``y(T + x) >= v(T + x)`` for every ``T`` inside ``A - {x}``,
      read from the subset sums of ``y``.  Its value is ``LB(A)``, so weak
      duality gives ``cover(A) = LB(A)``, and ``y`` is stored as ``A``'s dual.

    Only when no state gives a feasible dual is ``A``'s LP solved, and its
    value and its duals on ``A`` are stored.  A convex table never gets
    there: the dual built along the ascending chain is its marginal vector,
    which lies in the core of a convex game (Shapley 1971).  The scan runs
    over ``v._scaled`` in ints; an LP value with a new denominator puts
    every stored entry over it.
    """
    s, common = v._scaled, v._common
    cover = [0] * len(s)
    duals = [()] * len(s)  # each event's dual, one entry per state ascending
    for a in range(1, len(s)):
        subs = submasks(a)
        # the cover at the proper submasks, ascending: the complement in a
        # of the i-th from the start is the i-th from the end
        inner = list(map(cover.__getitem__, subs[:-1]))
        h = len(inner) // 2
        lb = max(max(map(add, inner[:h], reversed(inner[h:])), default=s[a]), s[a])
        states = list(states_of(a))
        for p in reversed(range(len(states))):
            b = 1 << states[p]
            rest, yx = duals[a ^ b], lb - cover[a ^ b]
            # the submasks holding x, ascending: for the top state, the upper half
            above = map(s.__getitem__, subs[h:] if b > a ^ b else [t for t in subs if t & b])
            if max(map(sub, above, subset_sums(rest))) <= yx:
                cover[a], duals[a] = lb, rest[:p] + (yx,) + rest[p:]
                break
        else:
            res = _best_decomposition(SimpleFunction.indicator(v.space, a), v, subs)
            got = [x * common for x in (res.value, *(res.dual_witness[k] for k in states))]
            q = math.lcm(*(x.denominator for x in got))
            if q > 1:
                s, cover = [x * q for x in s], [x * q for x in cover]
                duals = [tuple(y * q for y in d) for d in duals]
                common *= q
            cover[a], *ys = [(x * q).numerator for x in got]
            duals[a] = tuple(ys)
    return Capacity(v.space, tuple(Fraction(x, common) for x in cover))


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
    return IntegralResult(total, Decomposition._built(tuple(terms)))


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
            mask_of(a == 1 for a in g.values),
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
    supports = [mask_of(g.values) for g in family]
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
    masks = [check_mask(m, v.space) for m in chain]
    for a, b in zip(masks, masks[1:]):
        if b & ~a:
            raise ValueError("events must be nested decreasingly")
    return _best_decomposition(f, v, [m for m in masks if m]).value
