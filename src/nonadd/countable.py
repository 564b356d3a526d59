"""Exact models on the countable state space ``{1, 2, 3, ...}``.

On a finite space every capacity is continuous from below (increasing
chains stabilize), so the interesting failures of monotone convergence
need infinitely many states.  This module realizes them exactly:

* a measure is one of two closed tail families, finite suffix sums or
  the telescoping tail ``T(N) = 1/(N+1)``, each weight being
  ``T(k-1) - T(k)``; both are decided from their parameters, so no value
  is ever truncated, rounded or taken on trust;
* partitions come from canonical families (singletons, one infinite
  block, consecutive pairs, a finite prefix block with singleton or
  lumped tail, explicit finite blocks), each translated at construction
  into one layout: finite head blocks covering ``{1..K}``, then either
  consecutive tail blocks of a fixed width or one infinite block
  ``{K+1, K+2, ...}``.  The blocks meeting any finite window can thus be
  listed, each as its maximal runs of consecutive states;
* functions are eventually constant and events are maximal runs, the
  last one infinite when the event holds the tail, so each integral is a
  finite sum: blocks meeting the window contribute their exact infimum
  times their mass, and everything beyond contributes the tail constant
  times the leftover mass.  Every run's mass is a difference of tails, so
  summed by parts each integral (ordinary, partition-limited, induced
  value) and each event's mass is one exact sum ``sum_k w_k * T(k)`` with
  small weights, read one tail per run boundary.

Whether such a model satisfies monotone convergence turns on a single
structural question: are all blocks finite?  The checks below pair each
verdict with the explicit witness chain (prefixes of an infinite block
whose values stay at zero while the block itself carries positive mass).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .capacity import PropertyReport, _as_fraction, _scale

ZERO = Fraction(0)
ONE = Fraction(1)

TAIL_MODES = ("singletons", "lump")
_FIRST = itemgetter(0)
# a run of consecutive states ``(first, last)``; ``last`` None: no end
_Run = tuple[int, int | None]


@dataclass(frozen=True)
class CountableMeasure:
    """Summable weights on ``{1, 2, ...}`` from one of two closed tail families.

    ``tail(N)`` is the total mass beyond state ``N`` and ``weight(k)`` is
    ``tail(k-1) - tail(k)``, so weights, tails and block masses agree at
    every ``N``.  Family ``telescoping`` has ``tail(N) = 1/(N+1)``; family
    ``finite`` puts ``weights`` on ``{1..K}``, its tail their suffix sums.
    Construction decides that the tail starts at 1, never rises and reaches
    or tends to 0, which is what makes infinite-tail arithmetic exact.
    """

    family: str
    weights: tuple[Fraction, ...] = ()
    _suffix: tuple[Fraction, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        suffix = None
        if self.family == "finite":
            ws = tuple(_as_fraction(w) for w in self.weights)
            if any(w < 0 for w in ws):
                raise ValueError("weights must be nonnegative")
            suffix = tuple(accumulate(reversed(ws), initial=ZERO))[::-1]
            if suffix[0] != 1:
                raise ValueError("total mass must be exactly 1")
            object.__setattr__(self, "weights", ws)
        elif self.family != "telescoping":
            raise ValueError(f"unknown measure family {self.family!r}")
        elif self.weights:
            raise ValueError("family 'telescoping' does not take weights")
        object.__setattr__(self, "_suffix", suffix)

    def weight(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("states are numbered from 1")
        return self.tail(k - 1) - self.tail(k)

    def tail(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("tail index must be nonnegative")
        suffix = self._suffix
        if suffix is None:
            return Fraction(1, n + 1)
        return suffix[min(n, len(suffix) - 1)]


def telescoping_measure() -> CountableMeasure:
    """``p_k = 1/(k(k+1))`` with tail ``T(N) = 1/(N+1)``.

    An exactly summable stand-in for weights of order ``1/k^2``: the
    partial sums telescope, so every prefix and tail is a small rational.
    """
    return CountableMeasure("telescoping")


def finite_measure(weights: Sequence[Fraction | int | str]) -> CountableMeasure:
    """All mass on ``{1..len(weights)}``; the tail is a finite suffix sum."""
    return CountableMeasure("finite", tuple(weights))


def uniform_finite_measure(size: int) -> CountableMeasure:
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    return finite_measure([Fraction(1, size)] * size)


@dataclass(frozen=True)
class CountablePartition:
    """Block structure on ``{1, 2, ...}`` from a canonical family.

    Families:

    * ``singletons``: every state its own block (full information);
    * ``trivial``:    one infinite block, nothing is known but the total;
    * ``pairs``:      blocks ``{2k-1, 2k}``;
    * ``prefix``:     one block ``{1..prefix_len}``, then per
      ``tail_mode`` either singletons or a single infinite block;
    * ``blocks``:     explicit finite blocks partitioning ``{1..K}``,
      then per ``tail_mode`` singletons or one infinite block.

    Construction translates every family into one layout: finite head
    blocks covering ``{1..K}`` (none for the first three families), then
    either consecutive tail blocks of ``width`` states (1 for singletons,
    2 for pairs) or, with ``width`` ``None``, one infinite block
    ``{K+1, K+2, ...}``.  Blocks are numbered head first, head blocks kept
    as their runs; the queries below read only this layout.  A field the
    family does not read must keep its default.
    """

    family: str
    prefix_len: int = 0
    tail_mode: str = "singletons"
    explicit_blocks: tuple[tuple[int, ...], ...] = ()
    _head: tuple[tuple[_Run, ...], ...] = field(init=False, repr=False, compare=False)
    _block_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _width: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        family = self.family
        if family not in ("singletons", "trivial", "pairs", "prefix", "blocks"):
            raise ValueError(f"unknown partition family {family!r}")
        if self.tail_mode not in TAIL_MODES:
            raise ValueError(f"unknown tail mode {self.tail_mode!r}")
        blocks = tuple(tuple(sorted(int(k) for k in b)) for b in self.explicit_blocks)
        object.__setattr__(self, "explicit_blocks", blocks)
        reads = {
            "prefix": ("prefix_len", "tail_mode"),
            "blocks": ("explicit_blocks", "tail_mode"),
        }.get(family, ())
        for name, default in (
            ("prefix_len", 0), ("tail_mode", "singletons"), ("explicit_blocks", ())
        ):
            if name not in reads and getattr(self, name) != default:
                raise ValueError(f"family {family!r} does not take {name}")
        if family == "prefix":
            if self.prefix_len < 1:
                raise ValueError("prefix family needs prefix_len >= 1")
            blocks = (tuple(range(1, self.prefix_len + 1)),)
        top = sum(len(b) for b in blocks)
        block_of = [-1] * top
        for i, b in enumerate(blocks):
            if not b:
                raise ValueError("empty explicit block")
            for k in b:
                if not 1 <= k <= top:
                    raise ValueError("explicit blocks must partition 1..K")
                if block_of[k - 1] >= 0:
                    raise ValueError("explicit blocks overlap")
                block_of[k - 1] = i
        if family in ("prefix", "blocks"):
            width = 1 if self.tail_mode == "singletons" else None
        else:
            width = {"singletons": 1, "pairs": 2, "trivial": None}[family]
        object.__setattr__(self, "_head", tuple(map(_runs, blocks)))
        object.__setattr__(self, "_block_of", tuple(block_of))
        object.__setattr__(self, "_width", width)

    # -- structure ---------------------------------------------------------

    def block_key(self, k: int) -> int:
        """Number of the block containing state ``k`` (head blocks first)."""
        if k < 1:
            raise ValueError("states are numbered from 1")
        top = len(self._block_of)
        if k <= top:
            return self._block_of[k - 1]
        if self._width is None:
            return len(self._head)
        return len(self._head) + (k - top - 1) // self._width

    def all_atoms_finite(self) -> bool:
        return self._width is not None

    def infinite_atom_start(self) -> int | None:
        """First state of the canonical infinite block, if there is one."""
        return None if self._width else len(self._block_of) + 1

    def _blocks_meeting(self, horizon: int) -> Iterator[tuple[_Run, ...]]:
        """The runs of each block meeting ``{1..horizon}``, as :func:`_runs`
        gives them; the infinite block is the one run ``(K+1, None)``."""
        for runs in self._head:
            if runs[0][0] <= horizon:
                yield runs
        top = len(self._block_of)
        width = self._width
        if width is None:
            if horizon > top:
                yield ((top + 1, None),)
        else:
            for start in range(top + 1, horizon + 1, width):
                yield ((start, start + width - 1),)


def _runs(members: Sequence[int]) -> tuple[_Run, ...]:
    """Maximal runs of consecutive states in sorted ``members``, as
    ``(first, last)``."""
    first = members[0]
    if members[-1] - first == len(members) - 1:
        return ((first, members[-1]),)
    runs = []
    prev = first
    for k in members[1:]:
        if k != prev + 1:
            runs.append((first, prev))
            first = k
        prev = k
    runs.append((first, prev))
    return tuple(runs)


def _add_mass(
    weights: dict[int, int | Fraction], runs: Iterable[_Run], a: int | Fraction
) -> None:
    """Add ``a`` times the mass of the union of ``runs`` to ``weights``.

    ``weights`` maps a tail index ``k`` to the weight of ``tail(k)``: a
    run ``[s, e]`` weighs ``tail(s-1) - tail(e)``, and the infinite run
    from ``s`` weighs ``tail(s-1)``.
    """
    get = weights.get
    for s, e in runs:
        weights[s - 1] = get(s - 1, 0) + a
        if e is not None:
            weights[e] = get(e, 0) - a


def _tail_sum(
    weights: Mapping[int, int | Fraction], measure: CountableMeasure
) -> Fraction:
    """``sum(w * measure.tail(k) for k, w in weights.items())``, exactly.

    Each nonzero weight reads its tail once.  The terms stay unreduced
    ``(numerator, denominator)`` pairs, added in a balanced tree whose
    denominators combine through their gcd, so each sum's denominator is
    the lcm of its terms' and operands of one level are of similar size;
    only the final ``Fraction`` normalizes.  Weights may be ints or
    ``Fraction``s.
    """
    terms = []
    for k, w in weights.items():
        if w:
            p, q = measure.tail(k).as_integer_ratio()
            wp, wq = w.as_integer_ratio()
            terms.append((wp * p, wq * q))
    if not terms:
        return ZERO
    while len(terms) > 1:
        merged = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = gcd(b, d)
            b //= g
            merged.append((a * (d // g) + c * b, b * d))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    p, q = terms[0]
    return Fraction(p, q)


@dataclass(frozen=True)
class EventuallyConstantFunction:
    """Nonnegative function on ``{1, 2, ...}``, constant beyond its horizon."""

    horizon: int
    values: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self) -> None:
        values = tuple(_as_fraction(x) for x in self.values)
        tail = _as_fraction(self.tail)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail", tail)
        if len(values) != self.horizon:
            raise ValueError("explicit values must cover exactly 1..horizon")
        if tail < 0 or any(x < 0 for x in values):
            raise ValueError("function must be nonnegative")

    def __call__(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("states are numbered from 1")
        return self.values[k - 1] if k <= self.horizon else self.tail

    @cached_property
    def _scaled(self) -> tuple[tuple, int]:
        """The values, then the tail constant, over one common denominator.

        ``(scaled, common)`` as :func:`~nonadd.capacity._scale` gives them:
        ints with their factor, or past its budget the Fractions with 1.
        Made on first use.
        """
        return _scale(self.values + (self.tail,))

    @classmethod
    def constant(cls, c: Fraction | int | str) -> EventuallyConstantFunction:
        return cls(0, (), _as_fraction(c))

    @classmethod
    def unit_prefix(cls, n: int) -> EventuallyConstantFunction:
        """Indicator of ``{1..n}``."""
        return cls(n, (ONE,) * n, ZERO)


@dataclass(frozen=True)
class EventuallyConstantSet:
    """Event on ``{1, 2, ...}``: explicit members up to a horizon, then
    either everything or nothing.

    Kept as ``runs``, its sorted maximal runs as :func:`_runs` gives them,
    ending in ``(first, None)`` when ``tail_in``.  A ``range`` of members
    is read as one run, so ``prefix(n)`` takes constant time.
    """

    horizon: int
    members: InitVar[Iterable[int]]
    tail_in: bool
    runs: tuple[_Run, ...] = field(init=False)

    def __post_init__(self, members: Iterable[int]) -> None:
        if self.horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {self.horizon}")
        if not (isinstance(members, range) and members.step == 1):
            members = sorted(set(int(k) for k in members))
        if members and (members[0] < 1 or members[-1] > self.horizon):
            raise ValueError("explicit members must lie in 1..horizon")
        runs = list(_runs(members)) if members else []
        if self.tail_in:
            if runs and runs[-1][1] == self.horizon:
                runs[-1] = (runs[-1][0], None)
            else:
                runs.append((self.horizon + 1, None))
        object.__setattr__(self, "runs", tuple(runs))

    def __repr__(self) -> str:
        h = self.horizon
        members = tuple(k for s, e in self.runs for k in range(s, (e or h) + 1))
        tail_in = self.tail_in
        return f"EventuallyConstantSet(horizon={h}, members={members}, {tail_in=})"

    def _holds(self, runs: Iterable[_Run]) -> bool:
        """Does the event hold every state of ``runs``?  Its own runs are
        maximal, so each must lie in one of them: one bisect per run."""
        own = self.runs
        for first, last in runs:
            i = bisect_right(own, first, key=_FIRST)
            if not i:
                return False
            end = own[i - 1][1]
            if end is not None and (last is None or last > end):
                return False
        return True

    def __contains__(self, k: int) -> bool:
        return self._holds(((k, k),))

    def __le__(self, other: EventuallyConstantSet) -> bool:
        return other._holds(self.runs)

    def mass(self, measure: CountableMeasure) -> Fraction:
        weights: dict[int, int | Fraction] = {}
        _add_mass(weights, self.runs, 1)
        return _tail_sum(weights, measure)

    @classmethod
    def whole(cls) -> EventuallyConstantSet:
        return cls(0, (), True)

    @classmethod
    def prefix(cls, n: int) -> EventuallyConstantSet:
        return cls(n, range(1, n + 1), False)

    @classmethod
    def finite(cls, states: Iterable[int]) -> EventuallyConstantSet:
        members = sorted(set(int(k) for k in states))
        return cls(members[-1] if members else 0, members, False)


@dataclass(frozen=True)
class CountableModel:
    """A measure plus a partition: the countable information structure."""

    measure: CountableMeasure
    partition: CountablePartition


def countable_lebesgue(
    f: EventuallyConstantFunction, measure: CountableMeasure
) -> Fraction:
    """Ordinary integral, as one weighted sum of tails.

    With ``H`` the horizon and ``c`` the tail constant, the integral is
    ``sum_{k<=H} (f_k - c) * (tail(k-1) - tail(k)) + c``; summed by parts,
    ``tail(0)`` weighs ``f_1``, ``tail(k)`` weighs ``f_{k+1} - f_k`` and
    ``tail(H)`` weighs ``c - f_H`` (``c`` alone when ``H`` is 0).
    """
    scaled, common = f._scaled
    weights = dict(enumerate(map(sub, scaled, (0,) + scaled)))
    return _tail_sum(weights, measure) / common


def countable_psa_integral(
    f: EventuallyConstantFunction, model: CountableModel
) -> Fraction:
    """Partition-limited integral: each block's infimum times its mass.

    With ``c`` the tail constant and the block masses summing to 1, the
    integral is ``c + sum_b (inf_b - c) * mass_b``.  Blocks entirely
    beyond the horizon have infimum ``c`` and drop out, so the sum runs
    over the blocks meeting it (for an infinite block the unlisted members
    sit beyond the horizon, where ``f`` equals ``c``).  Each mass is a
    signed sum of tails, so the whole integral is one exact weighted sum
    of tails, with infima taken over the scaled values.
    """
    scaled, common = f._scaled
    horizon = f.horizon
    c = scaled[horizon]
    weights = {0: c}
    for runs in model.partition._blocks_meeting(horizon):
        # scaled[horizon] is c: a run reaching past the horizon, or lying
        # wholly beyond it, takes c into its minimum
        a = min(min(scaled[min(s - 1, horizon) : e]) for s, e in runs) - c
        if a:
            _add_mass(weights, runs, a)
    return _tail_sum(weights, model.measure) / common


def countable_induced_value(
    event: EventuallyConstantSet, model: CountableModel
) -> Fraction:
    """Value of the induced capacity at an event: mass of the blocks inside.

    A block is inside iff each of its runs lies inside one run of the
    event; for an infinite block that needs the event's tail.  Blocks
    beyond the event's horizon are inside exactly when the tail is, so
    with the block masses summing to 1 the value is
    ``[tail_in] + sum_b ([b inside] - [tail_in]) * mass_b`` over the
    blocks meeting the horizon: one exact weighted sum of tails.
    """
    tail_in = event.tail_in
    # a block weighs [inside] - [tail_in]: every nonzero weight is the same
    runs = [
        run
        for block in model.partition._blocks_meeting(event.horizon)
        if event._holds(block) != tail_in
        for run in block
    ]
    weights = {0: int(tail_in)}
    _add_mass(weights, runs, -1 if tail_in else 1)
    return _tail_sum(weights, model.measure)


@dataclass(frozen=True)
class ChainWitness:
    """Finite prefixes of an infinite block: the canonical continuity breaker.

    The prefixes increase to the block; their induced values are all zero
    (a strict finite subset of a block contains no block), while the block
    itself carries its full mass.
    """

    prefix_members: tuple[int, ...]
    prefix_values: tuple[Fraction, ...]
    atom_mass: Fraction


def continuity_from_below_countable(
    model: CountableModel, depth: int = 10
) -> PropertyReport:
    """Is the induced capacity continuous from below?

    Holds when all blocks are finite.  With an infinite block of positive
    mass it fails, and the report carries the witness chain evaluated
    exactly at the requested depth.  An infinite block of mass zero does
    not break continuity (the chain values and the block value all
    vanish); that degenerate case is reported as holding.  A failing
    report's witness is a :class:`ChainWitness`.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    start = model.partition.infinite_atom_start()
    if start is None:
        return PropertyReport(True, detail="all blocks finite")
    atom_mass = model.measure.tail(start - 1)
    if atom_mass == 0:
        return PropertyReport(True, detail="infinite block carries no mass")
    members = tuple(range(start, start + depth))
    values = []
    for d in range(1, depth + 1):
        prefix = EventuallyConstantSet.finite(members[:d])
        values.append(countable_induced_value(prefix, model))
    return PropertyReport(
        False,
        ChainWitness(members, tuple(values), atom_mass),
        f"prefix values stay at {max(values)} while the block has mass {atom_mass}",
    )


@dataclass(frozen=True)
class CountableFunctionSequence:
    """Rule-defined sequence of eventually-constant functions.

    ``term(n)`` gives the n-th function (``n >= 1``); terms must be
    pointwise nondecreasing and below ``limit``.  ``pointwise`` declares
    that every state eventually reaches the limit (validated only on a
    finite window; the declaration is the caller's certificate).
    ``tail_limit``, when known, is the supremum of the terms' tail
    constants and powers an exact divergence bound.  ``stable_after``
    declares that the terms repeat from that index on, making the limit
    of integrals exactly computable.
    """

    term: Callable[[int], EventuallyConstantFunction]
    limit: EventuallyConstantFunction
    pointwise: bool = True
    tail_limit: Fraction | None = None
    stable_after: int | None = None


def unit_prefix_sequence() -> CountableFunctionSequence:
    """Indicators of ``{1..n}`` increasing pointwise to the constant 1."""
    return CountableFunctionSequence(
        term=EventuallyConstantFunction.unit_prefix,
        limit=EventuallyConstantFunction.constant(1),
        pointwise=True,
        tail_limit=ZERO,
    )


@dataclass(frozen=True)
class CountableConvergenceReport:
    """Outcome of a countable monotone-convergence experiment.

    ``converges`` is ``None`` when the trace neither reached the target
    nor admitted a structural verdict at the probed depth.  ``basis``
    names what decided it: ``"stabilized"`` (declared-constant tail of the
    sequence), ``"exact"`` (trace reached the target), ``"finite-atoms"``
    (structural theorem), or ``"divergence-bound"`` (certified ceiling
    below the target).
    """

    converges: bool | None
    basis: str
    integral_trace: tuple[Fraction, ...]
    limit_integral: Fraction
    gap_at_depth: Fraction
    finite_atoms: bool
    divergence_bound: Fraction | None = None


def monotone_convergence_countable(
    model: CountableModel,
    seq: CountableFunctionSequence,
    depth: int = 12,
) -> CountableConvergenceReport:
    """Do the partition-limited integrals converge to the limit's integral?

    Validates monotonicity on a finite window, then decides along the
    ladder described on :class:`CountableConvergenceReport`.  The
    divergence bound uses the model's single infinite block ``A``: every
    term's infimum over ``A`` is at most its tail constant, so the limit
    of integrals is at most the target minus
    ``(inf_A(limit) - min(inf_A(limit), tail_limit)) * mass(A)``.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    terms = [seq.term(n) for n in range(1, depth + 1)]
    window = max([t.horizon for t in terms] + [seq.limit.horizon]) + 1
    for a, b in zip(terms, terms[1:]):
        for k in range(1, window + 1):
            if a(k) > b(k):
                raise ValueError(f"sequence not increasing at state {k}")
    for t in terms:
        for k in range(1, window + 1):
            if t(k) > seq.limit(k):
                raise ValueError(f"term exceeds the declared limit at state {k}")

    trace = tuple(countable_psa_integral(t, model) for t in terms)
    target = countable_psa_integral(seq.limit, model)
    gap = target - trace[-1]
    finite_atoms = model.partition.all_atoms_finite()

    if seq.stable_after is not None and seq.stable_after <= depth:
        settled = trace[min(seq.stable_after, depth) - 1]
        return CountableConvergenceReport(
            settled == target, "stabilized", trace, target, gap, finite_atoms
        )
    if trace[-1] == target:
        return CountableConvergenceReport(
            True, "exact", trace, target, gap, finite_atoms
        )
    if seq.pointwise and finite_atoms:
        return CountableConvergenceReport(
            True, "finite-atoms", trace, target, gap, finite_atoms
        )
    start = model.partition.infinite_atom_start()
    if start is not None and seq.tail_limit is not None:
        mass = model.measure.tail(start - 1)
        inf_limit = min(seq.limit.values[start - 1 :] + (seq.limit.tail,))
        deficit = (inf_limit - min(inf_limit, seq.tail_limit)) * mass
        if deficit > 0:
            return CountableConvergenceReport(
                False,
                "divergence-bound",
                trace,
                target,
                gap,
                finite_atoms,
                divergence_bound=target - deficit,
            )
    return CountableConvergenceReport(
        None, "undetermined", trace, target, gap, finite_atoms
    )


# ---------------------------------------------------------------------------
# Increasing information
# ---------------------------------------------------------------------------


def _check_refining(
    partitions: Sequence[CountablePartition], window: int
) -> None:
    for j in range(len(partitions) - 1):
        coarse, fine = partitions[j], partitions[j + 1]
        seen: dict[object, object] = {}
        for k in range(1, window + 1):
            fk = fine.block_key(k)
            ck = coarse.block_key(k)
            if fk in seen and seen[fk] != ck:
                raise ValueError(
                    f"partition {j + 2} does not refine partition {j + 1} "
                    f"(state {k} splits a finer block across coarser ones)"
                )
            seen[fk] = ck


def default_test_sets(window: int = 32) -> tuple[EventuallyConstantSet, ...]:
    """A deterministic family of evaluable events for continuity checks."""
    sets = [EventuallyConstantSet.whole()]
    size = 1
    while size <= window:
        sets.append(EventuallyConstantSet.prefix(size))
        size *= 2
    sets.append(EventuallyConstantSet.finite([1]))
    sets.append(EventuallyConstantSet.finite([2]))
    sets.append(
        EventuallyConstantSet.finite(range(1, window + 1, 2))
    )
    sets.append(EventuallyConstantSet(window, tuple(range(2, window + 1, 2)), True))
    return tuple(sets)


def check_increases_continuously(
    partitions: Sequence[CountablePartition],
    measure: CountableMeasure,
    test_sets: Sequence[EventuallyConstantSet] | None = None,
    *,
    window: int = 64,
) -> PropertyReport:
    """Do the induced values climb all the way to the measure on each event?

    For each test event the per-partition values are nondecreasing and
    bounded by the event's mass.  The last partition is declared to
    persist, so the limit is the last value and the verdict is exact both
    ways.  Refinement is checked on states ``1..window`` first; a
    non-refining sequence raises ``ValueError``.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    _check_refining(partitions, window)
    sets = tuple(test_sets) if test_sets is not None else default_test_sets()
    for event in sets:
        values = [
            countable_induced_value(event, CountableModel(measure, p))
            for p in partitions
        ]
        for a, b in zip(values, values[1:]):
            if a > b:
                raise RuntimeError("induced values decreased along a refinement")
        target = event.mass(measure)
        if values[-1] == target:
            continue
        return PropertyReport(
            False,
            (event, tuple(values), target),
            f"values reach {values[-1]} but the event has mass {target}",
        )
    return PropertyReport(True)


@dataclass(frozen=True)
class IncreasingInfoReport:
    """Integral trace along a refining sequence of partitions.

    ``stabilized_at`` is the 1-based index of the first stage whose
    integral equals the target (the trace is nondecreasing, so it stays
    there); ``None`` when no listed stage reaches it.
    """

    integral_trace: tuple[Fraction, ...]
    target: Fraction
    stabilized_at: int | None
    converges: bool
    continuity: PropertyReport


def increasing_information_run(
    partitions: Sequence[CountablePartition],
    measure: CountableMeasure,
    f: EventuallyConstantFunction,
    *,
    window: int = 64,
    test_sets: Sequence[EventuallyConstantSet] | None = None,
) -> IncreasingInfoReport:
    """Integrate ``f`` under each information stage and compare to the target.

    The target is the ordinary integral against the measure.  The trace is
    nondecreasing; once it touches the target it stays there, so reaching
    it is an exact convergence certificate.  The last stage is declared to
    persist, so a trace that never reaches the target does not converge.
    The density criterion is cross-checked via
    :func:`check_increases_continuously` on the same partition sequence,
    which also rejects a non-refining sequence before any integral is
    taken.
    """
    continuity = check_increases_continuously(
        partitions, measure, test_sets, window=window
    )
    trace = tuple(
        countable_psa_integral(f, CountableModel(measure, p)) for p in partitions
    )
    for a, b in zip(trace, trace[1:]):
        if a > b:
            raise RuntimeError("integrals decreased along a refinement")
    target = countable_lebesgue(f, measure)
    stabilized_at = next(
        (j + 1 for j, x in enumerate(trace) if x == target), None
    )
    return IncreasingInfoReport(
        trace, target, stabilized_at, stabilized_at is not None, continuity
    )


# ---------------------------------------------------------------------------
# Canonical models and presets
# ---------------------------------------------------------------------------


def pairs_model() -> CountableModel:
    """Telescoping measure with pair blocks: the convergent showcase."""
    return CountableModel(telescoping_measure(), CountablePartition("pairs"))


def trivial_model() -> CountableModel:
    """Telescoping measure with one infinite block: the divergent showcase."""
    return CountableModel(telescoping_measure(), CountablePartition("trivial"))


def singletons_model() -> CountableModel:
    return CountableModel(telescoping_measure(), CountablePartition("singletons"))


def pairs_partial_sum_trace(depth: int) -> list[Fraction]:
    """Exact trace of the prefix-indicator integrals on the pairs model.

    Under pair blocks, the indicator of ``{1..2m}`` integrates to the mass
    of ``{1..2m}`` (each complete pair contributes its own mass, nothing
    straddles an even cutoff, and everything beyond contributes zero), so
    the m-th entry is ``1 - tail(2m)``, one read of the tail rule at any
    depth.  Under the telescoping measure it is ``1 - 1/(2m+1)``.
    """
    measure = telescoping_measure()
    return [ONE - measure.tail(2 * m) for m in range(1, depth + 1)]


def dyadic_partitions(m: int) -> list[CountablePartition]:
    """Stages 0..m of dyadic refinement on ``{1..2**m}``.

    Stage ``j`` has ``2**j`` consecutive blocks of length ``2**(m-j)``
    (singletons beyond carry whatever mass the measure leaves there, none
    for the uniform measure on the window).  Stage ``m`` reaches full
    information on the window.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    size = 1 << m
    stages = []
    for j in range(m + 1):
        width = size >> j
        blocks = tuple(
            tuple(range(start, start + width))
            for start in range(1, size + 1, width)
        )
        stages.append(CountablePartition("blocks", explicit_blocks=blocks))
    return stages


def random_eventually_constant_function(
    rng: random.Random, horizon: int, denom: int = 8, top: int = 24
) -> EventuallyConstantFunction:
    values = tuple(
        Fraction(rng.randint(0, top), denom) for _ in range(horizon)
    )
    tail = Fraction(rng.randint(0, top), denom)
    return EventuallyConstantFunction(horizon, values, tail)
