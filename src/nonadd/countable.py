"""Exact models on the countable state space ``{1, 2, 3, ...}``.

On a finite space every capacity is continuous from below (increasing
chains stabilize), so the interesting failures of monotone convergence
need infinitely many states.  This module realizes them exactly:

* a measure is one of two closed tail families, finite suffix sums or
  the telescoping tail ``T(N) = 1/(N+1)``, each weight being
  ``T(k-1) - T(k)``; both are decided from their parameters, so no value
  is ever truncated, rounded or taken on trust;
* a partition is its layout: finite head blocks partitioning ``{1..K}``,
  then consecutive tail blocks of width 1 or 2, or one infinite block
  ``{K+1, K+2, ...}``.  The blocks meeting any finite window can thus be
  listed, each as its maximal runs of consecutive states;
* functions are eventually constant and events are maximal runs, the
  last one infinite when the event holds the tail, so each integral is a
  finite sum: blocks meeting the window contribute their exact infimum
  times their mass, and everything beyond contributes the tail constant
  times the leftover mass.  Every run's mass is a difference of tails, so
  summed by parts each integral (ordinary, partition-limited, induced
  value) and each event's mass is one exact sum ``sum_k w_k * T(k)`` with
  small weights, read one tail per run boundary;
* an increasing sequence of functions is one of two closed forms, the
  unit prefixes ``1_{1..n}`` rising to the constant 1, or a constant
  sequence below a declared limit, so every convergence verdict is
  decided exactly, whatever the traced depth.

Whether such a model satisfies monotone convergence turns on a single
structural question: does an infinite block carry positive mass?  The
checks below pair each verdict with the explicit witness chain (prefixes
of an infinite block whose values stay at zero while the block itself
carries positive mass).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from math import gcd
from operator import itemgetter, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .capacity import PropertyReport, _as_fraction, _scale

ZERO = Fraction(0)
ONE = Fraction(1)

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
    """Block structure on ``{1, 2, ...}``, given as its layout.

    ``head`` lists finite blocks partitioning ``{1..K}``, numbered in the
    given order, each kept with its members sorted.  Beyond ``K`` come
    consecutive blocks of ``width`` states (1 singletons, 2 pairs) or, with
    ``width`` ``None``, one infinite block ``{K+1, K+2, ...}``.  So full
    information is ``CountablePartition()``, pairs ``width=2`` and the
    trivial field ``width=None``; equal layouts compare equal.  Head
    blocks are also kept as their runs; the queries below read only these.
    """

    head: tuple[tuple[int, ...], ...] = ()
    width: int | None = 1
    _head: tuple[tuple[_Run, ...], ...] = field(init=False, repr=False, compare=False)
    _block_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width not in (1, 2, None):
            raise ValueError(f"tail width must be 1, 2 or None, got {self.width!r}")
        blocks = tuple(tuple(sorted(int(k) for k in b)) for b in self.head)
        object.__setattr__(self, "head", blocks)
        top = sum(map(len, blocks))
        block_of = [-1] * top
        for i, b in enumerate(blocks):
            if not b:
                raise ValueError("empty head block")
            for k in b:
                if not 1 <= k <= top:
                    raise ValueError("head blocks must partition 1..K")
                if block_of[k - 1] >= 0:
                    raise ValueError("head blocks overlap")
                block_of[k - 1] = i
        object.__setattr__(self, "_head", tuple(map(_runs, blocks)))
        object.__setattr__(self, "_block_of", tuple(block_of))

    # -- structure ---------------------------------------------------------

    def block_key(self, k: int) -> int:
        """Number of the block containing state ``k`` (head blocks first)."""
        if k < 1:
            raise ValueError("states are numbered from 1")
        top = len(self._block_of)
        if k <= top:
            return self._block_of[k - 1]
        if self.width is None:
            return len(self._head)
        return len(self._head) + (k - top - 1) // self.width

    def all_atoms_finite(self) -> bool:
        return self.width is not None

    def infinite_atom_start(self) -> int | None:
        """First state of the infinite block, if there is one."""
        return None if self.width else len(self._block_of) + 1

    def _blocks_meeting(self, horizon: int) -> Iterator[tuple[_Run, ...]]:
        """The runs of each block meeting ``{1..horizon}``, as :func:`_runs`
        gives them; the infinite block is the one run ``(K+1, None)``."""
        for runs in self._head:
            if runs[0][0] <= horizon:
                yield runs
        top = len(self._block_of)
        width = self.width
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
    """Increasing sequence of eventually-constant functions, one of two forms.

    Family ``unit-prefix`` (:func:`unit_prefix_sequence`): the n-th term is
    the indicator of ``{1..n}``, rising at every state to ``limit``, the
    constant 1; it takes no ``f`` and no other limit.  Family ``constant``:
    every term is ``f`` and ``limit`` is declared; construction decides
    ``f <= limit`` at every state, from the values up to the larger horizon
    and the two tail constants.
    """

    family: str
    f: EventuallyConstantFunction | None = None
    limit: EventuallyConstantFunction = EventuallyConstantFunction.constant(1)

    def __post_init__(self) -> None:
        f, g = self.f, self.limit
        if self.family == "unit-prefix":
            if f is not None or g != EventuallyConstantFunction.constant(1):
                raise ValueError("unit prefixes take no f and rise to the constant 1")
        elif self.family != "constant":
            raise ValueError(f"unknown sequence family {self.family!r}")
        elif f is None:
            raise ValueError("family 'constant' needs f")
        elif f.tail > g.tail or any(
            f(k) > g(k) for k in range(1, max(f.horizon, g.horizon) + 1)
        ):
            raise ValueError("f exceeds the declared limit")


def unit_prefix_sequence() -> CountableFunctionSequence:
    """Indicators of ``{1..n}`` increasing pointwise to the constant 1."""
    return CountableFunctionSequence("unit-prefix")


@dataclass(frozen=True)
class CountableConvergenceReport:
    """Outcome of a countable monotone-convergence experiment.

    ``integral_trace`` holds the first ``depth`` partition integrals and
    ``basis`` names what decided ``converges``:

    * ``"stabilized"``: a constant sequence, whose integrals all equal the
      first, so it converges iff that equals the limit's integral;
    * ``"exact"``: unit prefixes whose trace reached the target;
    * ``"finite-atoms"``: unit prefixes with every block finite, each of
      which the prefixes eventually contain (criterion 10's theorem);
    * ``"massless-block"``: unit prefixes whose one infinite block carries
      no mass, so the finite blocks alone reach the target;
    * ``"divergence-bound"``: unit prefixes whose infinite block ``A`` has
      positive mass; no prefix contains ``A``, so the integrals rise only
      to ``divergence_bound``, the target minus ``mass(A)``.
    """

    converges: bool
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

    Traces the first ``depth`` terms and decides along the ladder described
    on :class:`CountableConvergenceReport`; the verdict never depends on
    ``depth``.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    finite_atoms = model.partition.all_atoms_finite()
    target = countable_psa_integral(seq.limit, model)
    if seq.family == "constant":
        value = countable_psa_integral(seq.f, model)
        return CountableConvergenceReport(
            value == target, "stabilized", (value,) * depth, target,
            target - value, finite_atoms,
        )
    trace = tuple(
        countable_psa_integral(EventuallyConstantFunction.unit_prefix(n), model)
        for n in range(1, depth + 1)
    )
    report = partial(
        CountableConvergenceReport,
        integral_trace=trace,
        limit_integral=target,
        gap_at_depth=target - trace[-1],
        finite_atoms=finite_atoms,
    )
    if trace[-1] == target:
        return report(True, "exact")
    if finite_atoms:
        return report(True, "finite-atoms")
    mass = model.measure.tail(model.partition.infinite_atom_start() - 1)
    if mass == 0:
        return report(True, "massless-block")
    return report(False, "divergence-bound", divergence_bound=target - mass)


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


def check_increases_continuously(
    partitions: Sequence[CountablePartition],
    measure: CountableMeasure,
    *,
    window: int = 64,
) -> PropertyReport:
    """Do the induced values climb all the way to the measure on every event?

    The last partition is declared to persist, so each event's limit value
    is its value there: the mass of the blocks inside it, at most its own
    mass.  That reaches the mass for every event iff every state of
    positive weight is a block of its own; else the lowest state ``k`` of
    positive weight in a larger block fails, as ``{k}`` holds no block.
    The layout gives ``k``: a head block of two or more states, or past
    the head a tail of pairs or one infinite block with ``tail(K) > 0``.
    The witness is ``({k}, values per partition, its mass)``, the values
    nondecreasing.  Refinement is checked on states ``1..window`` first; a
    non-refining sequence raises ``ValueError``.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    _check_refining(partitions, window)
    last = partitions[-1]
    top = len(last._block_of)
    k = next(
        (
            k
            for k, i in enumerate(last._block_of, start=1)
            if len(last.head[i]) > 1 and measure.weight(k)
        ),
        None,
    )
    if k is None and last.width != 1 and measure.tail(top):
        k = top + 1
        while not measure.weight(k):
            k += 1
    if k is None:
        return PropertyReport(True)
    event = EventuallyConstantSet.finite([k])
    values = [
        countable_induced_value(event, CountableModel(measure, p))
        for p in partitions
    ]
    for a, b in zip(values, values[1:]):
        if a > b:
            raise RuntimeError("induced values decreased along a refinement")
    target = event.mass(measure)
    return PropertyReport(
        False,
        (event, tuple(values), target),
        f"values reach {values[-1]} but the event has mass {target}",
    )


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
    continuity = check_increases_continuously(partitions, measure, window=window)
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
    return CountableModel(telescoping_measure(), CountablePartition(width=2))


def trivial_model() -> CountableModel:
    """Telescoping measure with one infinite block: the divergent showcase."""
    return CountableModel(telescoping_measure(), CountablePartition(width=None))


def singletons_model() -> CountableModel:
    return CountableModel(telescoping_measure(), CountablePartition())


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
        stages.append(CountablePartition(blocks))
    return stages


def random_eventually_constant_function(
    rng: random.Random, horizon: int, denom: int = 8, top: int = 24
) -> EventuallyConstantFunction:
    values = tuple(
        Fraction(rng.randint(0, top), denom) for _ in range(horizon)
    )
    tail = Fraction(rng.randint(0, top), denom)
    return EventuallyConstantFunction(horizon, values, tail)
