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
  ``{K+1, K+2, ...}``;
* functions are eventually constant, so each integral is a finite sum.
  The partition-limited integral of ``f`` is the ordinary integral of
  ``g``, the infimum of ``f`` over each state's block, and ``g`` is
  eventually constant too.  Summed by parts, the ordinary integral of
  either is one exact sum ``sum_k w_k * T(k)``, ``w_k`` the step of the
  values at state ``k + 1``, read one tail per nonzero step; over a
  finite family it is one sum of each value times its weight;
* an event is its indicator (:meth:`EventuallyConstantFunction.indicator`):
  its mass is the ordinary integral of it and the induced capacity's value
  the partition-limited one;
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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, chain, compress, islice, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

from .capacity import PropertyReport, _scale
from .sets import check_size, check_states, check_values

ZERO = Fraction(0)
ONE = Fraction(1)

@dataclass(frozen=True)
class CountableMeasure:
    """Summable weights on ``{1, 2, ...}`` from one of two closed tail families.

    ``tail(N)`` is the total mass beyond state ``N`` and ``weight(k)`` is
    ``tail(k-1) - tail(k)``, so weights, tails and block masses agree at
    every ``N``.  Family ``telescoping`` has ``tail(N) = 1/(N+1)``; family
    ``finite`` puts ``weights`` on ``{1..K}``, its tail their suffix sums.
    Construction decides that the tail starts at 1, never rises and reaches
    or tends to 0, which is what makes infinite-tail arithmetic exact.
    A finite family keeps its weights as ints over the lcm ``_den`` of
    their denominators, ``_weights``, built once here with their suffix
    sums ``_suffix``; the telescoping family has neither.
    """

    family: str
    weights: tuple[Fraction, ...] = ()
    _weights: tuple[int, ...] | None = field(init=False, repr=False, compare=False)
    _suffix: tuple[int, ...] | None = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scaled, suffix, den = None, None, 1
        if self.family == "finite":
            ws = check_values(self.weights, "weights")
            den = lcm(*(w.denominator for w in ws))
            scaled = tuple(w.numerator * (den // w.denominator) for w in ws)
            suffix = tuple(accumulate(reversed(scaled), initial=0))[::-1]
            if suffix[0] != den:
                raise ValueError("total mass must be exactly 1")
            object.__setattr__(self, "weights", ws)
        elif self.family != "telescoping":
            raise ValueError(f"unknown measure family {self.family!r}")
        elif self.weights:
            raise ValueError("family 'telescoping' does not take weights")
        object.__setattr__(self, "_weights", scaled)
        object.__setattr__(self, "_suffix", suffix)
        object.__setattr__(self, "_den", den)

    def weight(self, k: int) -> Fraction:
        check_size(k, "state", 1)
        return self.tail(k - 1) - self.tail(k)

    def tail(self, n: int) -> Fraction:
        return Fraction(*self._tail_ratio(check_size(n, "tail index", 0)))

    def _tail_ratio(self, n: int) -> tuple[int, int]:
        """``tail(n)`` as an unreduced int pair ``(p, q)``, ``n`` unchecked:
        the one reader of the tail.  A finite family keeps its suffix sums
        as ints over the lcm ``_den`` of its weight denominators."""
        suffix = self._suffix
        if suffix is None:
            return 1, n + 1
        return suffix[min(n, len(suffix) - 1)], self._den


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
    check_size(size, "size", 1)
    return finite_measure([Fraction(1, size)] * size)


@dataclass(frozen=True)
class CountablePartition:
    """Block structure on ``{1, 2, ...}``, given as its layout.

    ``head`` lists finite blocks partitioning ``{1..K}``, numbered in the
    given order, each kept with its members sorted.  Beyond ``K`` come
    consecutive blocks of ``width`` states (1 singletons, 2 pairs) or, with
    ``width`` ``None``, one infinite block ``{K+1, K+2, ...}``.  So full
    information is ``CountablePartition()``, pairs ``width=2`` and the
    trivial field ``width=None``; equal layouts compare equal.
    ``_block_of`` maps each head state to its block's number.
    """

    head: tuple[tuple[int, ...], ...] = ()
    width: int | None = 1
    _block_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = self.width
        if not (width is None or type(width) is int and width in (1, 2)):
            raise ValueError(f"tail width must be 1, 2 or None, got {width!r}")
        blocks = tuple(tuple(sorted(check_states(b))) for b in self.head)
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
        object.__setattr__(self, "_block_of", tuple(block_of))

    @classmethod
    def _built(
        cls, head: tuple[tuple[int, ...], ...], block_of: tuple[int, ...]
    ) -> CountablePartition:
        """A layout the library has just built, with singletons past the
        head: sorted nonempty blocks partitioning ``{1..K}`` and each head
        state's block number, kept without re-checking them; a caller's
        layout goes through ``CountablePartition(...)``."""
        self = object.__new__(cls)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "width", 1)
        object.__setattr__(self, "_block_of", block_of)
        return self

    # -- structure ---------------------------------------------------------

    def block_key(self, k: int) -> int:
        """Number of the block containing state ``k`` (head blocks first)."""
        check_size(k, "state", 1)
        top = len(self._block_of)
        if k <= top:
            return self._block_of[k - 1]
        if self.width is None:
            return len(self.head)
        return len(self.head) + (k - top - 1) // self.width

    def all_atoms_finite(self) -> bool:
        return self.width is not None

    def infinite_atom_start(self) -> int | None:
        """First state of the infinite block, if there is one."""
        return None if self.width else len(self._block_of) + 1


def _tail_sum(
    weights: Mapping[int, int | Fraction], measure: CountableMeasure
) -> Fraction:
    """``sum(w * measure.tail(k) for k, w in weights.items())``, exactly.

    No tail is read as a ``Fraction``: each ``w * tail(k)`` is an
    unreduced pair ``(numerator, denominator)`` from the tail's int pair,
    over the telescoping family ``(wp, wq * (k + 1))``; the pairs are added
    in a balanced tree whose denominators combine through their gcd, so
    each sum's denominator is the lcm of its terms' and operands of one
    level are of similar size; only the final ``Fraction`` normalizes.
    Weights may be ints or ``Fraction``s (values past the scaling budget
    of :func:`_scale`).  An integral over a finite family with int values
    does not come here: :func:`_by_parts` sums it by weights.
    """
    suffix = measure._suffix
    terms = []
    for k, w in weights.items():
        if w:
            wp, wq = w.as_integer_ratio()
            if suffix is None:
                terms.append((wp, wq * (k + 1)))
            else:
                p, q = measure._tail_ratio(k)
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


def _by_parts(values: Sequence, measure: CountableMeasure) -> Fraction:
    """Ordinary integral of the function worth ``values[k-1]`` at state
    ``k`` up to ``len(values) - 1`` and the constant ``values[-1]`` beyond.

    Over a finite family with int values (all ints or all Fractions,
    as :func:`~nonadd.capacity._scale` gives them, so the tail constant
    tells) it is one weighted sum over the support ``{1..K}``: each value,
    padded with the tail constant to ``K`` states, times the measure's
    stored int weight (``_weights``, ``suffix[k-1] - suffix[k]``), divided
    once by the denominator.
    Otherwise, with ``c = values[-1]``, it is ``sum_k (values[k-1] - c) *
    (tail(k-1) - tail(k)) + c``; summed by parts, ``tail(0)`` weighs
    ``values[0]`` and ``tail(k)`` weighs ``values[k] - values[k-1]``.  Only
    the nonzero steps go to :func:`_tail_sum`, so a function constant
    across a block reads one tail per block boundary.
    """
    weights = measure._weights
    if weights is not None and type(values[-1]) is int:
        padded = chain(islice(values, len(values) - 1), repeat(values[-1]))
        return Fraction(sum(map(mul, padded, weights)), measure._den)
    steps = list(map(sub, values, chain((0,), values)))
    return _tail_sum(dict(compress(enumerate(steps), steps)), measure)


@dataclass(frozen=True)
class EventuallyConstantFunction:
    """Nonnegative function on ``{1, 2, ...}``, constant beyond its horizon."""

    horizon: int
    values: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self) -> None:
        horizon = check_size(self.horizon, "horizon", 0)
        object.__setattr__(self, "values", check_values(self.values, "values", horizon))
        object.__setattr__(self, "tail", check_values((self.tail,), "the tail")[0])

    def __call__(self, k: int) -> Fraction:
        check_size(k, "state", 1)
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
        return cls(0, (), c)

    @classmethod
    def unit_prefix(cls, n: int) -> EventuallyConstantFunction:
        """Indicator of ``{1..n}``."""
        return cls(n, (ONE,) * check_size(n, "n", 0), ZERO)

    @classmethod
    def indicator(
        cls, horizon: int, members: Iterable[int] = (), tail_in: bool = False
    ) -> EventuallyConstantFunction:
        """Indicator of ``members``, each in ``1..horizon``, and of every
        state past ``horizon`` when ``tail_in``: the one spelling of an event."""
        values = [ZERO] * check_size(horizon, "horizon", 0)
        for k in check_states(members, 1, horizon):
            values[k - 1] = ONE
        return cls(horizon, tuple(values), ONE if tail_in else ZERO)


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
    ``sum_{k<=H} (f_k - c) * (tail(k-1) - tail(k)) + c``; summed by parts
    (:func:`_by_parts`), ``tail(0)`` weighs ``f_1``, ``tail(k)`` weighs
    ``f_{k+1} - f_k`` and ``tail(H)`` weighs ``c - f_H`` (``c`` alone when
    ``H`` is 0).
    """
    scaled, common = f._scaled
    return _by_parts(scaled, measure) / common


def countable_psa_integral(
    f: EventuallyConstantFunction, model: CountableModel
) -> Fraction:
    """Partition-limited integral: each block's infimum times its mass.

    At an event's indicator it is the induced capacity's value there: the
    mass of the blocks inside the event.

    It is the ordinary integral of ``g``, the infimum of ``f`` over each
    state's block, and ``g`` is eventually constant: a head block's
    infimum at each of its states, then past ``K`` the values of ``f``
    (width 1), each pair's smaller value at both its states (width 2), or
    the infinite block's infimum as ``g``'s tail constant.  ``f`` is its
    tail constant ``c`` past its horizon, so ``g`` is ``c`` past the last
    block meeting the horizon.  The infima are taken over the scaled
    values, and ``g`` is never built as a function.  The head blocks'
    infima come from one pass over the head states with their block
    numbers, each block's running minimum kept in a list indexed by its
    number (every head block is nonempty, so each gets one).
    """
    scaled, common = f._scaled
    partition = model.partition
    top = len(partition._block_of)
    c = scaled[-1]
    # vals[k - 1] is f at state k for k up to max(horizon, K) + 1
    vals = scaled + (c,) * (top - f.horizon)
    # each block's running minimum, None before its first member
    mins = [None] * len(partition.head)
    for v, i in zip(vals, partition._block_of):
        low = mins[i]
        if low is None or v < low:
            mins[i] = v
    head = map(mins.__getitem__, partition._block_of)
    rest = vals[top:]  # f past K, then c
    if partition.width is None:
        rest = (min(rest),)
    elif partition.width == 2:
        # the pairs meeting the horizon: one straddling it takes c into
        # its min, and past one ending on it the lone c is left unpaired
        pairs = list(map(min, rest[::2], rest[1::2]))
        rest = [c] * (2 * len(pairs) + 1)
        rest[:-1:2] = pairs
        rest[1::2] = pairs
    g = [*head, *rest]
    return _by_parts(g, model.measure) / common


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
    mass it fails, and the report carries the witness chain of the
    requested depth.  An infinite block of mass zero does not break
    continuity (the chain values and the block value all vanish); that
    degenerate case is reported as holding.  A failing report's witness is
    a :class:`ChainWitness`.  The induced capacity is monotone, so the
    longest prefix alone is replayed: its value 0 is every shorter one's.
    """
    check_size(depth, "depth", 1)
    start = model.partition.infinite_atom_start()
    if start is None:
        return PropertyReport(True)
    atom_mass = model.measure.tail(start - 1)
    if atom_mass == 0:
        return PropertyReport(True)
    members = tuple(range(start, start + depth))
    longest = EventuallyConstantFunction.indicator(start + depth - 1, members)
    if countable_psa_integral(longest, model):
        raise RuntimeError("a finite part of the infinite block holds a block")
    return PropertyReport(False, ChainWitness(members, (ZERO,) * depth, atom_mass))


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
    on :class:`CountableConvergenceReport`.  ``converges`` never depends on
    ``depth``; for unit prefixes ``basis`` turns ``"exact"`` once the blocks
    inside ``{1..depth}`` hold all the mass (:func:`_prefix_report`).
    """
    check_size(depth, "depth", 1)
    if seq.family == "unit-prefix":
        return _prefix_report(model, range(1, depth + 1))
    target = countable_psa_integral(seq.limit, model)
    value = countable_psa_integral(seq.f, model)
    return CountableConvergenceReport(
        value == target, "stabilized", (value,) * depth, target,
        target - value, model.partition.all_atoms_finite(),
    )


def _prefix_report(
    model: CountableModel, prefixes: Sequence[int]
) -> CountableConvergenceReport:
    """The unit-prefix report, its trace holding entry ``n`` for each ``n``
    of ``prefixes`` (strictly ascending, from 1) and its verdict read at
    the last, the depth.

    Entry ``n``, the mass of the blocks inside ``{1..n}``, is read from the
    layout: in the head ``{1..K}`` it rises by each block's mass at its last
    state, so only the blocks ending by the depth are summed; from ``K`` on
    it is ``1 - tail(t)``, ``t`` the last state of the last complete block
    (``K`` before an infinite block).  One pass over ``prefixes`` builds
    that entry once per distinct ``t``, from the tail's int pair, so the
    time grows with ``len(prefixes) + K``, not with the depth.
    """
    partition, measure = model.partition, model.measure
    finite_atoms = partition.all_atoms_finite()
    target = countable_psa_integral(EventuallyConstantFunction.constant(1), model)
    top = len(partition._block_of)
    reach = min(top, prefixes[-1])  # the head entries the trace can read
    rises = [ZERO] * reach
    for block in partition.head:
        if block[-1] <= reach:
            # the block's mass: each member k weighs tail(k-1) - tail(k)
            weights = Counter([k - 1 for k in block])
            weights.subtract(block)
            rises[block[-1] - 1] = _tail_sum(weights, measure)
    head = list(accumulate(rises, initial=ZERO))  # entries n = 0..reach
    # past K, blocks of `width` states; an infinite one outlasts the depth
    width = partition.width or prefixes[-1] + 1
    trace, last = [], None
    for n in prefixes:
        if n < top:
            trace.append(head[n])
            continue
        t = n - (n - top) % width  # entry n's t
        if t != last:
            p, q = measure._tail_ratio(t)
            entry, last = Fraction(q - p, q), t
        trace.append(entry)
    trace = tuple(trace)
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
    mass = measure.tail(top)  # the infinite block's
    if mass == 0:
        return report(True, "massless-block")
    return report(False, "divergence-bound", divergence_bound=target - mass)


# ---------------------------------------------------------------------------
# Increasing information
# ---------------------------------------------------------------------------


def _check_refining(partitions: Sequence[CountablePartition]) -> None:
    """Raise ``ValueError`` unless each partition refines the one before.

    States ``1..M+4`` decide it, ``M`` the longer head: past ``M`` each tail
    repeats with period 1 or 2 or is one infinite block, so a fine pair
    past ``M`` splits iff the one from ``M+1`` or ``M+2`` does, and a fine
    infinite block meets two coarse blocks by ``M+4`` unless the coarse
    tail is infinite.  Heads are read from their tables, ``block_key`` past.
    Each fine block's coarse owner is kept in a list indexed by the fine
    block number (block numbers are dense from 0), and states are counted
    only to name the one that splits.
    """
    for j in range(len(partitions) - 1):
        coarse, fine = partitions[j], partitions[j + 1]
        n = max(len(coarse._block_of), len(fine._block_of)) + 4
        fine_keys, coarse_keys = (
            p._block_of + tuple(map(p.block_key, range(len(p._block_of) + 1, n + 1)))
            for p in (fine, coarse)
        )
        # block numbers among states 1..n are dense from 0 and below n
        owner: list[int | None] = [None] * n
        for f, c in zip(fine_keys, coarse_keys):
            if owner[f] == c:
                continue
            if owner[f] is None:
                owner[f] = c
                continue
            # f's owner was set before this pair first came, so the pair
            # failed there: its first state is the one that splits
            k = list(zip(fine_keys, coarse_keys)).index((f, c)) + 1
            raise ValueError(
                f"partition {j + 2} does not refine partition {j + 1} "
                f"(state {k} splits a finer block across coarser ones)"
            )


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
    The witness is ``(indicator of {k}, values per partition, its mass)``,
    the values nondecreasing.  A non-refining sequence raises
    ``ValueError``, decided exactly from the layouts.  ``window`` is unused; the benchmark's tracer
    reads it to count the states a call covers.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    _check_refining(partitions)
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
    event = EventuallyConstantFunction.indicator(k, [k])
    values = [
        countable_psa_integral(event, CountableModel(measure, p)) for p in partitions
    ]
    for a, b in zip(values, values[1:]):
        if a > b:
            raise RuntimeError("induced values decreased along a refinement")
    return PropertyReport(
        False, (event, tuple(values), countable_lebesgue(event, measure))
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
    taken.  ``window`` is unused, as there.
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


def dyadic_partitions(m: int) -> list[CountablePartition]:
    """Stages 0..m of dyadic refinement on ``{1..2**m}``.

    Stage ``j`` has ``2**j`` consecutive blocks of length ``2**(m-j)``
    (singletons beyond carry whatever mass the measure leaves there, none
    for the uniform measure on the window).  Stage ``m`` reaches full
    information on the window.  The heads are built by the refinement
    itself, read backwards: stage ``m``'s singletons, then each coarser
    head by joining adjacent pairs of blocks of the finer one.  Block
    numbers are runs of one width.  Each stage goes through
    :meth:`CountablePartition._built`: consecutive runs of one width from
    1 are sorted, nonempty and partition ``{1..2**m}`` by construction, so
    the per-state checks of ``CountablePartition(...)`` would find nothing.
    """
    size = 1 << check_size(m, "m", 0)
    heads = [tuple(zip(range(1, size + 1)))]
    for _ in range(m):
        finer = heads[-1]
        heads.append(tuple(map(add, finer[::2], finer[1::2])))
    stages = []
    for j, head in enumerate(reversed(heads)):
        block_of = chain.from_iterable(map(repeat, range(1 << j), repeat(size >> j)))
        stages.append(CountablePartition._built(head, tuple(block_of)))
    return stages


# the draws of random_eventually_constant_function, built once
_EIGHTHS = tuple(Fraction(i, 8) for i in range(25))


def random_eventually_constant_function(
    rng: random.Random, horizon: int
) -> EventuallyConstantFunction:
    """Values and tail drawn from ``0, 1/8, ..., 3``."""
    values = tuple(_EIGHTHS[rng.randint(0, 24)] for _ in range(horizon))
    return EventuallyConstantFunction(horizon, values, _EIGHTHS[rng.randint(0, 24)])
