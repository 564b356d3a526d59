"""Exact models on the countable state space ``{1, 2, 3, ...}``.

On a finite space every capacity is continuous from below (increasing
chains stabilize), so the interesting failures of monotone convergence
need infinitely many states.  This module realizes them exactly:

* measures come with a closed-form tail ``T(N) = sum_{k > N} p_k``, so no
  value is ever truncated or rounded;
* partitions come from canonical families (singletons, one infinite
  block, consecutive pairs, a finite prefix block with singleton or
  lumped tail, explicit finite blocks) whose members intersecting any
  finite window can be listed with their exact masses;
* functions and test events are eventually constant, so each integral
  under partition-limited information is a finite sum: blocks meeting the
  window contribute their exact infimum times their mass, and everything
  beyond contributes the tail constant times the leftover mass.

Whether such a model satisfies monotone convergence turns on a single
structural question: are all blocks finite?  The checks below pair each
verdict with the explicit witness chain (prefixes of an infinite block
whose values stay at zero while the block itself carries positive mass).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .capacity import PropertyReport, _as_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

FINITE_FAMILIES = ("singletons", "pairs")
TAIL_MODES = ("singletons", "lump")


@dataclass(frozen=True)
class CountableMeasure:
    """Summable weights on ``{1, 2, ...}`` with an exact tail rule.

    ``weight(k)`` is the mass of state ``k`` and ``tail(N)`` the total mass
    beyond ``N``; ``tail(0) == 1``.  Consistency (``tail(N) ==
    tail(N+1) + weight(N+1)``) is spot-checked on a short prefix at
    construction; the rules are trusted beyond that, which is what makes
    infinite-tail arithmetic exact.
    """

    name: str
    weight_rule: Callable[[int], Fraction]
    tail_rule: Callable[[int], Fraction]

    def __post_init__(self) -> None:
        if self.tail_rule(0) != 1:
            raise ValueError("total mass must be exactly 1")
        for n in range(8):
            lhs = self.tail_rule(n)
            rhs = self.tail_rule(n + 1) + self.weight_rule(n + 1)
            if lhs != rhs:
                raise ValueError(
                    f"tail rule inconsistent at N={n}: {lhs} != {rhs}"
                )
            if self.weight_rule(n + 1) < 0:
                raise ValueError(f"negative weight at k={n + 1}")

    def weight(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError("states are numbered from 1")
        return self.weight_rule(k)

    def tail(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("tail index must be nonnegative")
        return self.tail_rule(n)

    def prefix_mass(self, n: int) -> Fraction:
        return ONE - self.tail(n)

    def mass_of(self, states: Iterable[int]) -> Fraction:
        return sum((self.weight(k) for k in states), ZERO)


def telescoping_measure() -> CountableMeasure:
    """``p_k = 1/(k(k+1))`` with tail ``T(N) = 1/(N+1)``.

    An exactly summable stand-in for weights of order ``1/k^2``: the
    partial sums telescope, so every prefix and tail is a small rational.
    """
    return CountableMeasure(
        "telescoping",
        lambda k: Fraction(1, k * (k + 1)),
        lambda n: Fraction(1, n + 1),
    )


def finite_measure(weights: Sequence[Fraction | int | str]) -> CountableMeasure:
    """All mass on ``{1..len(weights)}``; the tail rule is a finite suffix sum."""
    ws = tuple(_as_fraction(w) for w in weights)
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    if sum(ws) != 1:
        raise ValueError(f"weights sum to {sum(ws)}, expected 1")
    suffix = [ZERO] * (len(ws) + 1)
    for i in range(len(ws) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ws[i]

    def _weight(k: int) -> Fraction:
        return ws[k - 1] if k <= len(ws) else ZERO

    def _tail(n: int) -> Fraction:
        return suffix[n] if n < len(ws) else ZERO

    return CountableMeasure(f"finite[{len(ws)}]", _weight, _tail)


def uniform_finite_measure(size: int) -> CountableMeasure:
    return finite_measure([Fraction(1, size)] * size)


@dataclass(frozen=True)
class CoveredBlock:
    """One block meeting a finite window.

    ``members`` is the complete member list for a finite block; for an
    infinite block it lists the members up to at least the window, the
    rest being implicitly beyond it.  ``mass`` is exact either way.
    """

    members: tuple[int, ...]
    infinite: bool
    mass: Fraction


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
    """

    family: str
    prefix_len: int = 0
    tail_mode: str = "singletons"
    explicit_blocks: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in ("singletons", "trivial", "pairs", "prefix", "blocks"):
            raise ValueError(f"unknown partition family {self.family!r}")
        if self.tail_mode not in TAIL_MODES:
            raise ValueError(f"unknown tail mode {self.tail_mode!r}")
        if self.family == "prefix":
            if self.prefix_len < 1:
                raise ValueError("prefix family needs prefix_len >= 1")
        if self.family == "blocks":
            blocks = tuple(tuple(sorted(int(k) for k in b)) for b in self.explicit_blocks)
            object.__setattr__(self, "explicit_blocks", blocks)
            seen: set[int] = set()
            for b in blocks:
                if not b:
                    raise ValueError("empty explicit block")
                if seen & set(b):
                    raise ValueError("explicit blocks overlap")
                seen |= set(b)
            top = max(seen, default=0)
            if seen != set(range(1, top + 1)):
                raise ValueError("explicit blocks must partition 1..K")
            object.__setattr__(self, "prefix_len", top)

    # -- structure ---------------------------------------------------------

    def block_key(self, k: int):
        """Hashable identifier of the block containing state ``k``."""
        if k < 1:
            raise ValueError("states are numbered from 1")
        if self.family == "singletons":
            return ("state", k)
        if self.family == "trivial":
            return ("all",)
        if self.family == "pairs":
            return ("pair", (k + 1) // 2)
        if self.family == "prefix":
            if k <= self.prefix_len:
                return ("prefix",)
        else:  # blocks
            for i, b in enumerate(self.explicit_blocks):
                if k in b:
                    return ("block", i)
        if self.tail_mode == "singletons":
            return ("state", k)
        return ("tail",)

    def all_atoms_finite(self) -> bool:
        if self.family in FINITE_FAMILIES:
            return True
        if self.family == "trivial":
            return False
        return self.tail_mode == "singletons"

    def infinite_atom_start(self) -> int | None:
        """First state of the canonical infinite block, if there is one."""
        if self.family == "trivial":
            return 1
        if self.family in ("prefix", "blocks") and self.tail_mode == "lump":
            return self.prefix_len + 1
        return None

    def cover(
        self, measure: CountableMeasure, horizon: int
    ) -> tuple[list[CoveredBlock], Fraction]:
        """Blocks meeting ``{1..horizon}`` plus the leftover mass beyond.

        Every block not listed lies entirely beyond the horizon, so on an
        eventually-constant function its infimum is the tail constant;
        the caller folds all of those into ``remainder`` at once.
        """
        blocks: list[CoveredBlock] = []
        if self.family == "singletons":
            for k in range(1, horizon + 1):
                blocks.append(CoveredBlock((k,), False, measure.weight(k)))
        elif self.family == "trivial":
            if horizon >= 1:
                blocks.append(
                    CoveredBlock(tuple(range(1, horizon + 1)), True, ONE)
                )
        elif self.family == "pairs":
            for k in range(1, (horizon + 1) // 2 + 1):
                members = (2 * k - 1, 2 * k)
                blocks.append(
                    CoveredBlock(members, False, measure.mass_of(members))
                )
        else:  # prefix / blocks share the tail handling
            top = self.prefix_len
            if horizon >= 1:
                if self.family == "prefix":
                    members = tuple(range(1, top + 1))
                    blocks.append(
                        CoveredBlock(members, False, measure.prefix_mass(top))
                    )
                else:
                    for b in self.explicit_blocks:
                        if b[0] <= horizon:
                            blocks.append(
                                CoveredBlock(b, False, measure.mass_of(b))
                            )
            if self.tail_mode == "singletons":
                for k in range(top + 1, horizon + 1):
                    blocks.append(CoveredBlock((k,), False, measure.weight(k)))
            elif horizon > top:
                blocks.append(
                    CoveredBlock(
                        tuple(range(top + 1, horizon + 1)),
                        True,
                        measure.tail(top),
                    )
                )
        remainder = ONE - sum((b.mass for b in blocks), ZERO)
        return blocks, remainder


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
    either everything or nothing."""

    horizon: int
    members: tuple[int, ...]
    tail_in: bool

    def __post_init__(self) -> None:
        members = tuple(sorted(set(int(k) for k in self.members)))
        object.__setattr__(self, "members", members)
        if members and (members[0] < 1 or members[-1] > self.horizon):
            raise ValueError("explicit members must lie in 1..horizon")

    def __contains__(self, k: int) -> bool:
        return k in self.members if k <= self.horizon else self.tail_in

    def __le__(self, other: EventuallyConstantSet) -> bool:
        if any(k not in other for k in self.members):
            return False
        if self.tail_in:
            if not other.tail_in:
                return False
            for k in range(self.horizon + 1, other.horizon + 1):
                if k not in other:
                    return False
        return True

    def mass(self, measure: CountableMeasure) -> Fraction:
        total = measure.mass_of(self.members)
        if self.tail_in:
            total += measure.tail(self.horizon)
        return total

    @classmethod
    def whole(cls) -> EventuallyConstantSet:
        return cls(0, (), True)

    @classmethod
    def prefix(cls, n: int) -> EventuallyConstantSet:
        return cls(n, tuple(range(1, n + 1)), False)

    @classmethod
    def finite(cls, states: Iterable[int]) -> EventuallyConstantSet:
        members = tuple(sorted(set(int(k) for k in states)))
        top = members[-1] if members else 0
        return cls(top, members, False)


@dataclass(frozen=True)
class CountableModel:
    """A measure plus a partition: the countable information structure."""

    measure: CountableMeasure
    partition: CountablePartition


def countable_lebesgue(
    f: EventuallyConstantFunction, measure: CountableMeasure
) -> Fraction:
    """Ordinary integral: explicit part plus tail constant times tail mass."""
    total = sum(
        (f.values[k - 1] * measure.weight(k) for k in range(1, f.horizon + 1)),
        ZERO,
    )
    return total + f.tail * measure.tail(f.horizon)


def countable_psa_integral(
    f: EventuallyConstantFunction, model: CountableModel
) -> Fraction:
    """Partition-limited integral: each block's infimum times its mass.

    Blocks meeting the function's horizon are evaluated explicitly (for an
    infinite block the unlisted members sit beyond the horizon, where
    ``f`` equals its tail constant); all blocks beyond contribute the tail
    constant times the remaining mass.  Exact.
    """
    blocks, remainder = model.partition.cover(model.measure, f.horizon)
    total = ZERO
    for b in blocks:
        inf = min(f(k) for k in b.members)
        if b.infinite and f.tail < inf:
            inf = f.tail
        total += inf * b.mass
    return total + f.tail * remainder


def countable_induced_value(
    event: EventuallyConstantSet, model: CountableModel
) -> Fraction:
    """Value of the induced capacity at an event: mass of the blocks inside.

    A finite block is inside iff all its members are; an infinite block
    additionally needs the event to contain the whole tail.  Blocks beyond
    the event's horizon are inside exactly when the tail is.
    """
    blocks, remainder = model.partition.cover(model.measure, event.horizon)
    total = ZERO
    for b in blocks:
        if b.infinite and not event.tail_in:
            continue
        if all(k in event for k in b.members):
            total += b.mass
    if event.tail_in:
        total += remainder
    return total


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
    if model.partition.all_atoms_finite():
        return PropertyReport(True, detail="all blocks finite")
    start = model.partition.infinite_atom_start()
    if start is None:
        raise RuntimeError("non-finite family without a canonical infinite block")
    atom = EventuallyConstantSet(start - 1 if start > 1 else 0, (), True)
    atom_mass = atom.mass(model.measure)
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


def _inf_over_set(
    g: EventuallyConstantFunction, s: EventuallyConstantSet
) -> Fraction:
    candidates = [g(k) for k in s.members]
    if s.tail_in:
        candidates.extend(
            g(k) for k in range(s.horizon + 1, g.horizon + 1)
        )
        candidates.append(g.tail)
    if not candidates:
        raise ValueError("infimum over the empty set")
    return min(candidates)


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
        atom = EventuallyConstantSet(max(start - 1, 0), (), True)
        mass = atom.mass(model.measure)
        inf_limit = _inf_over_set(seq.limit, atom)
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
    the m-th entry is the partial sum of the weights through ``2m``,
    computed incrementally, which keeps the whole trace cheap at any
    depth.  Under the telescoping measure the m-th entry is
    ``1 - 1/(2m+1)``.
    """
    measure = telescoping_measure()
    trace: list[Fraction] = []
    running = ZERO
    for m in range(1, depth + 1):
        running += measure.weight(2 * m - 1) + measure.weight(2 * m)
        trace.append(running)
    return trace


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
