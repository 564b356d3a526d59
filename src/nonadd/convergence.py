"""Convergence-mode detectors and monotone-convergence experiments.

A sequence of functions on a finite space is represented by its explicit
prefix: ``terms[-1]`` is declared to repeat forever, so every per-state
limit is exact and every verdict below is an exact decision, not a
numerical guess.  The declared ``limit`` of a sequence may differ from its
pointwise limit; that mismatch, confined to a set the capacity ignores,
is precisely what separates the convergence modes:

* pointwise:    the divergence set is empty;
* P-a.e.:       the divergence set has measure zero;
* weak v-a.e.:  the divergence set has capacity zero;
* strong v-a.e.: inside every event, the convergence part carries
  the event's full capacity.

The module also builds the two constructive counterexamples the theory
turns on: a sequence separating weak from strong convergence whenever the
capacity fails null-additivity, and a function separating the concave
from the Choquet integral whenever it fails convexity.  Seeded generators
supply capacities and sequence families for sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .capacity import (
    Capacity,
    ProbabilityMeasure,
    check_null_additive,
    maximal_null_sets,
)
from .integrals import (
    SimpleFunction,
    choquet_integral,
    concave_integral,
)
from .sets import MaskLike, Partition, SpaceMismatchError, StateSpace, mask_bits

ZERO = Fraction(0)


@dataclass(frozen=True)
class FunctionSequence:
    """Eventually-constant sequence of functions with a declared limit.

    ``terms`` lists ``f_1 .. f_N``; for ``n >= N`` the sequence stays at
    ``terms[-1]``.  Terms must be pointwise nondecreasing.  ``limit`` is
    the function the sequence is *claimed* to converge to; states where
    the stable term differs from it form the divergence set.
    """

    terms: tuple[SimpleFunction, ...]
    limit: SimpleFunction

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("need at least one term")
        space = self.limit.space
        for f in terms:
            if f.space != space:
                raise SpaceMismatchError("sequence terms on different spaces")
        for a, b in zip(terms, terms[1:]):
            if not a <= b:
                raise ValueError("sequence must be pointwise nondecreasing")

    @property
    def space(self) -> StateSpace:
        return self.limit.space

    def stable(self) -> SimpleFunction:
        """The eventual (pointwise-limit) function."""
        return self.terms[-1]

    def divergence_bits(self) -> int:
        """Mask of states where the sequence does not reach the declared limit."""
        bits = 0
        for k, (a, b) in enumerate(zip(self.stable().values, self.limit.values)):
            if a != b:
                bits |= 1 << k
        return bits


@dataclass(frozen=True)
class ConvergenceReport:
    """Verdict of a convergence-mode test or integral-convergence experiment."""

    mode: str
    holds: bool
    witness: tuple | None = None
    integral_trace: tuple[Fraction, ...] | None = None
    limit_integral: Fraction | None = None

    def __bool__(self) -> bool:
        return self.holds


def converges_pointwise(seq: FunctionSequence) -> ConvergenceReport:
    """Does every state reach the declared limit?"""
    d = seq.divergence_bits()
    return ConvergenceReport("pointwise", d == 0, None if d == 0 else (d,))


def converges_weak_ae(seq: FunctionSequence, v: Capacity) -> ConvergenceReport:
    """Weak almost-everywhere convergence: the divergence set is ``v``-null."""
    if seq.space != v.space:
        raise SpaceMismatchError("sequence and capacity on different spaces")
    d = seq.divergence_bits()
    holds = v.values[d] == 0
    return ConvergenceReport(
        "weak-v-ae", holds, None if holds else (d, v.values[d])
    )


def converges_strong_ae(seq: FunctionSequence, v: Capacity) -> ConvergenceReport:
    """Strong almost-everywhere convergence.

    Inside every event ``F`` the converging part must carry the event's
    whole capacity: ``v(F & C) == v(F)`` for the convergence set ``C``.
    The witness is an event where the equality fails.
    """
    if seq.space != v.space:
        raise SpaceMismatchError("sequence and capacity on different spaces")
    conv = seq.space.full_bits & ~seq.divergence_bits()
    for f in range(seq.space.num_subsets):
        if v.values[f & conv] != v.values[f]:
            return ConvergenceReport(
                "strong-v-ae", False, (f, v.values[f & conv], v.values[f])
            )
    return ConvergenceReport("strong-v-ae", True)


def converges_P_ae(seq: FunctionSequence, P: ProbabilityMeasure) -> ConvergenceReport:
    """Measure-a.e. convergence: the divergence set has ``P``-mass zero."""
    if seq.space != P.space:
        raise SpaceMismatchError("sequence and measure on different spaces")
    d = seq.divergence_bits()
    mass = P.mass(d)
    holds = mass == 0
    return ConvergenceReport("P-ae", holds, None if holds else (d, mass))


def monotone_convergence_experiment(
    seq: FunctionSequence, v: Capacity, integral: str = "choquet"
) -> ConvergenceReport:
    """Do the integrals of the terms converge to the integral of the limit?

    The integral sequence stabilizes with the terms, so the limit of
    integrals is the integral of the stable term, compared exactly
    against the integral of the declared limit.
    """
    if integral == "choquet":
        compute = choquet_integral
    elif integral == "cav":
        compute = concave_integral
    else:
        raise ValueError(f"unknown integral {integral!r}")
    trace = tuple(compute(f, v).value for f in seq.terms)
    target = compute(seq.limit, v).value
    holds = trace[-1] == target
    return ConvergenceReport(
        f"monotone-convergence-{integral}",
        holds,
        None if holds else (trace[-1], target),
        integral_trace=trace,
        limit_integral=target,
    )


def counterexample_null_additivity(
    v: Capacity, e: MaskLike, f: MaskLike
) -> FunctionSequence:
    """The sequence separating weak from strong convergence.

    Requires ``v(E) = 0`` and ``v(F | E) > v(F)``.  The constant sequence
    at the indicator of ``F``, declared to converge to the indicator of
    ``F | E``, then converges weakly (the divergence set sits inside the
    null ``E``) but not strongly (inside ``F | E`` the converging part
    only carries ``v(F)``), and its Choquet integrals stay at ``v(F)``
    short of ``v(F | E)``.
    """
    eb, fb = mask_bits(e), mask_bits(f)
    if v.values[eb] != 0:
        raise ValueError(f"E must be null, got v(E) = {v.values[eb]}")
    if v.values[eb | fb] <= v.values[fb]:
        raise ValueError("need v(F | E) > v(F) for a counterexample")
    space = v.space
    term = SimpleFunction.indicator(space, fb)
    limit = SimpleFunction.indicator(space, eb | fb)
    return FunctionSequence((term,), limit)


def convexity_gap_witness(
    v: Capacity, e: MaskLike, f: MaskLike
) -> tuple[SimpleFunction, Fraction]:
    """A function on which the concave integral strictly beats the Choquet.

    Requires the pair to violate supermodularity.  For
    ``g = indicator(E) + indicator(F)`` the concave integral is at least
    ``v(E) + v(F)`` (take the pair itself as decomposition) while the
    layer formula gives exactly ``v(E | F) + v(E & F)``, so the gap is at
    least the violation amount.  Returns ``g`` and the exact gap.
    """
    eb, fb = mask_bits(e), mask_bits(f)
    violation = (v.values[eb] + v.values[fb]) - (
        v.values[eb | fb] + v.values[eb & fb]
    )
    if violation <= 0:
        raise ValueError("pair does not violate convexity")
    g = SimpleFunction.indicator(v.space, eb) + SimpleFunction.indicator(
        v.space, fb
    )
    gap = concave_integral(g, v).value - choquet_integral(g, v).value
    if gap < violation:
        raise RuntimeError("gap smaller than the convexity violation")
    return g, gap


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

PROFILES = ("general", "convex", "null-additive", "induced")


def random_capacity(n: int, seed: int, profile: str = "general") -> Capacity:
    """Deterministic capacity from ``(n, seed, profile)``.

    * ``general``:       random table completed upward to monotonicity;
    * ``convex``:        nonnegative masses spread over random events,
      value = total mass inside (totally monotone, hence supermodular);
    * ``null-additive``: a general table plus a strictly positive additive
      part, leaving the empty set as the only null set;
    * ``induced``:       built from a random measure and partition.

    Same arguments, same table: the generators drive reproducible sweeps.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    space = StateSpace(n)
    rng = random.Random(f"{seed}|{profile}|{n}")
    if profile == "general":
        return _random_monotone(space, rng)
    if profile == "convex":
        return _random_totally_monotone(space, rng)
    if profile == "null-additive":
        rough = _random_monotone(space, rng)
        extra = random_probability(space, rng, strictly_positive=True)
        bump = Fraction(1, rng.randint(2, 6))
        table = [
            x + bump * extra.mass_table[m] for m, x in enumerate(rough.values)
        ]
        return Capacity(space, tuple(table))
    from .induced import induce  # deferred: induced builds on this module's peers

    P = random_probability(space, rng, strictly_positive=True)
    partition = random_partition(space, rng)
    return induce(P, partition).base


def _over(denom: int, numerators: list[int]) -> tuple[Fraction, ...]:
    """The table ``numerators / denom``, one Fraction per distinct entry."""
    fractions = {x: Fraction(x, denom) for x in set(numerators)}
    return tuple(fractions[x] for x in numerators)


def _random_monotone(space: StateSpace, rng: random.Random) -> Capacity:
    denom = rng.choice((8, 12, 16, 24))
    table = [0] * space.num_subsets  # numerators over denom
    for mask in range(1, space.num_subsets):
        floor = 0
        rest = mask
        while rest:
            low = rest & -rest
            below = table[mask ^ low]
            if below > floor:
                floor = below
            rest ^= low
        table[mask] = max(floor, rng.randint(0, denom))
    return Capacity(space, _over(denom, table))


def _random_totally_monotone(space: StateSpace, rng: random.Random) -> Capacity:
    denom = rng.choice((12, 24, 60))
    masses: dict[int, int] = {}  # numerators over denom
    for _ in range(rng.randint(space.n, 2 * space.n + 1)):
        event = rng.randint(1, space.full_bits)
        masses[event] = masses.get(event, 0) + rng.randint(1, denom)
    table = [0] * space.num_subsets
    for event, w in masses.items():
        table[event] = table[event] + w
    # zeta transform: value at F becomes the total mass of events inside F
    for k in range(space.n):
        bit = 1 << k
        for mask in range(space.num_subsets):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    return Capacity(space, _over(denom, table))


def random_probability(
    space: StateSpace, rng: random.Random, strictly_positive: bool = True
) -> ProbabilityMeasure:
    low = 1 if strictly_positive else 0
    raw = [rng.randint(low, 9) for _ in space.states()]
    if sum(raw) == 0:
        raw[rng.randrange(space.n)] = 1
    total = sum(raw)
    return ProbabilityMeasure(space, tuple(Fraction(r, total) for r in raw))


def random_partition(space: StateSpace, rng: random.Random) -> Partition:
    num_blocks = rng.randint(1, space.n)
    assignment = [rng.randrange(num_blocks) for _ in space.states()]
    # make sure block ids 0..num_blocks-1 are all inhabited
    for b in range(num_blocks):
        if b not in assignment:
            assignment[rng.randrange(space.n)] = b
    groups: dict[int, list[int]] = {}
    for state, b in enumerate(assignment):
        groups.setdefault(b, []).append(state)
    return Partition.from_blocks(space, groups.values())


def random_simple_function(
    space: StateSpace, rng: random.Random, denom: int = 12, top: int = 48
) -> SimpleFunction:
    return SimpleFunction(
        space, tuple(Fraction(rng.randint(0, top), denom) for _ in space.states())
    )


def generate_sequences(
    v: Capacity, *, seed: int = 0, count: int = 6
) -> list[FunctionSequence]:
    """Seeded family of increasing sequences targeted at ``v``.

    Mixes four shapes: indicator ramps along a random growing chain of
    events; scaled ramps to a random limit (both pointwise convergent);
    ramps stuck strictly below the limit on a null set of ``v`` (weakly
    but not pointwise convergent); and the null-additivity counterexample
    built from ``v``'s own witness whenever ``v`` is not null-additive.
    Sufficiency sweeps are universally quantified over this family, not
    over all sequences, and documented as such.
    """
    rng = random.Random(f"{seed}|sequences")
    space = v.space
    out: list[FunctionSequence] = []

    nulls = [m for m in maximal_null_sets(v) if m != 0]
    for i in range(count):
        if i % 3 == 2:
            out.append(_indicator_ramp(space, rng))
            continue
        target = random_simple_function(space, rng)
        steps = rng.randint(2, 4)
        stuck_bits = 0
        if nulls and i % 2 == 1:
            stuck_bits = nulls[rng.randrange(len(nulls))]
        terms = []
        for s in range(1, steps + 1):
            ramp = Fraction(s, steps)
            values = []
            for k, x in enumerate(target.values):
                if stuck_bits >> k & 1:
                    values.append(x / 2)
                else:
                    values.append(ramp * x)
            terms.append(SimpleFunction(space, tuple(values)))
        out.append(FunctionSequence(tuple(terms), target))

    report = check_null_additive(v)
    if not report.holds:
        e, f = report.witness
        out.append(counterexample_null_additivity(v, e, f))
    return out


def _indicator_ramp(space: StateSpace, rng: random.Random) -> FunctionSequence:
    """Indicators of a random chain of events growing to a random target."""
    target_bits = rng.randint(0, space.full_bits)
    order = list(range(space.n))
    rng.shuffle(order)
    chain = []
    acc = 0
    for k in order:
        if target_bits >> k & 1:
            acc |= 1 << k
            chain.append(acc)
    if not chain:
        chain = [0]
    terms = tuple(SimpleFunction.indicator(space, m) for m in chain)
    return FunctionSequence(terms, SimpleFunction.indicator(space, target_bits))
