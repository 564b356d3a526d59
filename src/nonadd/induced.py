"""Capacities induced by partial probabilistic information.

A decision maker who knows the probability of every union of partition
blocks, but nothing finer, values an event ``F`` by the probability of
the largest known event inside it.  That value table is the *induced
capacity*; it is always convex (supermodular), so its Choquet and concave
integrals coincide, and it is continuous from above.  Whether it is
null-additive, and whether monotone convergence holds for it, depends on
the partition: this module builds the capacity with its per-event argmax
witness and checks the structural equivalences tying those properties
together.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .capacity import (
    Capacity,
    ProbabilityMeasure,
    PropertyReport,
    check_convex,
    check_dense,
    check_null_additive,
)
from .integrals import psa_integral
from .sets import (
    MaskLike,
    Partition,
    SpaceMismatchError,
    StateSpace,
    SubsetMask,
    generated_algebra,
    mask_bits,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class InducedCapacity:
    """Induced capacity with its argmax witnesses and provenance.

    ``witness_map[mask]`` is the maximal algebra member inside the event
    ``mask``; the capacity value there is exactly the measure of that
    member.  Convexity is verified at construction.
    """

    base: Capacity
    witness_map: tuple[int, ...]
    measure: ProbabilityMeasure
    partition: Partition

    @property
    def space(self) -> StateSpace:
        return self.base.space

    def value(self, event: MaskLike) -> Fraction:
        return self.base.values[mask_bits(event)]


def induce(P: ProbabilityMeasure, partition: Partition) -> InducedCapacity:
    """Build the capacity induced by knowing ``P`` on the partition's algebra.

    For every event ``F`` the witness is the union of all blocks contained
    in ``F``: the inclusion-maximal algebra member below ``F``, which
    measure-dominates every other member below it, so tie-breaking never
    arises.  The value is the measure of the witness.
    """
    if P.space != partition.space:
        raise SpaceMismatchError("measure and partition on different spaces")
    space = P.space
    block_bits = [b.bits for b in partition.blocks]
    table = [ZERO] * space.num_subsets
    witness = [0] * space.num_subsets
    for f in range(space.num_subsets):
        acc = 0
        for b in block_bits:
            if b & ~f == 0:
                acc |= b
        witness[f] = acc
        table[f] = P.mass(acc)
    base = Capacity(space, tuple(table))
    convexity = check_convex(base)
    if not convexity.holds:  # structural guarantee; failing means a bug here
        raise RuntimeError(f"induced capacity not convex: {convexity.detail}")
    return InducedCapacity(base, tuple(witness), P, partition)


def argmax_witness(ic: InducedCapacity, event: MaskLike) -> SubsetMask:
    """The maximal algebra member inside ``event`` realizing the value."""
    return SubsetMask(ic.witness_map[mask_bits(event)], ic.space)


def check_continuity_from_above(
    ic: InducedCapacity,
    *,
    max_exhaustive: int = 6,
    samples: int = 200,
    seed: int = 0,
) -> PropertyReport:
    """Regression sentinel for the witness map along decreasing chains.

    On a finite space every decreasing chain stabilizes, so value
    continuity from above is automatic; what can break is the witness
    bookkeeping.  Along every maximal decreasing chain the witness of each
    intersection must equal the intersection of the witnesses above it.
    All ``n!`` chains are walked for small spaces, a seeded sample
    otherwise.
    """
    n = ic.space.n
    full = ic.space.full_bits
    if n <= max_exhaustive:
        orders = permutations(range(n))
    else:
        rng = random.Random(seed)
        pool = list(range(n))

        def _sampled():
            for _ in range(samples):
                rng.shuffle(pool)
                yield tuple(pool)

        orders = _sampled()

    for order in orders:
        current = full
        running = ic.witness_map[full]
        for k in order:
            current &= ~(1 << k)
            running &= ic.witness_map[current]
            if ic.witness_map[current] != running:
                return PropertyReport(
                    False,
                    (current, ic.witness_map[current], running),
                    "witness of the intersection differs from the "
                    "intersection of witnesses",
                )
    return PropertyReport(True)


@dataclass(frozen=True)
class WeakAEEquivalenceReport:
    """The four-way equivalence around weak almost-everywhere convergence.

    For a capacity induced by ``(P, partition)`` the following stand or
    fall together (for strictly positive ``P``):

    1. the algebra is dense in the powerset;
    2. the induced integral agrees with the ordinary one against ``P``;
    3. integrals converge along every increasing sequence converging
       weakly almost everywhere (w.r.t. the induced capacity);
    4. the induced capacity is null-additive.

    Condition 2 is sampled over 20 seeded random functions and condition 3
    over the family ``generate_sequences(count=8)`` builds; 1 and 4 are
    exact sweeps.  ``agree``
    says whether all four verdicts coincide.  With null ``P``-states the
    equivalence is not asserted, only reported.
    """

    dense: PropertyReport
    lebesgue: PropertyReport
    monotone_convergence: PropertyReport
    null_additive: PropertyReport
    strictly_positive: bool

    def verdicts(self) -> dict[str, bool]:
        return {
            "dense": self.dense.holds,
            "lebesgue": self.lebesgue.holds,
            "monotone_convergence": self.monotone_convergence.holds,
            "null_additive": self.null_additive.holds,
        }

    @property
    def agree(self) -> bool:
        flags = set(self.verdicts().values())
        return len(flags) == 1


def check_weak_ae_equivalence(
    P: ProbabilityMeasure,
    partition: Partition,
    *,
    seed: int = 0,
) -> WeakAEEquivalenceReport:
    """Evaluate all four conditions of the weak-a.e. equivalence.

    Returns the per-condition reports; callers assert agreement where the
    hypothesis (strictly positive ``P``) warrants it.
    """
    from . import convergence  # deferred: convergence uses this module's induce

    ic = induce(P, partition)
    algebra = generated_algebra(partition)

    dense = check_dense(algebra, P)
    null_additive = check_null_additive(ic.base)

    rng = random.Random(f"{seed}|weak-ae-equivalence")
    lebesgue = PropertyReport(True)
    for _ in range(20):
        f = convergence.random_simple_function(P.space, rng)
        lhs = psa_integral(f, P, partition).value
        rhs = f.expectation(P)
        if lhs != rhs:
            lebesgue = PropertyReport(
                False,
                (f.values, lhs, rhs),
                f"partial-information integral {lhs} != expectation {rhs}",
            )
            break

    monotone = PropertyReport(True)
    for seq in convergence.generate_sequences(ic.base, seed=seed, count=8):
        weak = convergence.converges_weak_ae(seq, ic.base)
        if not weak.holds:
            continue
        exp = convergence.monotone_convergence_experiment(seq, ic.base)
        if not exp.holds:
            monotone = PropertyReport(
                False,
                (seq.divergence_bits(), exp.integral_trace, exp.limit_integral),
                "a weakly-a.e. convergent sequence has non-convergent integrals",
            )
            break

    return WeakAEEquivalenceReport(
        dense=dense,
        lebesgue=lebesgue,
        monotone_convergence=monotone,
        null_additive=null_additive,
        strictly_positive=P.is_strictly_positive(),
    )
