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
    mask_bits,
    max_member_table,
)


@dataclass(frozen=True)
class InducedCapacity:
    """Induced capacity with its argmax witnesses and provenance.

    ``witness_map[mask]`` is the maximal algebra member inside the event
    ``mask``, the partition's :func:`~nonadd.sets.max_member_table`; the
    capacity value there is exactly the measure of that member.
    Convexity is verified at construction.
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
    witness = tuple(max_member_table(partition))
    mass = P.mass_table
    base = Capacity(P.space, tuple(mass[acc] for acc in witness))
    convexity = check_convex(base)
    if not convexity.holds:  # structural guarantee; failing means a bug here
        raise RuntimeError(f"induced capacity not convex: {convexity.detail}")
    return InducedCapacity(base, witness, P, partition)


def argmax_witness(ic: InducedCapacity, event: MaskLike) -> SubsetMask:
    """The maximal algebra member inside ``event`` realizing the value."""
    return SubsetMask(ic.witness_map[mask_bits(event)], ic.space)


def check_continuity_from_above(ic: InducedCapacity) -> PropertyReport:
    """Regression sentinel for the witness map along decreasing chains.

    On a finite space every decreasing chain stabilizes, so value
    continuity from above is automatic; what can break is the witness
    bookkeeping.  Along every maximal decreasing chain the witness of each
    intersection must equal the intersection of the witnesses above it.
    That holds for all ``n!`` chains exactly when every covering pair
    ``F ⊃ F - {k}`` has ``w(F - {k}) ⊆ w(F)``, which is what is scanned.
    ``F`` runs down from the full set, so at the first failing pair the
    witnesses above ``F`` are nested, and a chain through ``F`` then
    ``F - {k}`` fails there with the reported witness ``(F - {k},
    w(F - {k}), w(F) & w(F - {k}))``.
    """
    w = ic.witness_map
    for f in range(ic.space.full_bits, 0, -1):
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            g = f ^ low
            if w[g] & ~w[f]:
                return PropertyReport(
                    False,
                    (g, w[g], w[f] & w[g]),
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
    dense = check_dense(partition, P)
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
