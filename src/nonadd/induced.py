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

from .capacity import (
    Capacity,
    ProbabilityMeasure,
    PropertyReport,
    check_dense,
    check_null_additive,
)
from .integrals import psa_integral
from .sets import (
    Partition,
    StateSpace,
    SubsetMask,
    check_mask,
    max_member_table,
    same_space,
)


@dataclass(frozen=True)
class InducedCapacity:
    """Induced capacity with its argmax witnesses.

    ``witness_map[mask]`` is the maximal algebra member inside the event
    ``mask``, the partition's :func:`~nonadd.sets.max_member_table`; the
    capacity value there is exactly the measure of that member.
    The capacity is convex by construction, as its Möbius mass is ``P(B)``
    on each block ``B`` and 0 elsewhere; the tests check those masses.
    """

    base: Capacity
    witness_map: tuple[int, ...]

    @property
    def space(self) -> StateSpace:
        return self.base.space


def induce(P: ProbabilityMeasure, partition: Partition) -> InducedCapacity:
    """Build the capacity induced by knowing ``P`` on the partition's algebra.

    For every event ``F`` the witness is the union of all blocks contained
    in ``F``: the inclusion-maximal algebra member below ``F``, which
    measure-dominates every other member below it, so tie-breaking never
    arises.  The value is the measure of the witness.
    """
    same_space(P, partition)
    witness = tuple(max_member_table(partition))
    mass = P.mass_table
    base = Capacity(P.space, tuple(mass[acc] for acc in witness))
    return InducedCapacity(base, witness)


def argmax_witness(ic: InducedCapacity, event: int) -> SubsetMask:
    """The maximal algebra member inside ``event`` realizing the value."""
    return SubsetMask(ic.witness_map[check_mask(event, ic.space)], ic.space)


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
            lebesgue = PropertyReport(False, (f.values, lhs, rhs))
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
            )
            break

    return WeakAEEquivalenceReport(
        dense=dense,
        lebesgue=lebesgue,
        monotone_convergence=monotone,
        null_additive=null_additive,
        strictly_positive=P.is_strictly_positive(),
    )
