"""Exact non-additive integration over finite and countable state spaces.

Capacities (monotone set functions), the Choquet and concave integrals
against them, capacities induced by partial probabilistic information,
and the structural properties (null-additivity, density, continuity)
that decide when monotone convergence of integrals holds.  All arithmetic
is exact rational; every failed check carries a replayable witness.
"""

from .capacity import (
    Capacity,
    CapacityError,
    ProbabilityMeasure,
    PropertyReport,
    check_convex,
    check_dense,
    check_monotone,
    check_null_additive,
    check_P_null_additive,
    maximal_null_sets,
)
from .convergence import (
    ConvergenceReport,
    FunctionSequence,
    converges_P_ae,
    converges_pointwise,
    converges_strong_ae,
    converges_weak_ae,
    convexity_gap_witness,
    counterexample_null_additivity,
    generate_sequences,
    monotone_convergence_experiment,
    random_capacity,
    random_partition,
    random_probability,
    random_simple_function,
)
from .countable import (
    CountableFunctionSequence,
    CountableModel,
    CountableMeasure,
    CountablePartition,
    EventuallyConstantFunction,
    EventuallyConstantSet,
    check_increases_continuously,
    continuity_from_below_countable,
    countable_induced_value,
    countable_lebesgue,
    countable_psa_integral,
    dyadic_partitions,
    finite_measure,
    increasing_information_run,
    monotone_convergence_countable,
    pairs_model,
    pairs_partial_sum_trace,
    singletons_model,
    telescoping_measure,
    trivial_model,
    uniform_finite_measure,
    unit_prefix_sequence,
)
from .induced import (
    InducedCapacity,
    WeakAEEquivalenceReport,
    argmax_witness,
    check_continuity_from_above,
    check_weak_ae_equivalence,
    induce,
)
from .integrals import (
    Decomposition,
    FunctionDecomposition,
    IntegralResult,
    SimpleFunction,
    balanced_cover,
    brute_force_cav_oracle,
    chain_restricted_value,
    choquet_integral,
    concave_integral,
    induced_psp_capacity,
    psa_integral,
    psp_integral,
    verify_dual_certificate,
)
from .sets import (
    AlgebraView,
    Partition,
    SpaceMismatchError,
    StateSpace,
    SubsetMask,
    generated_algebra,
    mask_bits,
)

__version__ = "0.1.0"
