"""
Countable state spaces: where continuity from below genuinely fails
===================================================================

On a finite space every increasing chain of events stabilizes, so
monotone convergence cannot fail for structural reasons.  With countably
many states it can, and the divide is clean: all blocks finite (fine
information) versus an infinite block (a blind spot of positive mass).
"""
from nonadd import (
    EventuallyConstantFunction,
    continuity_from_below_countable,
    countable_psa_integral,
    monotone_convergence_countable,
    pairs_model,
    trivial_model,
    unit_prefix_sequence,
)

# Weights 1/(k(k+1)) summing exactly to 1; blocks pair 2k-1 with 2k.
pairs = pairs_model()
print("integral of 1 on the pair model:", countable_psa_integral(
    EventuallyConstantFunction.constant(1), pairs))

# Every second entry of the trace: the m-th integrates the indicator of {1..2m}.
report = monotone_convergence_countable(pairs, unit_prefix_sequence())
print("\nprefix-indicator trace (first 6):",
      [str(x) for x in report.integral_trace[1::2]])
print("converges?", report.converges, f"({report.basis})")
print("gap at probe depth:", report.gap_at_depth)

# The trivial field knows only the total mass: one infinite block.
trivial = trivial_model()
report = monotone_convergence_countable(trivial, unit_prefix_sequence())
print("\ntrivial field trace:", [str(x) for x in report.integral_trace[:6]], "...")
print("integral of the limit:", report.limit_integral)
print("converges?", report.converges, f"({report.basis})",
      "- certified ceiling:", report.divergence_bound)

below = continuity_from_below_countable(trivial, depth=6)
print("\ncontinuity from below?", below.holds)
w = below.witness
print("witness chain prefixes:", w.prefix_members)
print("their values:", [str(x) for x in w.prefix_values], "vs block mass", w.atom_mass)
