"""
Increasing information
======================

Each stage refines the previous partition, so the induced values climb.
Whether the integrals climb all the way to the ordinary expectation is a
density question: dyadic refinement on a finite window gets there exactly
at full depth, while a stalled information flow never moves.
"""
import random
from fractions import Fraction as F

from nonadd import (
    CountablePartition,
    EventuallyConstantFunction,
    check_increases_continuously,
    dyadic_partitions,
    increasing_information_run,
    telescoping_measure,
    uniform_finite_measure,
)

m = 4
size = 1 << m
rng = random.Random(7)
f = EventuallyConstantFunction(
    size, tuple(F(rng.randint(0, 16), 8) for _ in range(size)), F(0)
)

run = increasing_information_run(
    dyadic_partitions(m), uniform_finite_measure(size), f
)
print("dyadic trace:", [str(x) for x in run.integral_trace])
print("expectation: ", run.target)
print("reached at stage:", run.stabilized_at, "of", m + 1)
print("values climb to the measure on every event:", run.continuity.holds)

# No refinement, no convergence: the trivial field repeated forever.
stalled = [CountablePartition(width=None)] * 4
run = increasing_information_run(
    stalled, telescoping_measure(), EventuallyConstantFunction.unit_prefix(4)
)
print("\nstalled trace:", [str(x) for x in run.integral_trace])
print("expectation:  ", run.target)
print("converges?", run.converges)

report = check_increases_continuously(stalled, telescoping_measure())
event, values, target = report.witness
print("failing state:", event.horizon, "value stuck at", values[-1], "vs mass", target)
