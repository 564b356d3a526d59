"""
Capacities induced by partial information
=========================================

Someone knows the probability of every union of partition blocks and of
nothing finer.  They price an arbitrary event by the largest known event
inside it.  The resulting capacity is always convex, so its Choquet and
concave integrals coincide, and both equal the closed-form block formula.
"""
from fractions import Fraction as F

from nonadd import (
    Partition,
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    argmax_witness,
    check_dense,
    check_null_additive,
    check_weak_ae_equivalence,
    choquet_integral,
    concave_integral,
    induce,
    psa_integral,
)

# Eight equally likely states; each block pairs k with k+4, so no union
# of blocks fits inside either half of the space.
space = StateSpace(8)
P = ProbabilityMeasure.uniform(space)
partition = Partition.from_blocks(space, [[k, k + 4] for k in range(4)])
ic = induce(P, partition)

half_low = space.subset(range(4))
half_high = space.subset(range(4, 8))
print("value of the lower half:", ic.base.values[half_low.bits])
print("value of the upper half:", ic.base.values[half_high.bits])
print("value of everything:   ", ic.base.values[space.full_bits])

print("\nwitness for {0,1,2,4,5}:", argmax_witness(ic, space.subset([0, 1, 2, 4, 5]).bits))

# Both halves are null yet their union is everything: not null-additive,
# which is the same thing as the algebra failing to be dense.
print("\nnull-additive?", check_null_additive(ic.base).holds)
print("algebra dense?", check_dense(partition, P).holds)

# The four-way equivalence, evaluated condition by condition.
report = check_weak_ae_equivalence(P, partition)
for name, verdict in report.verdicts().items():
    print(f"  {name:22s} {verdict}")
print("all agree:", report.agree)

# Integrals coincide three ways on any function.
f = SimpleFunction(space, tuple(F(k + 1, 2) for k in range(8)))
print("\nblock formula:   ", psa_integral(f, P, partition).value)
print("choquet(induced):", choquet_integral(f, ic.base).value)
print("concave(induced):", concave_integral(f, ic.base).value)
