"""Acceptance criteria.

Every criterion below is exact (rational arithmetic end to end, equality
meaning equality), and each test prints one ``[PASS]``/``[FAIL]`` line
(visible with ``pytest -s`` or on failure).  Stated runtime budgets are
asserted where the criterion carries one.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from helpers import all_set_partitions

from nonadd import (
    Capacity,
    CountableModel,
    CountablePartition,
    EventuallyConstantFunction,
    Partition,
    SimpleFunction,
    StateSpace,
    balanced_cover,
    brute_force_cav_oracle,
    check_convex,
    check_increases_continuously,
    check_null_additive,
    check_weak_ae_equivalence,
    choquet_integral,
    concave_integral,
    continuity_from_below_countable,
    convexity_gap_witness,
    converges_strong_ae,
    converges_weak_ae,
    countable_psa_integral,
    dyadic_partitions,
    generate_sequences,
    induce,
    monotone_convergence_countable,
    pairs_model,
    pairs_partial_sum_trace,
    psa_integral,
    random_capacity,
    random_partition,
    random_probability,
    random_simple_function,
    telescoping_measure,
    trivial_model,
    uniform_finite_measure,
    unit_prefix_sequence,
)
from nonadd.capacity import replay_null_additivity_violation


@contextmanager
def criterion(num, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {num}: {description} ({elapsed:.2f}s)")


def test_criterion_01_indicator_identity():
    with criterion(1, "choquet integral of every indicator equals the capacity"):
        started = time.perf_counter()
        for seed in range(100):
            n = seed % 8 + 1
            v = random_capacity(n, seed, "general")
            for mask in range(v.space.num_subsets):
                f = SimpleFunction.indicator(v.space, mask)
                assert choquet_integral(f, v).value == v.values[mask]
        assert time.perf_counter() - started < 10.0


def test_criterion_02_concave_dominates_choquet():
    with criterion(2, "concave >= choquet on 1000 random instances, n <= 6"):
        started = time.perf_counter()
        rng = random.Random("criterion-2")
        for seed in range(1000):
            n = rng.randint(1, 6)
            v = random_capacity(n, seed, "general")
            f = random_simple_function(v.space, rng)
            assert concave_integral(f, v).value >= choquet_integral(f, v).value
        assert time.perf_counter() - started < 120.0


def test_criterion_03_convexity_iff_coincidence():
    with criterion(3, "integrals coincide exactly when the capacity is convex"):
        rng = random.Random("criterion-3")
        convex_seen = nonconvex_seen = 0
        for seed in range(300):
            n = rng.randint(2, 5)
            profile = "convex" if seed % 3 == 0 else "general"
            v = random_capacity(n, seed, profile)
            report = check_convex(v)
            if report.holds:
                convex_seen += 1
                for _ in range(20):
                    f = random_simple_function(v.space, rng)
                    assert (
                        concave_integral(f, v).value
                        == choquet_integral(f, v).value
                    )
            else:
                nonconvex_seen += 1
                e, f_mask = report.witness
                g, gap = convexity_gap_witness(v, e, f_mask)
                assert gap > 0
                assert (
                    concave_integral(g, v).value - choquet_integral(g, v).value
                    == gap
                )
        assert convex_seen > 50 and nonconvex_seen > 50


def test_criterion_04_oracle_equivalence():
    with criterion(4, "simplex concave integral matches brute-force dual oracle"):
        started = time.perf_counter()
        worked = concave_integral(
            SimpleFunction.constant(StateSpace(2), 1),
            Capacity(StateSpace(2), (F(0), F(6, 10), F(6, 10), F(1))),
        )
        assert worked.value == F(6, 5)
        rng = random.Random("criterion-4")
        for seed in range(200):
            n = rng.randint(1, 3)
            v = random_capacity(n, seed, "general")
            f = random_simple_function(v.space, rng)
            assert concave_integral(f, v).value == brute_force_cav_oracle(f, v)
        assert time.perf_counter() - started < 60.0


def test_criterion_05_cover_lemma_and_idempotence():
    with criterion(5, "cover preserves concave integrals; covering is idempotent"):
        rng = random.Random("criterion-5")
        for seed in range(200):
            n = rng.randint(2, 5)
            v = random_capacity(n, seed, "general")
            cover = balanced_cover(v)
            f = random_simple_function(v.space, rng)
            assert concave_integral(f, v).value == concave_integral(f, cover).value
            assert balanced_cover(cover).values == cover.values


def test_criterion_06_psa_coherence():
    with criterion(6, "partition integral = both integrals against the induced capacity"):
        rng = random.Random("criterion-6")
        for _ in range(200):
            n = rng.randint(2, 8)
            space = StateSpace(n)
            P = random_probability(space, rng, strictly_positive=False)
            partition = random_partition(space, rng)
            ic = induce(P, partition)
            assert check_convex(ic.base).holds
            f = random_simple_function(space, rng)
            value = psa_integral(f, P, partition).value
            assert value == choquet_integral(f, ic.base).value
            assert value == concave_integral(f, ic.base).value


def test_criterion_07_weak_strong_equivalence_iff_null_additive():
    with criterion(7, "weak = strong convergence over the family iff null-additive"):
        null_additive_seen = failing_seen = 0
        for seed in range(500):
            n = seed % 6 + 1
            profile = ("null-additive", "general", "induced")[seed % 3]
            v = random_capacity(n, seed, profile)
            na_report = check_null_additive(v)
            separated = False
            for seq in generate_sequences(v, seed=seed, count=5):
                weak = converges_weak_ae(seq, v)
                strong = converges_strong_ae(seq, v)
                assert weak.holds or not strong.holds  # strong implies weak
                if weak.holds and not strong.holds:
                    separated = True
                    # the strong-mode witness replays its defining equation
                    event, got, want = strong.witness
                    conv = v.space.full_bits & ~seq.divergence_bits()
                    assert v.values[event & conv] == got < want == v.values[event]
            if na_report.holds:
                null_additive_seen += 1
                assert not separated
            else:
                failing_seen += 1
                assert separated
                assert replay_null_additivity_violation(v, *na_report.witness)
        assert null_additive_seen > 100 and failing_seen > 100


def test_criterion_08_four_way_equivalence_exhaustive():
    with criterion(8, "density, expectation-coincidence, convergence, null-additivity agree"):
        rng = random.Random("criterion-8")
        models = 0
        for n in range(2, 7):
            space = StateSpace(n)
            for groups in all_set_partitions(range(n)):
                partition = Partition.from_blocks(space, groups)
                P = random_probability(space, rng, strictly_positive=True)
                report = check_weak_ae_equivalence(P, partition, seed=models)
                assert report.strictly_positive
                assert report.agree, (n, groups, report.verdicts())
                models += 1
        assert models == 2 + 5 + 15 + 52 + 203


def test_criterion_09_countable_preset_traces():
    with criterion(9, "pair-block trace is 1 - 1/(2m+1) up to depth 10^4; trivial trace is 0"):
        started = time.perf_counter()
        depth = 10_000
        trace = pairs_partial_sum_trace(depth)
        for m in range(1, depth + 1):
            assert trace[m - 1] == 1 - F(1, 2 * m + 1)
        model = pairs_model()
        for m in (1, 2, 3, 10, 100, 1000, 10_000):
            f = EventuallyConstantFunction.unit_prefix(2 * m)
            assert countable_psa_integral(f, model) == trace[m - 1]
        one = EventuallyConstantFunction.constant(1)
        assert countable_psa_integral(one, model) == 1

        trivial = trivial_model()
        for n in range(1, 65):
            f = EventuallyConstantFunction.unit_prefix(n)
            assert countable_psa_integral(f, trivial) == 0
        assert countable_psa_integral(one, trivial) == 1
        assert time.perf_counter() - started < 5.0


def test_criterion_10_finite_atoms_equivalence():
    with criterion(10, "finite atoms = continuity from below = monotone convergence"):
        measure = telescoping_measure()
        families = [
            CountablePartition(width=2),
            CountablePartition(),
            CountablePartition(width=None),
            CountablePartition(((1, 2, 3),)),
            CountablePartition(((1, 2, 3),), width=None),
            CountablePartition(((1, 2, 3), (4,))),
            CountablePartition(((1,), (2, 3)), width=None),
        ]
        verdicts = set()
        for partition in families:
            model = CountableModel(measure, partition)
            finite = partition.all_atoms_finite()
            below = continuity_from_below_countable(model, depth=8)
            conv = monotone_convergence_countable(model, unit_prefix_sequence())
            assert below.holds == finite
            assert conv.converges == finite
            verdicts.add(finite)
            if not finite:
                w = below.witness
                assert all(x == 0 for x in w.prefix_values)
                start = partition.infinite_atom_start()
                assert w.atom_mass == measure.tail(start - 1)  # tail(0) == 1
                assert w.atom_mass > 0
        assert verdicts == {True, False}


def test_criterion_11_dyadic_refinement():
    with criterion(11, "dyadic information reaches the expectation at full depth"):
        m = 10
        size = 1 << m
        partitions = dyadic_partitions(m)
        measure = uniform_finite_measure(size)
        rng = random.Random("criterion-11")
        for _ in range(50):
            values = tuple(F(rng.randint(0, 16), 8) for _ in range(size))
            f = EventuallyConstantFunction(size, values, F(0))
            trace = tuple(
                countable_psa_integral(f, CountableModel(measure, p))
                for p in partitions
            )
            target = lebesgue_countable(f, measure)
            assert trace[m] == target
            for a, b in zip(trace, trace[1:]):
                assert a <= b

        constant = [CountablePartition(width=None)] * 4
        report = check_increases_continuously(constant, telescoping_measure())
        assert not report.holds
        event, values, target = report.witness
        assert all(x == 0 for x in values)
        assert target > 0


def lebesgue_countable(f, measure):
    total = F(0)
    for k in range(1, f.horizon + 1):
        total += f(k) * measure.weight(k)
    return total + f.tail * measure.tail(f.horizon)
