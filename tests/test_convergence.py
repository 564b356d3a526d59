"""Convergence modes, monotone-convergence experiments, counterexamples."""

import random
from fractions import Fraction as F

import pytest

from nonadd import (
    Capacity,
    FunctionSequence,
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    balanced_cover,
    check_convex,
    check_null_additive,
    choquet_integral,
    concave_integral,
    converges_P_ae,
    converges_pointwise,
    converges_strong_ae,
    converges_weak_ae,
    convexity_gap_witness,
    counterexample_null_additivity,
    generate_sequences,
    monotone_convergence_experiment,
    random_capacity,
    random_probability,
    random_simple_function,
)


def cap2(v0, v1, vx):
    return Capacity(StateSpace(2), (F(0), F(v0), F(v1), F(vx)))


def constant_sequence(f):
    return FunctionSequence((f,), f)


class TestSequenceValidation:
    def test_must_be_nondecreasing(self):
        space = StateSpace(2)
        hi = SimpleFunction(space, (F(2), F(2)))
        lo = SimpleFunction(space, (F(1), F(1)))
        with pytest.raises(ValueError):
            FunctionSequence((hi, lo), hi)

    def test_divergence_set(self):
        space = StateSpace(2)
        seq = FunctionSequence(
            (SimpleFunction.indicator(space, 0b01),),
            SimpleFunction.indicator(space, 0b11),
        )
        assert seq.divergence_bits() == 0b10


class TestModeDetectors:
    def test_constant_sequence_converges_in_every_mode(self):
        v = cap2("1/2", "1/4", 1)
        P = ProbabilityMeasure.uniform(v.space)
        f = SimpleFunction(v.space, (F(1), F(2)))
        seq = constant_sequence(f)
        assert converges_pointwise(seq).holds
        assert converges_weak_ae(seq, v).holds
        assert converges_strong_ae(seq, v).holds
        assert converges_P_ae(seq, P).holds

    def test_null_divergence_set_is_weak_but_not_strong(self):
        # v({1}) = 0: staying behind there is invisible to the weak mode
        v = cap2("1/2", 0, 1)
        space = v.space
        seq = FunctionSequence(
            (SimpleFunction.indicator(space, 0b01),),
            SimpleFunction.indicator(space, 0b11),
        )
        assert converges_weak_ae(seq, v).holds
        report = converges_strong_ae(seq, v)
        assert not report.holds
        f_witness, got, want = report.witness
        assert got < want and v.values[f_witness] == want

    def test_positive_divergence_set_fails_weak(self):
        v = cap2("1/2", "1/4", 1)
        space = v.space
        seq = FunctionSequence(
            (SimpleFunction.indicator(space, 0b01),),
            SimpleFunction.indicator(space, 0b11),
        )
        report = converges_weak_ae(seq, v)
        assert not report.holds
        assert report.witness == (0b10, F(1, 4))

    def test_P_ae_with_null_state(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 2), F(0)))
        seq = FunctionSequence(
            (SimpleFunction.indicator(space, 0b011),),
            SimpleFunction.indicator(space, 0b111),
        )
        assert converges_P_ae(seq, P).holds
        assert not converges_pointwise(seq).holds

    def test_P_ae_fails_on_charged_divergence_set(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 4), F(1, 4)))
        seq = FunctionSequence(
            (SimpleFunction.indicator(space, 0b001),),
            SimpleFunction.indicator(space, 0b011),
        )
        report = converges_P_ae(seq, P)
        assert not report.holds
        assert report.witness == (0b010, F(1, 4))

    def test_convex_full_convergence_set_implies_strong(self):
        # when the convergence set carries the whole capacity and the
        # capacity is convex, strong convergence follows
        rng = random.Random(1)
        checked = 0
        for seed in range(40):
            v = random_capacity(4, seed, "convex")
            space = v.space
            target = random_simple_function(space, rng)
            stuck = rng.randint(0, space.full_bits)
            terms = (
                SimpleFunction(
                    space,
                    tuple(
                        x / 2 if stuck >> k & 1 else x
                        for k, x in enumerate(target.values)
                    ),
                ),
            )
            seq = FunctionSequence(terms, target)
            conv_set = space.full_bits & ~seq.divergence_bits()
            if v.values[conv_set] != v.values[space.full_bits]:
                continue
            checked += 1
            assert converges_strong_ae(seq, v).holds
        assert checked > 0


class TestMonotoneConvergenceExperiment:
    def test_constant_sequence_converges(self):
        v = cap2("1/2", "1/4", 1)
        f = SimpleFunction(v.space, (F(1), F(2)))
        report = monotone_convergence_experiment(constant_sequence(f), v)
        assert report.holds
        assert report.integral_trace[-1] == report.limit_integral

    def test_counterexample_integrals_stall(self):
        v = cap2("1/2", 0, 1)
        seq = counterexample_null_additivity(v, 0b10, 0b01)
        report = monotone_convergence_experiment(seq, v)
        assert not report.holds
        assert report.integral_trace == (F(1, 2),)
        assert report.limit_integral == 1

    def test_concave_route(self):
        v = cap2("1/2", 0, 1)
        seq = counterexample_null_additivity(v, 0b10, 0b01)
        report = monotone_convergence_experiment(seq, v, concave_integral)
        assert not report.holds

    def test_null_additive_weak_sequences_converge(self):
        for seed in range(25):
            v = random_capacity(4, seed, "null-additive")
            for seq in generate_sequences(v, seed=seed, count=5):
                if converges_weak_ae(seq, v).holds:
                    assert monotone_convergence_experiment(seq, v).holds

    def test_strong_ae_sequences_always_converge_on_finite_spaces(self):
        # finite spaces are continuous from below, so strong-a.e.
        # convergence forces integral convergence for both integrals
        checked = 0
        for seed in range(40):
            v = random_capacity(4, seed, "general")
            for seq in generate_sequences(v, seed=seed, count=4):
                if not converges_strong_ae(seq, v).holds:
                    continue
                checked += 1
                assert monotone_convergence_experiment(seq, v).holds
                assert monotone_convergence_experiment(seq, v, concave_integral).holds
        assert checked > 20

    def test_pointwise_sequences_always_converge_on_finite_spaces(self):
        for seed in range(30):
            v = random_capacity(4, seed, "general")
            for seq in generate_sequences(v, seed=seed, count=4):
                if converges_pointwise(seq).holds:
                    assert monotone_convergence_experiment(seq, v).holds


class TestCounterexampleConstruction:
    def test_worked_example(self):
        v = cap2("1/2", 0, 1)
        seq = counterexample_null_additivity(v, 0b10, 0b01)
        assert converges_weak_ae(seq, v).holds
        assert not converges_strong_ae(seq, v).holds
        assert choquet_integral(seq.stable(), v).value == F(1, 2)
        assert choquet_integral(seq.limit, v).value == 1

    def test_induced_shift_pairs(self):
        from nonadd import Partition, induce

        space = StateSpace(8)
        P = ProbabilityMeasure.uniform(space)
        ic = induce(P, Partition.from_blocks(space, [[k, k + 4] for k in range(4)]))
        seq = counterexample_null_additivity(ic.base, 0b11110000, 0b00001111)
        assert choquet_integral(seq.stable(), ic.base).value == 0
        assert choquet_integral(seq.limit, ic.base).value == 1
        assert converges_weak_ae(seq, ic.base).holds
        assert not converges_strong_ae(seq, ic.base).holds

    def test_rejects_valid_capacity(self):
        P = ProbabilityMeasure.uniform(StateSpace(2))
        v = Capacity(P.space, P.mass_table)
        with pytest.raises(ValueError):
            counterexample_null_additivity(v, 0b01, 0b10)  # E not null
        w = cap2(0, "1/2", "1/2")
        with pytest.raises(ValueError):
            counterexample_null_additivity(w, 0b01, 0b10)  # no value jump


class TestConvexityGapWitness:
    def test_worked_example(self):
        v = cap2("6/10", "6/10", 1)
        g, gap = convexity_gap_witness(v, 0b01, 0b10)
        assert g.values == (F(1), F(1))
        assert gap == F(1, 5)
        assert concave_integral(g, v).value - choquet_integral(g, v).value == gap

    def test_choquet_of_indicator_sum_is_union_plus_intersection(self):
        rng = random.Random(3)
        for seed in range(20):
            v = random_capacity(4, seed, "general")
            e = rng.randint(0, v.space.full_bits)
            f = rng.randint(0, v.space.full_bits)
            g = SimpleFunction.indicator(v.space, e) + SimpleFunction.indicator(
                v.space, f
            )
            assert (
                choquet_integral(g, v).value == v.values[e | f] + v.values[e & f]
            )

    def test_rejects_convex_capacity(self):
        v = random_capacity(3, 0, "convex")
        report = check_convex(v)
        assert report.holds
        with pytest.raises(ValueError):
            convexity_gap_witness(v, 0b001, 0b010)

    def test_random_nonconvex_sweep(self):
        found = 0
        for seed in range(30):
            v = random_capacity(3, seed, "general")
            report = check_convex(v)
            if report.holds:
                continue
            found += 1
            g, gap = convexity_gap_witness(v, *report.witness)
            assert gap > 0
            assert concave_integral(g, v).value - choquet_integral(g, v).value == gap
        assert found > 0


class TestCoverConvergenceTheorems:
    def test_weak_divergence_sets_are_shared_with_the_cover(self):
        # a set of capacity zero has all subsets at zero, so its best
        # subdecomposition is worthless too: the weak mode cannot tell a
        # capacity from its cover
        for seed in range(20):
            v = random_capacity(3, seed, "general")
            cover = balanced_cover(v)
            for seq in generate_sequences(v, seed=seed, count=4):
                assert (
                    converges_weak_ae(seq, v).holds
                    == converges_weak_ae(seq, cover).holds
                )

    def test_weak_cav_convergence_iff_cover_null_additive(self):
        # over the generated family, concave-integral monotone convergence
        # for weakly-a.e. convergent sequences holds exactly when the
        # totally balanced cover is null-additive (continuity from below
        # being automatic on a finite space)
        null_additive_seen = failing_seen = 0
        for seed in range(40):
            v = random_capacity(3, seed, "general" if seed % 2 else "induced")
            cover = balanced_cover(v)
            cover_report = check_null_additive(cover)
            sequences = generate_sequences(v, seed=seed, count=4)
            if not cover_report.holds:
                sequences.append(
                    counterexample_null_additivity(cover, *cover_report.witness)
                )
            separated = False
            for seq in sequences:
                if not converges_weak_ae(seq, v).holds:
                    continue
                if not monotone_convergence_experiment(seq, v, concave_integral).holds:
                    separated = True
            if cover_report.holds:
                null_additive_seen += 1
                assert not separated
            else:
                failing_seen += 1
                assert separated
        assert null_additive_seen > 10 and failing_seen > 10


class TestRandomCapacity:
    def test_determinism(self):
        for profile in ("general", "convex", "null-additive", "induced"):
            a = random_capacity(4, 42, profile)
            b = random_capacity(4, 42, profile)
            assert a.values == b.values

    def test_profiles_pass_their_checkers(self):
        for seed in range(15):
            assert check_convex(random_capacity(4, seed, "convex")).holds
            assert check_null_additive(
                random_capacity(4, seed, "null-additive")
            ).holds
            assert check_convex(random_capacity(4, seed, "induced")).holds

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            random_capacity(3, 0, "belief")


class TestRandomProbability:
    def test_all_zero_draw_puts_its_mass_on_one_state(self):
        # Random(2) draws 0 first, so the one state's raw weight is 0
        assert random.Random(2).randint(0, 9) == 0
        P = random_probability(StateSpace(1), random.Random(2), strictly_positive=False)
        assert P.weights == (F(1),)


class TestWeakStrongEquivalenceSweep:
    def test_null_additivity_decides_weak_equals_strong(self):
        # both directions over the generated family, with replayable
        # witnesses on the failing side
        for seed in range(60):
            v = random_capacity(4, seed, "general")
            null_additive = check_null_additive(v).holds
            separated = False
            for seq in generate_sequences(v, seed=seed, count=6):
                weak = converges_weak_ae(seq, v).holds
                strong = converges_strong_ae(seq, v).holds
                assert not strong or weak  # strong always implies weak
                if weak and not strong:
                    separated = True
            if null_additive:
                assert not separated
            else:
                assert separated
