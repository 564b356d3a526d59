"""Capacity axioms and the structural property checkers.

Each checker is exercised on its worked examples and then validated
against a literal brute-force sweep of its defining quantifier, so the
optimized implementations (local supermodularity, maximal null sets,
single-reduction P-null check) are pinned to the definitions.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    convex_by_all_pairs,
    convex_by_local_loop,
    dense_by_member_scan,
    maximal_null_sets_by_all_masks,
    null_additive_by_all_pairs,
    p_null_additive_by_all_pairs,
    prime_capacity,
)
from nonadd import (
    Capacity,
    CapacityError,
    FunctionSequence,
    Partition,
    ProbabilityMeasure,
    PropertyReport,
    SimpleFunction,
    StateSpace,
    check_convex,
    check_dense,
    check_monotone,
    check_null_additive,
    check_P_null_additive,
    converges_strong_ae,
    generated_algebra,
    jsonio,
    maximal_null_sets,
    random_capacity,
    random_partition,
    random_probability,
)
from nonadd import capacity
from nonadd.capacity import (
    replay_convexity_violation,
    replay_null_additivity_violation,
)
from nonadd.sets import max_member_table, states_of


BIG_PRIMES = [q for q in range(2**20, 2**20 + 400) if all(q % d for d in range(2, 1025))]


def bumped(v: Capacity, rng: random.Random) -> Capacity:
    """``v`` with one nonempty entry moved between its covering neighbours'
    values, so the table stays monotone."""
    values = list(v.values)
    full = len(values) - 1
    m = rng.randrange(1, len(values))
    low = max(values[m & ~(1 << k)] for k in states_of(m))
    high = min((values[m | 1 << k] for k in states_of(full & ~m)), default=low + 1)
    values[m] = low + (high - low) * F(rng.randint(0, 8), 8)
    return Capacity(v.space, tuple(values))


def with_prime_additive_part(v: Capacity) -> Capacity:
    """``v`` plus the additive ``T -> sum of 1/q_k, k in T``, one prime
    ``q_k > 2**20`` per state: convex iff ``v`` is, and from n = 4 on its
    common denominator passes ``SCALE_BITS``, so its scans read Fractions."""
    weights = [F(1, q) for q in BIG_PRIMES[: v.space.n]]
    w = Capacity(
        v.space,
        tuple(x + sum((weights[k] for k in states_of(m)), F(0)) for m, x in enumerate(v.values)),
    )
    assert w.space.n < 4 or isinstance(w._scaled[1], F)
    return w


def assert_convexity_matches_the_local_loop(v: Capacity) -> None:
    report = check_convex(v)
    assert report == convex_by_local_loop(v)
    if not report.holds:
        assert replay_convexity_violation(v, *report.witness)


def cap2(v0, v1, vx):
    return Capacity(StateSpace(2), (F(0), F(v0), F(v1), F(vx)))


class TestConstruction:
    def test_rejects_nonzero_empty_set(self):
        with pytest.raises(CapacityError):
            Capacity(StateSpace(1), (F(1, 2), F(1)))

    def test_rejects_negative_value(self):
        with pytest.raises(CapacityError):
            Capacity(StateSpace(1), (F(0), F(-1)))

    def test_rejects_non_monotone_with_witness(self):
        with pytest.raises(CapacityError) as err:
            Capacity(StateSpace(2), (F(0), F(2), F(0), F(1)))
        below, above = err.value.witness
        assert below == 0b01 and above == 0b11

    def test_rejects_wrong_table_size(self):
        with pytest.raises(CapacityError):
            Capacity(StateSpace(2), (F(0), F(1)))

    def test_construction_then_check_monotone_always_holds(self):
        for seed in range(30):
            v = random_capacity(4, seed, "general")
            assert check_monotone(v).holds

    def test_values_become_a_tuple_of_fractions(self):
        space = StateSpace(2)
        expected = (F(0), F(1, 2), F(1, 4), F(1))
        for table in ([0, "1/2", F(1, 4), 1], list(expected), expected):
            v = Capacity(space, table)
            assert v.values == expected and type(v.values) is tuple
            assert all(type(x) is F for x in v.values)
        with pytest.raises(TypeError, match="exact rational"):
            Capacity(StateSpace(1), (F(0), 0.5))

    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.lists(st.integers(0, 12), min_size=8, max_size=8),
        denom=st.sampled_from([4, 6, 12]),
    )
    def test_monotone_completion_constructs_and_witnesses_replay(self, raw, denom):
        space = StateSpace(3)
        table = [F(0)] * 8
        for mask in range(1, 8):
            floor = max(
                table[mask ^ (1 << k)] for k in range(3) if mask >> k & 1
            )
            table[mask] = max(floor, F(raw[mask], denom))
        v = Capacity(space, tuple(table))
        assert check_monotone(v).holds
        convexity = check_convex(v)
        if not convexity.holds:
            assert replay_convexity_violation(v, *convexity.witness)
        nulladd = check_null_additive(v)
        if not nulladd.holds:
            assert replay_null_additivity_violation(v, *nulladd.witness)


class TestMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProbabilityMeasure(StateSpace(2), (F(1, 2), F(1, 3)))

    def test_mass_and_table(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
        assert P.mass(0b011) == F(5, 6)
        assert P.mass_table[0b101] == F(2, 3)
        assert Capacity(P.space, P.mass_table).values[0b111] == 1

    def test_null_states(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 2), F(0)))
        assert not P.is_strictly_positive()
        assert P.null_states_bits() == 0b100


class TestMonotone:
    def test_additive_measure_is_monotone(self):
        P = random_probability(StateSpace(4), random.Random(0))
        assert check_monotone(Capacity(P.space, P.mass_table)).holds

    def test_single_state(self):
        assert check_monotone(Capacity(StateSpace(1), (F(0), F(1)))).holds


class TestConvex:
    def test_additive_is_convex_with_equality(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 3), F(1, 6)))
        v = Capacity(P.space, P.mass_table)
        assert check_convex(v).holds
        for e in range(v.space.num_subsets):
            for g in range(v.space.num_subsets):
                assert v.values[e] + v.values[g] == v.values[e | g] + v.values[e & g]

    def test_worked_failure(self):
        v = cap2("6/10", "6/10", 1)
        report = check_convex(v)
        assert not report.holds
        assert report.witness == (0b01, 0b10)
        assert replay_convexity_violation(v, *report.witness)

    def test_failure_past_the_int_str_digit_limit(self):
        # the violated sums have over 5,000 digits, past Python's default
        # 4,300-digit int -> str limit: the verdict must not format them
        big = 10**2500
        v = cap2(F(big, big + 1), F(big + 2, big + 3), 1)
        report = check_convex(v)
        assert (report.holds, report.witness) == (False, (0b01, 0b10))
        assert replay_convexity_violation(v, *report.witness)

    def test_matches_all_pairs_sweep(self):
        for seed in range(40):
            v = random_capacity(4, seed, "general")
            expected, _ = convex_by_all_pairs(v)
            report = check_convex(v)
            assert report.holds == expected
            if not report.holds:
                assert replay_convexity_violation(v, *report.witness)

    def test_convex_profile_passes(self):
        for seed in range(20):
            assert check_convex(random_capacity(5, seed, "convex")).holds

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 10),
        seed=st.integers(0, 2**30),
        profile=st.sampled_from(["general", "convex", "null-additive", "induced"]),
        past_budget=st.booleans(),
    )
    def test_matches_the_local_loop(self, n, seed, profile, past_budget):
        # the verdict and the first violating pair by base order, on the
        # scaled ints and, past SCALE_BITS, on the Fractions
        v = random_capacity(n, seed, profile)
        if past_budget:
            v = with_prime_additive_part(v)
        assert_convexity_matches_the_local_loop(v)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(7, 10),
        seed=st.integers(0, 2**30),
        profile=st.sampled_from(["convex", "induced"]),
        past_budget=st.booleans(),
    )
    def test_a_bumped_convex_table_matches_the_local_loop(self, n, seed, profile, past_budget):
        # one entry moved off a convex table: a violation, if any, sits at
        # a base next to a random mask, at n = 7-10 often past the first 64
        v = random_capacity(n, seed, profile)
        if past_budget:
            v = with_prime_additive_part(v)
        assert check_convex(v).holds
        assert_convexity_matches_the_local_loop(bumped(v, random.Random(seed)))

    @pytest.mark.parametrize(
        "n, witness", [(7, (63, 95)), (8, (127, 191)), (9, (255, 383)), (10, (511, 767))]
    )
    def test_first_violation_in_and_past_the_head(self, n, witness):
        # v(E) = |E|^2 is supermodular; lowering v(full) to (n-1)^2 + 1
        # breaks it only at the bases full - {i, j}, the first of which,
        # 2**(n-2) - 1, lies in the loop's first 64 bases up to n = 8
        values = [F(bin(m).count("1") ** 2) for m in range(1 << n)]
        values[-1] = F((n - 1) ** 2 + 1)
        v = Capacity(StateSpace(n), tuple(values))
        assert check_convex(v) == convex_by_local_loop(v) == PropertyReport(False, witness)

    @pytest.mark.parametrize("i, j", [(i, j) for j in range(9) for i in range(j)])
    def test_each_pair_of_states_is_checked(self, i, j):
        # v(E) = 10|E| + the sum of a_kl over the pairs {k, l} in E, less 2
        # on the events that hold S = {i, j} | H, with a_ij = 1 and 10 for
        # the other pairs: only the pair {i, j} fails, at the bases that
        # hold H, two of the states 5-8; the first of them, H, is past 64
        high = sum(1 << k for k in [k for k in (5, 6, 7, 8) if k not in (i, j)][-2:])
        s = high | 1 << i | 1 << j

        def value(m):
            states = list(states_of(m))
            pairs = sum(1 if (k, l) == (i, j) else 10 for l in states for k in states if k < l)
            return 10 * len(states) + pairs - 2 * (m & s == s)

        v = Capacity(StateSpace(9), tuple(map(value, range(512))))
        assert high >= 64
        assert check_convex(v) == convex_by_local_loop(v)
        assert check_convex(v) == PropertyReport(False, (high | 1 << i, high | 1 << j))

    def test_small_tables_run_the_local_loop_only(self, monkeypatch):
        # up to n = 6 the loop's first 64 bases are the whole table; from
        # n = 7 a convex table is decided by its n - 1 marginal scans
        tables = [random_capacity(n, 0, "convex") for n in range(1, 8)]
        scans = []
        scan = capacity._first_step
        monkeypatch.setattr(capacity, "_first_step", lambda *a: scans.append(a) or scan(*a))
        assert all(check_convex(v).holds for v in tables[:6])
        assert scans == []
        assert check_convex(tables[6]).holds
        assert len(scans) == 6


class TestNullAdditive:
    def test_strictly_positive_additive_holds(self):
        P = ProbabilityMeasure(StateSpace(3), (F(1, 2), F(1, 4), F(1, 4)))
        assert check_null_additive(Capacity(P.space, P.mass_table)).holds

    def test_worked_failure(self):
        v = cap2("1/2", 0, 1)
        report = check_null_additive(v)
        assert not report.holds
        e, f = report.witness
        assert v.values[e] == 0
        assert replay_null_additivity_violation(v, e, f)

    def test_matches_all_pairs_sweep(self):
        for seed in range(60):
            v = random_capacity(4, seed, "general")
            expected, _ = null_additive_by_all_pairs(v)
            report = check_null_additive(v)
            assert report.holds == expected
            if not report.holds:
                assert replay_null_additivity_violation(v, *report.witness)

    def test_null_additive_profile_passes(self):
        for seed in range(20):
            v = random_capacity(5, seed, "null-additive")
            assert check_null_additive(v).holds

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**30),
        profile=st.sampled_from(["general", "convex", "null-additive", "induced", "prime"]),
    )
    def test_maximal_null_sets_match_all_masks_scan(self, n, seed, profile):
        # the list and its ascending order, which check_null_additive's
        # first failing set and generate_sequences both read
        v = prime_capacity(min(n, 7)) if profile == "prime" else random_capacity(n, seed, profile)
        assert maximal_null_sets(v) == maximal_null_sets_by_all_masks(v)

    def test_convex_does_not_imply_null_additive(self):
        # supermodular yet unions with a null set change the value
        v = cap2(0, 0, 1)
        assert check_convex(v).holds
        assert not check_null_additive(v).holds


class TestPNullAdditive:
    def test_strictly_positive_is_vacuous(self):
        P = ProbabilityMeasure(StateSpace(2), (F(1, 2), F(1, 2)))
        v = cap2(0, 0, 1)
        assert check_P_null_additive(v, P).holds

    def test_induced_from_singletons_with_null_state(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 2), F(0)))
        v = Capacity(P.space, P.mass_table)  # singleton information: value = mass
        report = check_P_null_additive(v, P)
        assert report.holds
        assert v.values[0b011] == v.values[0b111] == 1

    def test_worked_failure(self):
        space = StateSpace(3)
        P = ProbabilityMeasure(space, (F(1, 2), F(1, 2), F(0)))
        # monotone, capped below the top except at the full set
        values = [min(P.mass_table[m], F(1, 2)) for m in range(space.num_subsets)]
        values[0b111] = F(1)
        v = Capacity(space, tuple(values))
        report = check_P_null_additive(v, P)
        assert not report.holds
        assert report.witness == (0b011, 0b111)

    def test_matches_all_pairs_sweep(self):
        rng = random.Random(5)
        space = StateSpace(4)
        for seed in range(40):
            v = random_capacity(4, seed, "general")
            weights = [F(rng.randint(0, 3)) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            P = ProbabilityMeasure(space, tuple(w / total for w in weights))
            expected, _ = p_null_additive_by_all_pairs(v, P)
            report = check_P_null_additive(v, P)
            assert report.holds == expected
            if not report.holds:
                g, f = report.witness
                assert P.mass(f & ~g) == 0 and v.values[g] != v.values[f]


class TestDense:
    def test_full_powerset_is_dense(self):
        space = StateSpace(3)
        P = random_probability(space, random.Random(1))
        assert check_dense(Partition.singletons(space), P).holds

    def test_trivial_algebra_fails_for_positive_measure(self):
        space = StateSpace(3)
        P = ProbabilityMeasure.uniform(space)
        report = check_dense(Partition.trivial(space), P)
        assert not report.holds

    def test_two_block_uniform_fails_at_half_block(self):
        space = StateSpace(4)
        P = ProbabilityMeasure.uniform(space)
        partition = Partition.from_blocks(space, [[0, 1], [2, 3]])
        report = check_dense(partition, P)
        assert not report.holds
        f, a = report.witness
        assert P.mass(f & ~a) > 0
        assert max_member_table(partition)[0b0001] == 0  # {0} has only the empty set below

    def test_matches_member_scan(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            space = StateSpace(n)
            for _ in range(20):
                P = random_probability(space, rng, strictly_positive=False)
                partition = random_partition(space, rng)
                assert check_dense(partition, P).holds == dense_by_member_scan(
                    generated_algebra(partition).members, P
                )


# ---------------------------------------------------------------------------
# The scaled-integer scans against plain-Fraction reference loops
# ---------------------------------------------------------------------------
#
# The loops below are the scans written directly on Fractions, in the
# library's visiting order, so verdicts and witnesses must agree
# exactly, on both sides of the scaling budget.

# Two large primes: a table using both has a common denominator over 64 bits.
KERNEL_DENOMS = (1, 2, 3, 4, 6, 7, 2**31 - 1, 2**61 - 1)


def ref_validate(values):
    if values[0] != 0:
        return "capacity of the empty set must be 0", (0,)
    for mask, x in enumerate(values):
        if x < 0:
            return f"negative value at mask {mask}", (mask,)
    pair = ref_monotone(values)
    if pair is not None:
        return f"not monotone: v({pair[0]}) > v({pair[1]})", pair
    return None


def ref_monotone(values):
    n = len(values).bit_length() - 1
    for mask in range(1, len(values)):
        for k in range(n):
            if mask >> k & 1 and values[mask ^ (1 << k)] > values[mask]:
                return mask ^ (1 << k), mask
    return None


def ref_convex(values, n):
    for base in range(1 << n):
        for i in range(n):
            for j in range(i + 1, n):
                if base >> i & 1 or base >> j & 1:
                    continue
                e, f = base | 1 << i, base | 1 << j
                lhs = values[e | f] + values[base]
                rhs = values[e] + values[f]
                if lhs < rhs:
                    return PropertyReport(False, (e, f))
    return PropertyReport(True)


def ref_null_additive(values, n):
    for e in range(1, 1 << n):
        if values[e] != 0:
            continue
        outside = [1 << k for k in range(n) if not e >> k & 1]
        if any(values[e | b] == 0 for b in outside):
            continue  # not maximal
        for f in range(1 << n):
            if values[e | f] != values[f]:
                return PropertyReport(False, (e, f))
    return PropertyReport(True)


def ref_P_null_additive(values, weights):
    null = sum(1 << k for k, w in enumerate(weights) if w == 0)
    if null == 0:
        return PropertyReport(True)
    for f in range(len(values)):
        g = f & ~null
        if values[g] != values[f]:
            return PropertyReport(False, (g, f))
    return PropertyReport(True)


def ref_strong_ae(values, divergence):
    conv = len(values) - 1 & ~divergence
    for f in range(len(values)):
        if values[f & conv] != values[f]:
            return (f, values[f & conv], values[f])
    return None


def ref_dense(blocks, weights):
    def mass(bits):
        return sum((w for k, w in enumerate(weights) if bits >> k & 1), F(0))

    worst_gap, worst = F(0), None
    for f in range(1 << len(weights)):
        a = 0
        for b in blocks:
            if b & f == b:
                a |= b
        if mass(f & ~a) > worst_gap:
            worst_gap, worst = mass(f & ~a), (f, a)
    if worst is None:
        return PropertyReport(True)
    return PropertyReport(False, worst)


def assert_kernel_matches_reference(n, values, weights, groups, divergence):
    space = StateSpace(n)
    expected = ref_validate(values)
    if expected is not None:
        with pytest.raises(CapacityError) as err:
            Capacity(space, values)
        assert (str(err.value), err.value.witness) == expected
        return
    v = Capacity(space, values)
    assert check_monotone(v) == PropertyReport(True)
    assert check_convex(v) == ref_convex(values, n)
    assert check_null_additive(v) == ref_null_additive(values, n)
    P = ProbabilityMeasure(space, weights)
    assert check_P_null_additive(v, P) == ref_P_null_additive(values, weights)
    partition = Partition.from_blocks(space, groups)
    blocks = [b.bits for b in partition.blocks]
    assert check_dense(partition, P) == ref_dense(blocks, weights)
    # a sequence that stays at 0 where its limit is 1: it diverges there
    zero = SimpleFunction.constant(space, 0)
    seq = FunctionSequence((zero,), SimpleFunction.indicator(space, divergence))
    strong = converges_strong_ae(seq, v)
    assert strong.witness == ref_strong_ae(values, divergence)
    assert strong.holds == (strong.witness is None)


@st.composite
def kernel_cases(draw):
    # up to n=7 every bit meets both slice shapes of the monotonicity scan
    # (offsets for bits 0-3, blocks for bits 4-6) and several offsets
    n = draw(st.integers(1, 7))
    size = 1 << n
    fractions = st.builds(F, st.integers(-1, 6), st.sampled_from(KERNEL_DENOMS))
    values = draw(st.lists(fractions, min_size=size, max_size=size))
    shapes = ("raw", "zero-empty", "monotone", "monotone", "dented")
    shape = draw(st.sampled_from(shapes))
    if shape != "raw":
        values[0] = F(0)
    if shape in ("monotone", "dented"):
        # upward completion: a capacity, often with null sets and non-convex
        for mask in range(1, size):
            below = [values[mask ^ (1 << k)] for k in range(n) if mask >> k & 1]
            values[mask] = max([values[mask], F(0)] + below)
    if shape == "dented":
        # then a few entries lowered (still >= 0): dips on several bits
        for mask in draw(st.lists(st.integers(1, size - 1), max_size=3)):
            values[mask] = values[mask] * draw(st.sampled_from((0, F(1, 2))))
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    dens = draw(st.lists(st.sampled_from(KERNEL_DENOMS), min_size=n, max_size=n))
    mass = [F(r, d) for r, d in zip(raw, dens)]
    if not any(mass):
        mass[0] = F(1)
    weights = tuple(m / sum(mass) for m in mass)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = {}
    for state, label in enumerate(labels):
        groups.setdefault(label, []).append(state)
    divergence = draw(st.integers(0, size - 1))
    return n, tuple(values), weights, list(groups.values()), divergence


def prime_table(n, power):
    """``v(F) = |F|**power + 1/p_F``, one prime denominator per event."""
    primes = [p for p in range(2, 800) if all(p % q for q in range(2, p))]
    return (F(0),) + tuple(
        F(bin(m).count("1") ** power) + F(1, primes[m]) for m in range(1, 1 << n)
    )


class TestScaledKernel:
    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_matches_fraction_reference(self, case):
        assert_kernel_matches_reference(*case)

    @pytest.mark.parametrize("power", [2, 1])
    def test_over_budget_prime_table_matches_reference(self, power):
        # |F|**2 + 1/p_F is convex; |F| + 1/p_F is monotone but not convex
        values = prime_table(6, power)
        v = Capacity(StateSpace(6), values)
        assert v._scaled is v.values  # common denominator over budget
        weights = (F(0),) + (F(1, 5),) * 5
        groups = [[0, 1], [2], [3, 4, 5]]
        assert_kernel_matches_reference(6, values, weights, groups, 0b100101)
        assert check_convex(v).holds == (power == 2)

    @pytest.mark.parametrize("moves", [False, True])
    def test_over_budget_verdicts_match_reference(self, moves):
        """Each per-state verdict, holding and failing, past the budget.

        The states of ``N = {0, 3}`` are null.  With ``moves`` each adds
        its own ``+1`` and ``v`` reads a prime denominator off all of
        ``F``, so every one of them moves ``v``; without, ``v`` reads only
        ``F - N``.  The weights have prime denominators too, zero on ``N``.
        """
        null, primes = 0b001001, prime_table(6, 0)
        values = [F(0)] * 64
        for m in range(64):
            if m & ~null:
                values[m] = 2 * bin(m & ~null).count("1") ** 2 + primes[m & ~null]
                if moves:
                    values[m] += bin(m & null).count("1") + primes[m]
        v = Capacity(StateSpace(6), tuple(values))
        assert v._scaled is v.values  # common denominator over budget
        primes = (2, 3, 5, 7, 11, 13)
        raw = [F(0) if null >> k & 1 else F(1, p) for k, p in enumerate(primes)]
        weights = tuple(w / sum(raw) for w in raw)
        # N is one block of no mass: dense iff the other blocks are singletons
        groups = [[0, 3], [1, 2], [4], [5]] if moves else [[0, 3], [1], [2], [4], [5]]
        assert_kernel_matches_reference(6, tuple(values), weights, groups, null)
        P = ProbabilityMeasure(StateSpace(6), weights)
        partition = Partition.from_blocks(v.space, groups)
        zero = SimpleFunction.constant(v.space, 0)
        seq = FunctionSequence((zero,), SimpleFunction.indicator(v.space, null))
        verdicts = (
            check_null_additive(v).holds,
            check_P_null_additive(v, P).holds,
            converges_strong_ae(seq, v).holds,
            check_dense(partition, P).holds,
        )
        assert verdicts == (not moves,) * 4

    def test_over_budget_non_monotone_table_matches_reference(self):
        values = list(prime_table(6, 2))
        values[1] = F(10) + values[1]
        with pytest.raises(CapacityError) as err:
            Capacity(StateSpace(6), tuple(values))
        assert (str(err.value), err.value.witness) == ref_validate(values)
        assert err.value.witness == (1, 3)

    @pytest.mark.parametrize("over_budget", [False, True])
    @pytest.mark.parametrize(
        "light, dents, witness",
        [
            # a tie: 77 dips on bit 3 (offset slice r=5) and bit 6 (a block)
            ((3, 6), (77, 90), (69, 77)),
            # a block-shaped dip (bit 4) before offset-shaped ones (bit 1)
            ((1, 4), (53, 58, 99), (37, 53)),
            # one bit, three offsets: the last offset (r=3) holds the first dip
            ((2,), (108, 70, 55), (51, 55)),
            # and the first offset (r=0)
            ((2,), (71, 44), (40, 44)),
            # ties on bits 0 and 2 at 29, a later dip on bit 2 at offset r=2
            ((0, 2), (118, 121, 29), (28, 29)),
        ],
    )
    def test_first_dip_across_bits_and_offsets(
        self, light, dents, witness, over_budget
    ):
        """Dips at chosen pairs of an n=7 table, on both sides of the budget.

        The table is additive with weight 1 on the ``light`` states and 4
        on the others (over budget, plus ``1 + 1/p_F`` on every nonempty
        ``F``); each dent ``U`` is lowered by 2, so it dips against
        ``U - {k}`` for every light ``k`` in ``U`` and nowhere else.
        """
        weights = [1 if k in light else 4 for k in range(7)]
        values = [
            sum(w for k, w in enumerate(weights) if m >> k & 1) for m in range(128)
        ]
        if over_budget:
            values = [x + y for x, y in zip(values, prime_table(7, 0))]
        values = [F(x) for x in values]
        for mask in dents:
            values[mask] -= 2
        with pytest.raises(CapacityError) as err:
            Capacity(StateSpace(7), tuple(values))
        assert (str(err.value), err.value.witness) == ref_validate(values)
        assert err.value.witness == witness

    def test_within_budget_table_scans_ints(self):
        v = random_capacity(4, 0, "general")
        assert all(type(x) is int for x in v._scaled)
        assert v == Capacity(v.space, v.values)
        assert repr(v) == repr(Capacity(v.space, v.values))


def test_capacity_parse_shares_repeated_strings():
    strings = ["0", "1/2", "2/4", "1/2", "3/4", "1", "6/8", "1"]
    obj = {"n": 3, "values": {str(m): x for m, x in enumerate(strings)}}
    parsed = jsonio.capacity_from_obj(obj)
    separately = Capacity(StateSpace(3), tuple(F(x) for x in strings))
    assert parsed == separately
    assert parsed.values == separately.values
    assert all(type(x) is F for x in parsed.values)
