"""Seeded op lists for the four benchmark workloads, with their replay checks.

A workload is a fixed list of ops built from ``(workload, seed)`` before
any timing.  Each op is one call into the public API of ``nonadd`` (or one
``nonadd.cli.main(argv)`` invocation with stdout captured) plus a replay
check that re-derives the op's exact claims from its output.

Every op looks its entry point up on the package at call time
(``nx.concave_integral``, ``nx.cli.main``), never through a name bound
while the list is built, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("lp-large", "sweep-small", "tables-large", "countable")

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is
# the smoke mode, small enough for a unit test.
SIZES = {
    "full": {
        # (n, profile, count) for concave_integral solves
        # many n=8 solves rather than a few large ones: solve times vary
        # by a factor of several between seeds' instances, and only a long
        # list averages that out.  Convex tables need several times the
        # pivots of general ones and vary more, so there are few of them.
        "lp_solves": [
            (8, "general", 200),
            (9, "general", 16),
            (10, "general", 1),
            (8, "convex", 3),
        ],
        "lp_covers": (6, 1),  # (n, count) of balanced_cover calls
        "lp_cli_cav": (8, 3),  # (n, count) of `integrate cav`
        "lp_cli_cover": (6, 1),  # (n, count) of `cover --out`
        "sweep_instances": 1000,
        "sweep_max_n": 6,
        "sweep_psa": 100,
        "sweep_sequences": 60,
        # enough that the tail percentile falls among these, the slowest ops
        "sweep_psp": 16,
        "tables_convex_n": 13,
        "tables_null_large_n": 14,
        "tables_mid_n": 12,
        "tables_counts": {
            "convex": 1,
            "null_large": 2,
            "null_mid": 10,
            "choquet": 2,
            "dense": 10,
            "weak_ae": 1,
            "gen": 1,
        },
        "countable_m": 10,
        "countable_depth": 10000,
        "countable_cli_repeats": 3,
        "countable_runs": 6,
        # horizon exponent k -> number of countable_psa_integral calls at 2*10**k
        "countable_psa": {1: 10, 2: 10, 3: 6, 4: 1},
        "countable_mc": 10,
    },
    "tiny": {
        "lp_solves": [(3, "general", 2), (4, "general", 2), (4, "convex", 2)],
        "lp_covers": (3, 1),
        "lp_cli_cav": (4, 1),
        "lp_cli_cover": (3, 1),
        "sweep_instances": 24,
        "sweep_max_n": 4,
        "sweep_psa": 4,
        "sweep_sequences": 4,
        "sweep_psp": 1,
        "tables_convex_n": 5,
        "tables_null_large_n": 5,
        "tables_mid_n": 4,
        "tables_counts": {
            "convex": 1,
            "null_large": 1,
            "null_mid": 2,
            "choquet": 1,
            "dense": 2,
            "weak_ae": 1,
            "gen": 1,
        },
        "countable_m": 3,
        "countable_depth": 50,
        "countable_cli_repeats": 1,
        "countable_runs": 2,
        "countable_psa": {1: 2, 2: 1},
        "countable_mc": 2,
    },
}


class ReplayError(Exception):
    """An op's output failed the replay of its own exact claims."""


def _same(out: Any) -> Any:
    return out


@dataclass(frozen=True)
class Op:
    """One closed-loop call: ``run()`` does the work, ``check(out)`` replays it.

    ``exact(out)`` is the part of the output the digest covers.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    exact: Callable[[Any], Any] = _same


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ReplayError(what)


# ---------------------------------------------------------------------------
# Canonical outputs (what the digest covers)
# ---------------------------------------------------------------------------

# Fields of report objects that carry exact results.  Anything else on a
# report (free-text detail, diagnostics a later version may add) stays out
# of the digest, so adding observability does not look like a changed result.
_REPORT_FIELDS = (
    "holds",
    "converges",
    "basis",
    "witness",
    "integral_trace",
    "limit_integral",
    "gap_at_depth",
    "finite_atoms",
    "divergence_bound",
    "target",
    "stabilized_at",
    "continuity",
    "dense",
    "lebesgue",
    "monotone_convergence",
    "null_additive",
    "strictly_positive",
)


def _frac(x: Fraction) -> str:
    # hex, because str() refuses integers above 4300 decimal digits and
    # block sums at large horizons reach them
    return f"{x.numerator:x}/{x.denominator:x}"


def canonical(nx, x: Any) -> Any:
    """JSON-ready exact form of an op output: values, witnesses, duals, verdicts."""
    if isinstance(x, Fraction):
        return _frac(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [canonical(nx, i) for i in x]
    if isinstance(x, dict):
        return {str(k): canonical(nx, v) for k, v in x.items()}
    if isinstance(x, nx.IntegralResult):
        return {
            "value": _frac(x.value),
            "witness": canonical(nx, x.witness),
            "duals": canonical(nx, x.dual_witness),
        }
    if isinstance(x, (nx.Decomposition, nx.FunctionDecomposition)):
        return [[_frac(w), canonical(nx, t)] for w, t in x.terms]
    if isinstance(x, (nx.SimpleFunction, nx.Capacity)):
        return canonical(nx, x.values)
    if isinstance(x, nx.InducedCapacity):
        return {"values": canonical(nx, x.base.values), "witness_map": list(x.witness_map)}
    if isinstance(x, nx.FunctionSequence):
        return {"terms": canonical(nx, x.terms), "limit": canonical(nx, x.limit)}
    if isinstance(x, nx.StateSpace):
        return x.n
    if isinstance(x, nx.SubsetMask):
        return x.bits
    if dataclasses.is_dataclass(x):
        names = [f.name for f in dataclasses.fields(x)]
        picked = [n for n in _REPORT_FIELDS if n in names]
        return {n: canonical(nx, getattr(x, n)) for n in (picked or names)}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def canonical_text(nx, op: Op, out: Any) -> str:
    return json.dumps(canonical(nx, op.exact(out)), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Shared replays
# ---------------------------------------------------------------------------


def _check_decomposition(res, f, v) -> None:
    _require(res.witness.fits_under(f), "witness does not fit under f")
    _require(res.witness.weight_against(v) == res.value, "witness weight != value")


def _check_concave(nx, f, v, res, oracle: bool = False) -> None:
    _check_decomposition(res, f, v)
    _require(nx.verify_dual_certificate(res, f, v), "dual certificate fails")
    if oracle:
        _require(nx.brute_force_cav_oracle(f, v) == res.value, "oracle disagrees")


def _check_report(report, replay: Callable[..., bool], *args) -> None:
    if not report.holds:
        _require(replay(*args, *report.witness), "property witness does not replay")


def _check_cover(v, cover) -> None:
    _require(len(cover.values) == len(v.values), "cover has the wrong size")
    _require(
        all(c >= x for c, x in zip(cover.values, v.values)),
        "cover does not dominate the capacity",
    )


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in process, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_report(out: tuple[int, str]) -> dict:
    """The CLI's JSON report without its wall-clock field."""
    code, text = out
    _require(code == 0, f"CLI exited {code}")
    report = json.loads(text)
    report.pop("elapsed_s", None)
    return report


def _cli_exact(out: tuple[int, str]) -> dict:
    try:
        return {"exit": out[0], "report": cli_report(out)}
    except (ReplayError, ValueError):
        return {"exit": out[0], "stdout": out[1]}


def _cli_op(nx, kind: str, argv: list[str], check=None) -> Op:
    def _check(out):
        report = cli_report(out)
        if check is not None:
            check(report)

    return Op(kind, lambda: run_cli(nx.cli, argv), _check, _cli_exact)


def _write(nx, obj_to_json: Callable, obj, name: str) -> str:
    nx.jsonio.dump(obj_to_json(obj), name)
    return name


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _lp_large(nx, rng: random.Random, sz: dict) -> list[Op]:
    ops: list[Op] = []
    for n, profile, count in sz["lp_solves"]:
        for _ in range(count):
            v = nx.random_capacity(n, rng.randrange(1 << 30), profile)
            f = nx.random_simple_function(v.space, rng)
            ops.append(
                Op(
                    f"cav-{profile}-{n}",
                    lambda f=f, v=v: nx.concave_integral(f, v),
                    lambda res, f=f, v=v: _check_concave(nx, f, v, res),
                )
            )
    n, count = sz["lp_covers"]
    for _ in range(count):
        v = nx.random_capacity(n, rng.randrange(1 << 30), "general")
        ops.append(
            Op(
                f"cover-{n}",
                lambda v=v: nx.balanced_cover(v),
                lambda cover, v=v: _check_cover(v, cover),
            )
        )
    n, count = sz["lp_cli_cav"]
    for i in range(count):
        v = nx.random_capacity(n, rng.randrange(1 << 30), "general")
        f = nx.random_simple_function(v.space, rng)
        cap = _write(nx, nx.jsonio.capacity_to_obj, v, f"cav{i}.json")
        fun = _write(nx, nx.jsonio.function_to_obj, f, f"cavf{i}.json")

        def _replay(report, f=f, v=v):
            res = nx.IntegralResult(
                Fraction(report["results"]["value"]),
                nx.Decomposition(
                    tuple((Fraction(w), int(m)) for w, m in report["results"]["witness"])
                ),
                tuple(Fraction(y) for y in report["results"]["dual_witness"]),
            )
            _check_concave(nx, f, v, res)

        ops.append(
            _cli_op(nx, "cli-cav", ["integrate", "cav", "--capacity", cap, "--function", fun], _replay)
        )
    n, count = sz["lp_cli_cover"]
    for i in range(count):
        v = nx.random_capacity(n, rng.randrange(1 << 30), "general")
        cap = _write(nx, nx.jsonio.capacity_to_obj, v, f"cov{i}.json")
        out = f"cov{i}.out.json"

        def _replay(report, v=v, out=out):
            written = nx.jsonio.load(out)
            _require(written == report["results"]["cover"], "written cover differs")
            _check_cover(v, nx.jsonio.capacity_from_obj(written))

        ops.append(_cli_op(nx, "cli-cover", ["cover", "--capacity", cap, "--out", out], _replay))
    rng.shuffle(ops)
    return ops


def _sweep_small(nx, rng: random.Random, sz: dict) -> list[Op]:
    ops: list[Op] = []
    profiles = ("general", "convex", "null-additive", "induced")
    max_n = sz["sweep_max_n"]
    for i in range(sz["sweep_instances"]):
        n = 1 + i % max_n
        profile = profiles[(i // max_n) % len(profiles)]
        v = nx.random_capacity(n, rng.randrange(1 << 30), profile)
        f = nx.random_simple_function(v.space, rng)

        def _run(f=f, v=v):
            return (
                nx.choquet_integral(f, v),
                nx.concave_integral(f, v),
                nx.check_convex(v),
                nx.check_null_additive(v),
            )

        def _check(out, f=f, v=v):
            cho, cav, convex, null_add = out
            _check_decomposition(cho, f, v)
            _check_concave(nx, f, v, cav, oracle=f.space.n <= 3)
            _require(cav.value >= cho.value, "concave below Choquet")
            if convex.holds:
                _require(cav.value == cho.value, "convex capacity but integrals differ")
            _check_report(convex, nx.capacity.replay_convexity_violation, v)
            _check_report(null_add, nx.capacity.replay_null_additivity_violation, v)

        ops.append(Op(f"instance-{n}", _run, _check))
    for _ in range(sz["sweep_psa"]):
        space = nx.StateSpace(rng.randint(4, max_n))
        P = nx.random_probability(space, rng)
        partition = nx.random_partition(space, rng)
        f = nx.random_simple_function(space, rng)

        def _run(f=f, P=P, partition=partition):
            return nx.induce(P, partition), nx.psa_integral(f, P, partition)

        def _check(out, f=f):
            ic, psa = out
            _require(psa.witness.fits_under(f), "psa witness does not fit under f")
            _require(
                nx.choquet_integral(f, ic.base).value == psa.value,
                "psa differs from the Choquet integral of the induced capacity",
            )

        ops.append(Op("induce-psa", _run, _check))
    for _ in range(sz["sweep_sequences"]):
        v = nx.random_capacity(rng.randint(3, max_n), rng.randrange(1 << 30), rng.choice(profiles))
        seed = rng.randrange(1 << 30)

        def _run(v=v, seed=seed):
            return [
                (
                    seq,
                    nx.converges_weak_ae(seq, v),
                    nx.converges_strong_ae(seq, v),
                    nx.monotone_convergence_experiment(seq, v),
                )
                for seq in nx.generate_sequences(v, seed=seed, count=4)
            ]

        def _check(out):
            for _, weak, strong, exp in out:
                # strong a.e. convergence implies weak, and then the integrals converge
                if strong.holds:
                    _require(weak.holds and exp.holds, "strong convergence without its consequences")

        ops.append(Op("sequences", _run, _check))
    for i in range(sz["sweep_psp"]):
        space = nx.StateSpace(max_n)
        P = nx.random_probability(space, rng)
        family = [nx.random_simple_function(space, rng) for _ in range(3 + i % 2)]

        def _check(cap, P=P):
            _require(cap.values[-1] <= 1, "known-expectations capacity exceeds 1")

        ops.append(Op("induced-psp", lambda P=P, family=family: nx.induced_psp_capacity(P, family), _check))
    rng.shuffle(ops)
    return ops


def _tables_large(nx, rng: random.Random, sz: dict) -> list[Op]:
    counts = sz["tables_counts"]
    big, mid = sz["tables_null_large_n"], sz["tables_mid_n"]
    to_cap = nx.jsonio.capacity_to_obj

    def cap_file(n, profile, name):
        return _write(nx, to_cap, nx.random_capacity(n, rng.randrange(1 << 30), profile), name)

    def verdict(expected):
        def _check(report):
            _require(report["results"]["holds"] is expected, f"verdict is not {expected}")

        return _check

    ops: list[Op] = []
    # a convex table makes the supermodularity scan run to the end
    convex = cap_file(sz["tables_convex_n"], "convex", "convex.json")
    for _ in range(counts["convex"]):
        ops.append(_cli_op(nx, "check-convex", ["check", "convex", "--capacity", convex], verdict(True)))
    null_big = cap_file(big, "null-additive", "null_big.json")
    for _ in range(counts["null_large"]):
        ops.append(
            _cli_op(nx, "check-null-large", ["check", "null-additive", "--capacity", null_big], verdict(True))
        )
    for i in range(counts["null_mid"]):
        name = cap_file(mid, ("null-additive", "general")[i % 2], f"null_mid{i}.json")
        ops.append(_cli_op(nx, "check-null-mid", ["check", "null-additive", "--capacity", name]))
    for i in range(counts["choquet"]):
        fun = _write(
            nx, nx.jsonio.function_to_obj, nx.random_simple_function(nx.StateSpace(big), rng), f"f_big{i}.json"
        )
        ops.append(
            _cli_op(nx, "choquet", ["integrate", "choquet", "--capacity", null_big, "--function", fun])
        )
    space = nx.StateSpace(mid)
    checks = (
        ("dense", counts["dense"], None),
        # the measures are strictly positive, so the four conditions must agree
        ("weak-ae-equivalence", counts["weak_ae"], lambda r: _require(r["results"]["agree"], "conditions disagree")),
    )
    for kind, count, check in checks:
        for i in range(count):
            # a fixed block count: the cost of these checks grows with it
            states = list(space.states())
            rng.shuffle(states)
            partition = nx.Partition.from_blocks(space, [states[b::mid // 2] for b in range(mid // 2)])
            meas = _write(nx, nx.jsonio.measure_to_obj, nx.random_probability(space, rng), f"{kind}{i}.m.json")
            part = _write(nx, nx.jsonio.partition_to_obj, partition, f"{kind}{i}.p.json")
            ops.append(_cli_op(nx, kind, ["check", kind, "--measure", meas, "--partition", part], check))
    for i in range(counts["gen"]):
        argv = ["gen", "--n", str(big), "--seed", str(rng.randrange(1 << 30)), "--out", f"gen{i}.json"]
        ops.append(_cli_op(nx, "gen", argv))
    rng.shuffle(ops)
    return ops


def _countable(nx, rng: random.Random, sz: dict) -> list[Op]:
    ops: list[Op] = []
    m, depth = sz["countable_m"], sz["countable_depth"]
    for _ in range(sz["countable_cli_repeats"]):
        seed = str(rng.randrange(1 << 30))
        ops.append(
            _cli_op(nx, "dyadic", ["converge", "--preset", "dyadic", "--m", str(m), "--seed", seed],
                    lambda r: _require(r["results"]["convergent"] is True, "dyadic run did not converge"))
        )
        ops.append(
            _cli_op(nx, "pair-blocks", ["converge", "--preset", "pair-blocks", "--depth", str(depth)],
                    lambda r: _require(r["results"]["convergent"] is True, "pair blocks did not converge"))
        )
        ops.append(
            _cli_op(nx, "trivial-field", ["converge", "--preset", "trivial-field"],
                    lambda r: _require(r["results"]["convergent"] is False, "trivial field converged"))
        )
    size = 1 << m
    partitions = nx.dyadic_partitions(m)
    uniform = nx.uniform_finite_measure(size)
    for _ in range(sz["countable_runs"]):
        g = nx.countable.random_eventually_constant_function(rng, size)
        g = nx.EventuallyConstantFunction(size, g.values, Fraction(0))

        def _check(run):
            trace = run.integral_trace
            _require(all(a <= b for a, b in zip(trace, trace[1:])), "trace decreases")
            _require(run.converges is True and trace[-1] == run.target, "full information missed the target")
            _require(run.continuity.holds, "dyadic refinement not continuous")

        ops.append(
            Op("increasing-info", lambda g=g: nx.increasing_information_run(partitions, uniform, g), _check)
        )
    for k, count in sz["countable_psa"].items():
        for _ in range(count):
            g = nx.countable.random_eventually_constant_function(rng, 2 * 10**k)

            def _check(value, g=g):
                lebesgue = nx.countable_lebesgue(g, nx.pairs_model().measure)
                _require(0 <= value <= lebesgue, "partition integral above the expectation")

            ops.append(Op(f"psa-2e{k}", lambda g=g: nx.countable_psa_integral(g, nx.pairs_model()), _check))

    def _check_divergent(report):
        _require(report.converges is False, "trivial field converged")
        _require(report.divergence_bound < report.limit_integral, "no divergence certificate")

    for _ in range(sz["countable_mc"]):
        ops.append(
            Op(
                "trivial-mc",
                lambda: nx.monotone_convergence_countable(nx.trivial_model(), nx.unit_prefix_sequence()),
                _check_divergent,
            )
        )
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "lp-large": _lp_large,
    "sweep-small": _sweep_small,
    "tables-large": _tables_large,
    "countable": _countable,
}


def build(nx, workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of ``workload`` for ``seed``; input files go to the cwd."""
    rng = random.Random(f"{seed}|{workload}")
    return _BUILDERS[workload](nx, rng, SIZES["tiny" if tiny else "full"])
