"""Command-line front door.

Subcommands: ``integrate`` (choquet | cav | psa | psp), ``check``
(monotone | convex | null-additive | p-null-additive | dense |
weak-ae-equivalence), ``cover``, ``converge`` (presets or a capacity +
sequence file), and ``gen`` (seeded random capacities to a file).

All values print as exact ``p/q`` strings (``--decimal K`` adds rounded
companions for display only).  A completed run exits 0 regardless of the
verdict; ``--assert`` flips false verdicts to exit 1 for CI use.
Malformed input exits 2 with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import countable, jsonio
from .capacity import (
    CapacityError,
    PropertyReport,
    check_convex,
    check_dense,
    check_monotone,
    check_null_additive,
    check_P_null_additive,
)
from .convergence import (
    FunctionSequence,
    converges_pointwise,
    converges_strong_ae,
    converges_weak_ae,
    counterexample_null_additivity,
    monotone_convergence_experiment,
    random_capacity,
)
from .induced import check_weak_ae_equivalence
from .integrals import (
    SimpleFunction,
    balanced_cover,
    choquet_integral,
    concave_integral,
    psa_integral,
    psp_integral,
)
from .jsonio import FormatError
from .sets import generated_algebra


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _frac(x: Fraction) -> str:
    return str(x)


def _maybe_decimal(results: dict, key: str, x: Fraction, places: int | None) -> None:
    results[key] = _frac(x)
    if places is not None:
        results[key + "_decimal"] = f"{float(x):.{places}f}"


def _witness_obj(witness) -> list:
    out = []
    for item in witness or ():
        if isinstance(item, Fraction):
            out.append(_frac(item))
        elif isinstance(item, (int, str, bool)):
            out.append(str(item))
        elif isinstance(item, tuple):
            out.append(_witness_obj(item))
        else:
            out.append(repr(item))
    return out


def _decomposition_obj(witness) -> list | None:
    if witness is None:
        return None
    terms = getattr(witness, "terms", ())
    out = []
    for w, target in terms:
        if isinstance(target, int):
            out.append([_frac(w), str(target)])
        else:  # a function member of a known family
            out.append([_frac(w), [_frac(x) for x in target.values]])
    return out


def _report_obj(report) -> dict:
    return {"holds": report.holds, "witness": _witness_obj(report.witness)}


def _sequence_from_json(obj, capacity) -> FunctionSequence:
    if not isinstance(obj, dict):
        raise FormatError("a sequence must be a JSON object")
    kind = obj.get("kind")
    space = capacity.space

    def function(raw) -> SimpleFunction:
        if not isinstance(raw, list):
            raise FormatError(f"sequence function must be a list, got {raw!r}")
        return SimpleFunction(space, tuple(jsonio.frac_from_str(x) for x in raw))

    def integer(key: str, default=None) -> int:
        raw = obj.get(key, default)
        try:
            return int(raw)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{kind} needs an integer {key!r}, got {raw!r}") from exc

    if kind == "ramp":
        target = function(obj.get("target", []))
        steps = integer("steps", 3)
        terms = tuple(
            target.scale(Fraction(s, steps)) for s in range(1, steps + 1)
        )
        return FunctionSequence(terms, target)
    if kind == "null-counterexample":
        e, f = integer("E"), integer("F")
        if not (0 <= e < space.num_subsets and 0 <= f < space.num_subsets):
            raise FormatError(f"E and F must be masks in 0..{space.full_bits}")
        return counterexample_null_additivity(capacity, e, f)
    if kind == "custom":
        rows = obj.get("terms", [])
        if not isinstance(rows, list):
            raise FormatError(f"custom needs a list of 'terms', got {rows!r}")
        terms = tuple(function(row) for row in rows)
        return FunctionSequence(terms, function(obj.get("limit", [])))
    raise FormatError(f"unknown sequence kind {kind!r}")


def _need(args, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise FormatError(
            f"{args.command} {args.which}: missing {', '.join(missing)}"
        )


def _cmd_integrate(args, results: dict) -> bool:
    if args.which in ("choquet", "cav"):
        _need(args, "capacity")
    elif args.which == "psa":
        _need(args, "measure", "partition")
    else:
        _need(args, "measure", "family")
    f = jsonio.function_from_obj(jsonio.load(args.function))
    if args.which in ("choquet", "cav"):
        v = jsonio.capacity_from_obj(jsonio.load(args.capacity))
        compute = choquet_integral if args.which == "choquet" else concave_integral
        res = compute(f, v)
    elif args.which == "psa":
        P = jsonio.measure_from_obj(jsonio.load(args.measure))
        p = jsonio.partition_from_obj(jsonio.load(args.partition))
        res = psa_integral(f, P, p)
    else:  # psp
        P = jsonio.measure_from_obj(jsonio.load(args.measure))
        family = jsonio.family_from_obj(jsonio.load(args.family))
        res = psp_integral(f, P, family)
    _maybe_decimal(results, "value", res.value, args.decimal)
    results["witness"] = _decomposition_obj(res.witness)
    if res.dual_witness is not None:
        results["dual_witness"] = [_frac(y) for y in res.dual_witness]
    return True


def _cmd_check(args, results: dict) -> bool:
    if args.which in ("monotone", "convex", "null-additive"):
        _need(args, "capacity")
        try:
            v = jsonio.capacity_from_obj(jsonio.load(args.capacity))
        except CapacityError as exc:
            # loading runs the monotonicity scan: a covering-pair witness
            # is that check's verdict, any other failure is bad input
            if args.which != "monotone" or len(exc.witness) != 2:
                raise
            report = PropertyReport(False, exc.witness)
        else:
            checker = {
                "monotone": check_monotone,
                "convex": check_convex,
                "null-additive": check_null_additive,
            }[args.which]
            report = checker(v)
    elif args.which == "p-null-additive":
        _need(args, "capacity", "measure")
        v = jsonio.capacity_from_obj(jsonio.load(args.capacity))
        P = jsonio.measure_from_obj(jsonio.load(args.measure))
        report = check_P_null_additive(v, P)
    elif args.which == "dense":
        _need(args, "measure", "partition")
        P = jsonio.measure_from_obj(jsonio.load(args.measure))
        p = jsonio.partition_from_obj(jsonio.load(args.partition))
        report = check_dense(generated_algebra(p), P)
    else:  # weak-ae-equivalence
        _need(args, "measure", "partition")
        P = jsonio.measure_from_obj(jsonio.load(args.measure))
        p = jsonio.partition_from_obj(jsonio.load(args.partition))
        full = check_weak_ae_equivalence(P, p, seed=args.seed)
        results["conditions"] = full.verdicts()
        results["agree"] = full.agree
        results["strictly_positive"] = full.strictly_positive
        for name, rep in (
            ("dense", full.dense),
            ("lebesgue", full.lebesgue),
            ("monotone_convergence", full.monotone_convergence),
            ("null_additive", full.null_additive),
        ):
            if not rep.holds:
                results[f"{name}_witness"] = _witness_obj(rep.witness)
        return full.agree
    results.update(_report_obj(report))
    return report.holds


def _cmd_cover(args, results: dict) -> bool:
    v = jsonio.capacity_from_obj(jsonio.load(args.capacity))
    cover = balanced_cover(v)
    equal = cover.values == v.values
    results["equals_original"] = equal
    results["cover"] = jsonio.capacity_to_obj(cover)
    _maybe_decimal(results, "total", cover.total(), args.decimal)
    if args.out:
        jsonio.dump(jsonio.capacity_to_obj(cover), args.out)
        results["written"] = args.out
    return True


def _trace_obj(trace, limit: int = 100) -> dict:
    values = [_frac(x) for x in trace]
    if len(values) <= limit:
        return {"trace": values}
    return {
        "trace_head": values[:10],
        "trace_tail": values[-10:],
        "trace_length": len(values),
    }


def _cmd_converge(args, results: dict) -> bool:
    if args.depth is not None and args.depth < 1:
        raise FormatError(f"--depth must be at least 1, got {args.depth}")
    if args.m is not None and args.m < 0:
        raise FormatError(f"--m must be nonnegative, got {args.m}")
    depth = 50 if args.depth is None else args.depth
    if args.preset == "pair-blocks":
        trace = countable.pairs_partial_sum_trace(depth)
        report = countable.monotone_convergence_countable(
            countable.pairs_model(), countable.unit_prefix_sequence(), depth=12
        )
        results.update(_trace_obj(trace))
        _maybe_decimal(results, "limit_integral", report.limit_integral, args.decimal)
        results["convergent"] = bool(report.converges)
        results["basis"] = report.basis
        return bool(report.converges)
    if args.preset == "trivial-field":
        model = countable.trivial_model()
        seq = countable.unit_prefix_sequence()
        report = countable.monotone_convergence_countable(model, seq, depth=min(depth, 64))
        results.update(_trace_obj(report.integral_trace))
        _maybe_decimal(results, "limit_integral", report.limit_integral, args.decimal)
        results["convergent"] = bool(report.converges)
        results["basis"] = report.basis
        if report.divergence_bound is not None:
            results["divergence_bound"] = _frac(report.divergence_bound)
        return bool(report.converges)
    if args.preset == "dyadic":
        m = args.m if args.m is not None else 4
        rng = random.Random(f"{args.seed}|dyadic")
        size = 1 << m
        f = countable.random_eventually_constant_function(rng, size)
        f = countable.EventuallyConstantFunction(size, f.values, Fraction(0))
        run = countable.increasing_information_run(
            countable.dyadic_partitions(m),
            countable.uniform_finite_measure(size),
            f,
        )
        results.update(_trace_obj(run.integral_trace))
        _maybe_decimal(results, "target", run.target, args.decimal)
        results["stabilized_at"] = run.stabilized_at
        results["convergent"] = run.converges
        results["increases_continuously"] = run.continuity.holds
        return run.converges
    if args.preset is not None:
        raise FormatError(f"unknown preset {args.preset!r}")

    if not args.capacity or not args.sequence:
        raise FormatError("need --preset, or --capacity with --sequence")
    v = jsonio.capacity_from_obj(jsonio.load(args.capacity))
    seq = _sequence_from_json(jsonio.load(args.sequence), v)
    exp = monotone_convergence_experiment(seq, v, integral=args.integral)
    results["modes"] = {
        "pointwise": converges_pointwise(seq).holds,
        "weak_v_ae": converges_weak_ae(seq, v).holds,
        "strong_v_ae": converges_strong_ae(seq, v).holds,
    }
    results.update(_trace_obj(exp.integral_trace))
    _maybe_decimal(results, "limit_integral", exp.limit_integral, args.decimal)
    results["convergent"] = exp.holds
    if not exp.holds:
        gap = exp.limit_integral - exp.integral_trace[-1]
        _maybe_decimal(results, "gap", gap, args.decimal)
    return exp.holds


def _cmd_gen(args, results: dict) -> bool:
    v = random_capacity(args.n, args.seed, args.profile)
    obj = jsonio.capacity_to_obj(v)
    jsonio.dump(obj, args.out)
    results["written"] = args.out
    results["digest"] = _digest(args.out)
    results["profile"] = args.profile
    return True


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted both before and after the subcommand;
    # the subcommand copy uses SUPPRESS defaults (and its own action
    # objects) so it never clobbers a value parsed up front
    def global_flags(defaults: bool) -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument(
            "--seed",
            type=int,
            default=0 if defaults else argparse.SUPPRESS,
            help="seed for anything random",
        )
        flags.add_argument(
            "--assert",
            dest="assert_verdict",
            action="store_true",
            default=False if defaults else argparse.SUPPRESS,
            help="exit 1 when the verdict is false (for CI)",
        )
        flags.add_argument(
            "--decimal",
            type=int,
            default=None if defaults else argparse.SUPPRESS,
            metavar="K",
            help="add K-digit decimal renderings next to exact values",
        )
        return flags

    common = global_flags(defaults=False)
    parser = argparse.ArgumentParser(
        prog="nonadd",
        description="Exact non-additive integration and capacity property checks.",
        parents=[global_flags(defaults=True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser(
        "integrate", help="compute an integral", parents=[common]
    )
    p_int.add_argument("which", choices=("choquet", "cav", "psa", "psp"))
    p_int.add_argument("--function", required=True)
    p_int.add_argument("--capacity")
    p_int.add_argument("--measure")
    p_int.add_argument("--partition")
    p_int.add_argument("--family")

    p_chk = sub.add_parser(
        "check", help="check a structural property", parents=[common]
    )
    p_chk.add_argument(
        "which",
        choices=(
            "monotone",
            "convex",
            "null-additive",
            "p-null-additive",
            "dense",
            "weak-ae-equivalence",
        ),
    )
    p_chk.add_argument("--capacity")
    p_chk.add_argument("--measure")
    p_chk.add_argument("--partition")

    p_cov = sub.add_parser(
        "cover", help="totally balanced cover of a capacity", parents=[common]
    )
    p_cov.add_argument("--capacity", required=True)
    p_cov.add_argument("--out")

    p_con = sub.add_parser(
        "converge", help="monotone-convergence experiments", parents=[common]
    )
    p_con.add_argument(
        "--preset", choices=("pair-blocks", "trivial-field", "dyadic")
    )
    p_con.add_argument("--depth", type=int)
    p_con.add_argument("--m", type=int, help="dyadic window exponent")
    p_con.add_argument("--capacity")
    p_con.add_argument("--sequence")
    p_con.add_argument("--integral", choices=("choquet", "cav"), default="choquet")

    p_gen = sub.add_parser(
        "gen", help="write a seeded random capacity", parents=[common]
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument(
        "--profile",
        choices=("general", "convex", "null-additive", "induced"),
        default="general",
    )
    p_gen.add_argument("--out", required=True)

    return parser


_HANDLERS = {
    "integrate": _cmd_integrate,
    "check": _cmd_check,
    "cover": _cmd_cover,
    "converge": _cmd_converge,
    "gen": _cmd_gen,
}

_INPUT_ARGS = ("capacity", "measure", "partition", "function", "family", "sequence")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    results: dict = {}
    try:
        verdict = _HANDLERS[args.command](args, results)
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = {}
    for name in _INPUT_ARGS:
        path = getattr(args, name, None)
        if path:
            try:
                inputs[path] = _digest(path)
            except OSError:
                inputs[path] = "unreadable"
    report = {
        "command": [args.command] + ([args.which] if hasattr(args, "which") else []),
        "inputs": inputs,
        "results": results,
        "elapsed_s": round(time.perf_counter() - started, 6),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.assert_verdict and not verdict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
