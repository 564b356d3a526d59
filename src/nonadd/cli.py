"""Command-line front door.

Subcommands: ``integrate`` and ``check`` (one library call per ``which``,
listed in ``_INTEGRALS`` and ``_CHECKS``), ``cover``, ``converge`` (presets
or a capacity + sequence file), and ``gen`` (seeded random capacities to a
file).

All values print as exact ``p/q`` strings of any length, through
``jsonio.frac_to_str`` (``--decimal K`` adds companions
rounded half to even from the exact value, for display only).  A completed
run exits 0 regardless of the verdict; ``--assert`` flips false verdicts to
exit 1 for CI use.
Malformed input or a closed stdout exits 2 with a diagnostic on stderr; a
broken internal invariant exits 3 with ``internal error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
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
    PROFILES,
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
    Decomposition,
    FunctionDecomposition,
    SimpleFunction,
    balanced_cover,
    choquet_integral,
    concave_integral,
    psa_integral,
    psp_integral,
)
from .jsonio import FormatError
from .sets import _clip, check_size


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _decimal(x: Fraction, places: int) -> str:
    """``x`` to ``places`` digits after the point, rounded half to even."""
    scaled = round(x * 10**places)
    whole, digits = divmod(abs(scaled), 10**places)
    text = ("-" if scaled < 0 else "") + jsonio.frac_to_str(whole)
    return f"{text}.{jsonio.frac_to_str(digits).zfill(places)}" if places else text


def _maybe_decimal(results: dict, key: str, x: Fraction, places: int | None) -> None:
    results[key] = _obj(x)
    if places is not None:
        results[key + "_decimal"] = _decimal(x, places)


def _obj(x):
    """``x`` as printed: a rational as its ``p/q`` text, a tuple as a list,
    a decomposition as its ``[weight, target]`` terms and a function as
    its values."""
    if isinstance(x, (Fraction, int)):
        return jsonio.frac_to_str(x)
    if isinstance(x, tuple):
        return [_obj(item) for item in x]
    if isinstance(x, (Decomposition, FunctionDecomposition)):
        return [[_obj(w), _obj(target)] for w, target in x.terms]
    return _obj(x.values)  # a SimpleFunction


def _sequence_from_json(obj, capacity) -> FunctionSequence:
    if not isinstance(obj, dict):
        raise FormatError("a sequence must be a JSON object")
    kind = obj.get("kind")
    space = capacity.space

    def function(raw) -> SimpleFunction:
        return SimpleFunction(space, jsonio.rationals(raw, "a sequence function"))

    def integer(key: str, default=None) -> int:
        return jsonio.int_from_json(obj.get(key, default), f"{kind} {key!r}")

    if kind == "ramp":
        target = function(obj.get("target", []))
        steps = check_size(integer("steps", 3), "ramp 'steps'", 1, MAX_DEPTH)
        terms = tuple(
            target.scale(Fraction(s, steps)) for s in range(1, steps + 1)
        )
        return FunctionSequence(terms, target)
    if kind == "null-counterexample":
        return counterexample_null_additivity(capacity, integer("E"), integer("F"))
    if kind == "custom":
        rows = obj.get("terms", [])
        if not isinstance(rows, list):
            raise FormatError(f"custom needs a list of 'terms', got {_clip(rows)}")
        terms = tuple(function(row) for row in rows)
        return FunctionSequence(terms, function(obj.get("limit", [])))
    raise FormatError(f"unknown sequence kind {kind!r}")


# The reader of each input file, by flag name.
_LOADERS = {
    "function": jsonio.function_from_obj,
    "capacity": jsonio.capacity_from_obj,
    "measure": jsonio.measure_from_obj,
    "partition": jsonio.partition_from_obj,
    "family": jsonio.family_from_obj,
}

# Each ``which`` of ``integrate`` and ``check``: its library call and the
# input files it takes, in call order.
_INTEGRALS = {
    "choquet": (choquet_integral, ("function", "capacity")),
    "cav": (concave_integral, ("function", "capacity")),
    "psa": (psa_integral, ("function", "measure", "partition")),
    "psp": (psp_integral, ("function", "measure", "family")),
}
_CHECKS = {
    "monotone": (check_monotone, ("capacity",)),
    "convex": (check_convex, ("capacity",)),
    "null-additive": (check_null_additive, ("capacity",)),
    "p-null-additive": (check_P_null_additive, ("capacity", "measure")),
    "dense": (check_dense, ("partition", "measure")),
    "weak-ae-equivalence": (check_weak_ae_equivalence, ("measure", "partition")),
}


def _current(f):
    """``f`` as its module binds it now.

    The tables above hold the functions bound at import; a wrapper set on
    the module later (a tracer's or a profiler's) is called only through
    this lookup, as it is for a call by name.
    """
    return getattr(sys.modules[f.__module__], f.__name__)


def _read(args, name: str):
    """The JSON document of the file ``--name`` names: the one place an
    input file is read, and its digest recorded in ``args.inputs`` as it
    was read, before the command writes anything."""
    path = getattr(args, name)
    obj = jsonio.load(path)
    args.inputs[path] = _digest(path)
    return obj


def _load_inputs(args, names: tuple[str, ...]) -> list:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise FormatError(
            f"{args.command} {args.which}: missing {', '.join(missing)}"
        )
    return [_current(_LOADERS[n])(_read(args, n)) for n in names]


def _cmd_integrate(args, results: dict) -> bool:
    compute, names = _INTEGRALS[args.which]
    res = _current(compute)(*_load_inputs(args, names))
    _maybe_decimal(results, "value", res.value, args.decimal)
    results["witness"] = _obj(res.witness)
    if res.dual_witness is not None:
        results["dual_witness"] = _obj(res.dual_witness)
    return True


def _cmd_check(args, results: dict) -> bool:
    checker, names = _CHECKS[args.which]
    checker = _current(checker)
    try:
        inputs = _load_inputs(args, names)
    except CapacityError as exc:
        # loading runs the monotonicity scan: a covering-pair witness
        # is that check's verdict, any other failure is bad input
        if args.which != "monotone" or len(exc.witness) != 2:
            raise
        report = PropertyReport(False, exc.witness)
    else:
        if args.which == "weak-ae-equivalence":
            full = checker(*inputs, seed=args.seed)
            results["conditions"] = full.verdicts()
            results["agree"] = full.agree
            results["strictly_positive"] = full.strictly_positive
            for name, holds in results["conditions"].items():
                if not holds:
                    witness = getattr(full, name).witness
                    results[f"{name}_witness"] = _obj(witness or ())
            return full.agree
        report = checker(*inputs)
    results["holds"] = report.holds
    results["witness"] = _obj(report.witness or ())
    return report.holds


def _cmd_cover(args, results: dict) -> bool:
    v = jsonio.capacity_from_obj(_read(args, "capacity"))
    cover = balanced_cover(v)
    equal = cover.values == v.values
    results["equals_original"] = equal
    results["cover"] = jsonio.capacity_to_obj(cover)
    _maybe_decimal(results, "total", cover.values[-1], args.decimal)
    if args.out:
        if not all(map(jsonio.readable, cover.values)):
            raise FormatError(
                f"the cover has an integer of more than {jsonio.MAX_DIGITS} digits, "
                f"the most a capacity file may hold; {args.out} not written"
            )
        jsonio.dump(results["cover"], args.out)
        results["written"] = args.out
    return True


def _trace_obj(trace: tuple, length: int) -> dict:
    """A trace of ``length`` entries, or past 100 only its first and last
    ten; ``trace`` holds all of them or just those it prints."""
    if length <= 100:
        return {"trace": _obj(trace)}
    return {
        "trace_head": _obj(trace[:10]),
        "trace_tail": _obj(trace[-10:]),
        "trace_length": length,
    }


# Largest --m and --depth accepted, so that every preset ends in bounded
# time and memory: dyadic --m builds 2**m states, a model preset's --depth
# only the trace entries it prints (at most 100, read from the layout),
# and a ramp sequence's 'steps' builds that many terms.
# --decimal K renders K digits per value.
MAX_M = 16
MAX_DEPTH = 100_000
MAX_DECIMAL = 1000

_MODELS = {
    "pair-blocks": countable.pairs_model,
    "trivial-field": countable.trivial_model,
}


def _cmd_converge(args, results: dict) -> bool:
    check_size(args.depth, "--depth", 1, MAX_DEPTH)
    check_size(args.m, "--m", 0, MAX_M)
    if args.preset in _MODELS:
        # entry m integrates the indicator of the first 2m states; only the
        # entries _trace_obj prints are read, the verdict at m = depth
        evens = range(2, 2 * args.depth + 1, 2)
        shown = evens if args.depth <= 100 else [*evens[:10], *evens[-10:]]
        report = countable._prefix_report(_MODELS[args.preset](), shown)
        results.update(_trace_obj(report.integral_trace, args.depth))
        _maybe_decimal(results, "limit_integral", report.limit_integral, args.decimal)
        results["convergent"] = report.converges
        results["basis"] = report.basis
        if report.divergence_bound is not None:
            results["divergence_bound"] = _obj(report.divergence_bound)
        return report.converges
    if args.preset == "dyadic":
        rng = random.Random(f"{args.seed}|dyadic")
        size = 1 << args.m
        f = countable.random_eventually_constant_function(rng, size)
        f = countable.EventuallyConstantFunction(size, f.values, Fraction(0))
        run = countable.increasing_information_run(
            countable.dyadic_partitions(args.m),
            countable.uniform_finite_measure(size),
            f,
        )
        results.update(_trace_obj(run.integral_trace, len(run.integral_trace)))
        _maybe_decimal(results, "target", run.target, args.decimal)
        results["stabilized_at"] = run.stabilized_at
        results["convergent"] = run.converges
        results["increases_continuously"] = run.continuity.holds
        return run.converges

    if not args.capacity or not args.sequence:
        raise FormatError("need --preset, or --capacity with --sequence")
    v = jsonio.capacity_from_obj(_read(args, "capacity"))
    seq = _sequence_from_json(_read(args, "sequence"), v)
    integral = _current(_INTEGRALS[args.integral][0])
    exp = monotone_convergence_experiment(seq, v, integral)
    results["modes"] = {
        "pointwise": converges_pointwise(seq).holds,
        "weak_v_ae": converges_weak_ae(seq, v).holds,
        "strong_v_ae": converges_strong_ae(seq, v).holds,
    }
    results.update(_trace_obj(exp.integral_trace, len(exp.integral_trace)))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one parser per process: parse_args fills a fresh namespace each call
    # and no action mutates a default.  The global flags are accepted both
    # before and after the subcommand; the subcommand copy uses SUPPRESS
    # defaults (and its own action objects) so it never clobbers a value
    # parsed up front
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

    for command, table, about in (
        ("integrate", _INTEGRALS, "compute an integral"),
        ("check", _CHECKS, "check a structural property"),
    ):
        p_cmd = sub.add_parser(command, help=about, parents=[common])
        p_cmd.add_argument("which", choices=tuple(table))
        # one flag per input file any ``which`` reads, in first-use order;
        # every integral reads --function
        for name in dict.fromkeys(n for _, names in table.values() for n in names):
            p_cmd.add_argument(f"--{name}", required=name == "function")

    p_cov = sub.add_parser(
        "cover", help="totally balanced cover of a capacity", parents=[common]
    )
    p_cov.add_argument("--capacity", required=True)
    p_cov.add_argument("--out")

    p_con = sub.add_parser(
        "converge", help="monotone-convergence experiments", parents=[common]
    )
    p_con.add_argument("--preset", choices=(*_MODELS, "dyadic"))
    p_con.add_argument("--depth", type=int, default=50)
    p_con.add_argument("--m", type=int, default=4, help="dyadic window exponent")
    p_con.add_argument("--capacity")
    p_con.add_argument("--sequence")
    p_con.add_argument("--integral", choices=("choquet", "cav"), default="choquet")

    p_gen = sub.add_parser(
        "gen", help="write a seeded random capacity", parents=[common]
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--profile", choices=PROFILES, default="general")
    p_gen.add_argument("--out", required=True)

    return parser


_HANDLERS = {
    "integrate": _cmd_integrate,
    "check": _cmd_check,
    "cover": _cmd_cover,
    "converge": _cmd_converge,
    "gen": _cmd_gen,
}

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.inputs = {}  # path: digest of each input file, as _read read it
    started = time.perf_counter()
    results: dict = {}
    try:
        if args.decimal is not None:
            check_size(args.decimal, "--decimal", 0, MAX_DECIMAL)
        verdict = _HANDLERS[args.command](args, results)
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a broken internal invariant (pivot limit, strong duality, basis),
        # not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": [args.command] + ([args.which] if hasattr(args, "which") else []),
        "inputs": args.inputs,
        "results": results,
        "elapsed_s": round(time.perf_counter() - started, 6),
    }
    try:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the exit flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the report was written", file=sys.stderr)
        return 2
    if args.assert_verdict and not verdict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
