"""nonadd benchmark: one seeded workload, closed loop, one process, one thread.

    python3 bench/run.py --workload lp-large --seed 1 --seconds 20 --trace 0

Builds the workload's op list from ``--seed`` (the set-up, timed as
``setup_s``), then runs the list pass after pass for ``--seconds``.  The
first pass replays every output against its exact claims; later passes
must reproduce the first pass's outputs; the outputs of a golden op
list are checked against their digest in ``baseline.json`` on every run,
and those of ``--seed`` too when its digest is recorded.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracing.METRICS`` with ``--trace 1``.
``--smoke`` runs the same code at tiny sizes.

Every time is reported at reference speed: the raw time multiplied by
``REF_NOMINAL_S`` over the median of the reference samples taken next to
it (see ``reference_sample``).  This host's speed drifts by up to half
between processes and within one; the ratio to the reference drifts far
less.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

# Every run also replays every GOLDEN_STRIDE-th op of the GOLDEN_SEED list
# and checks the digest recorded for it, whatever --seed is.
GOLDEN_SEED = 0
GOLDEN_STRIDE = 4
SETUP_REPEATS = 3
REF_EVERY_S = 0.02  # a reference sample before each 20 ms of op time
REF_WINDOW = 3  # chunks on each side whose samples scale a chunk
REF_NOMINAL_S = 1.0e-3  # one reference sample at reference speed


def reference_sample() -> float:
    """Seconds for a fixed stdlib-only ``Fraction`` loop (no nonadd code)."""
    t0 = perf_counter()
    x = Fraction(0)
    for i in range(1, 80):
        x += Fraction(i, i + 3) * Fraction(f"{i}/7")
        if x > 50:
            x -= 50
    return perf_counter() - t0


def _scale(samples: list[float]) -> float:
    return REF_NOMINAL_S / statistics.median(samples)


class Pass:
    """One closed-loop pass over an op list, with interleaved reference samples.

    Without ``expected`` (the first pass over a list) each output is
    replayed against its exact claims right after its timer stops; later
    passes compare each output with the first pass's.  ``texts`` holds the
    canonical outputs, ``None`` for an op that failed.
    """

    def __init__(self, nx, ops, expected: list[str | None] | None = None) -> None:
        self.latency: list[float] = []
        self.chunk: list[int] = []
        self.refs: list[float] = []
        self.texts: list[str | None] = []
        self.errors: list[str] = []
        since = REF_EVERY_S
        for i, op in enumerate(ops):
            if since >= REF_EVERY_S:
                self.refs.append(reference_sample())
                since = 0.0
            t0 = perf_counter()
            try:
                out, raised = op.run(), None
            except Exception as exc:  # counted as a failed op; the run goes on
                out, raised = None, exc
            dt = perf_counter() - t0
            since += dt
            self.latency.append(dt)
            self.chunk.append(len(self.refs) - 1)
            want = None if expected is None else expected[i]
            self.texts.append(self._verify(nx, op, out, raised, expected is None, want))
        self.refs.append(reference_sample())
        self.failed = self.texts.count(None)

    def _verify(self, nx, op, out, raised, first: bool, want: str | None) -> str | None:
        try:
            if raised is not None:
                raise raised
            if first:
                op.check(out)
            text = workloads.canonical_text(nx, op, out)
            if not first and text != want:
                raise workloads.ReplayError("output differs from the first pass")
            return text
        except Exception as exc:  # every failure is counted, none stops the run
            self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return None

    def scaled(self) -> list[float]:
        """Each op's latency at reference speed, from the samples around it."""
        factors = [
            _scale(self.refs[max(0, c - REF_WINDOW) : c + REF_WINDOW + 2])
            for c in range(len(self.refs))
        ]
        return [dt * factors[c] for dt, c in zip(self.latency, self.chunk)]

    def scale(self) -> float:
        return _scale(self.refs)


def digest(texts: list[str | None]) -> str:
    return hashlib.sha256("\n".join(t or "<failed>" for t in texts).encode()).hexdigest()


def fresh_import():
    """Import nonadd from this checkout's src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "nonadd" or n.startswith("nonadd.")]:
        del sys.modules[name]
    nx = importlib.import_module("nonadd")
    importlib.import_module("nonadd.cli")
    if SRC.resolve() not in Path(nx.__file__).resolve().parents:
        raise ImportError(f"nonadd imported from {nx.__file__}, not from {SRC}")
    return nx


def setup(workload: str, seed: int, tiny: bool, home: Path):
    """Import plus building and writing the inputs; returns the time at reference speed."""
    home.mkdir(parents=True, exist_ok=True)
    os.chdir(home)
    gc.collect()  # the previous set-up's garbage is not this one's cost
    refs = [reference_sample() for _ in range(3)]
    t0 = perf_counter()
    nx = fresh_import()
    ops = workloads.build(nx, workload, seed, tiny)
    dt = perf_counter() - t0
    refs += [reference_sample() for _ in range(3)]
    return nx, ops, dt * _scale(refs)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten ops beyond it (50 if none has)."""
    return max(50, math.floor(100 * (count - 10) / count)) if count > 10 else 50


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def recorded_digests(tiny: bool, workload: str) -> dict[str, str]:
    baseline = json.loads((BENCH / "baseline.json").read_text())
    return baseline["digests"]["tiny" if tiny else "full"].get(workload, {})


def run(args, work: Path) -> tuple[dict, dict]:
    tiny = args.smoke
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        nx = ops = None  # the previous set-up's objects are garbage before the next is timed
        nx, ops, dt = setup(args.workload, args.seed, tiny, work / "seed")
        setups.append(dt)

    # untimed; it also warms the code paths before timing starts
    (work / "golden").mkdir()
    os.chdir(work / "golden")
    golden = Pass(nx, workloads.build(nx, args.workload, GOLDEN_SEED, tiny)[::GOLDEN_STRIDE])
    os.chdir(work / "seed")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": tiny,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "ops_per_pass": len(ops),
    }
    passes, metrics = (trace_run if args.trace else timed_run)(nx, ops, args, info)
    counted = passes + [golden]
    attempted = sum(len(p.texts) for p in counted)
    failed = sum(p.failed for p in counted)
    errors = [e for p in counted for e in p.errors]

    recorded = recorded_digests(tiny, args.workload)
    info["digests"], info["digest_check"] = {}, {}
    for key, p in ((str(args.seed), passes[0]), ("golden", golden)):
        value, want = digest(p.texts), recorded.get(key)
        info["digests"][key] = value
        info["digest_check"][key] = "not recorded" if want is None else ("match" if want == value else "MISMATCH")
        if want is not None and want != value:
            failed += len(p.texts)
            errors.append(f"digest of {key} is {value}, recorded {want}")
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
        info["setup_samples_s"] = setups
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info["fail_ratio"] = failed / attempted
    info["errors"] = errors[:20]
    problems = info.get("problems", [])
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def _more(passes: list[Pass], t_end: float) -> bool:
    """Start another pass unless less than half a pass of time is left."""
    return perf_counter() + 0.5 * statistics.mean(sum(p.latency) for p in passes) < t_end


def timed_run(nx, ops, args, info):
    t_end = perf_counter() + args.seconds
    passes = [Pass(nx, ops)]
    while _more(passes, t_end):
        passes.append(Pass(nx, ops, passes[0].texts))
    per_op = sorted(statistics.median(col) for col in zip(*(p.scaled() for p in passes)))
    pct = tail_percentile(len(per_op))
    info.update(
        passes=len(passes),
        tail_percentile=pct,
        tail_ops=len(per_op),
        ref_sample_ms=1e3 * statistics.median(r for p in passes for r in p.refs),
        ref_nominal_ms=1e3 * REF_NOMINAL_S,
    )
    return passes, {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1e3 * nearest_rank(per_op, pct), "ms"),
    }


def trace_run(nx, ops, args, info):
    """Untraced and traced passes in turn; per-layer numbers from the traced ones."""
    tracer = tracing.Tracer(nx)
    t_end = perf_counter() + args.seconds
    passes = [Pass(nx, ops)]
    plain, traced, layers = [sum(passes[0].scaled())], [], []
    while len(traced) < 2 or _more(passes, t_end):
        tracer.install()
        try:
            p = Pass(nx, ops, passes[0].texts)
        finally:
            tracer.uninstall()
        traced.append(sum(p.scaled()))
        layers.append(tracing.pass_metrics(tracer.spans, p.scale()))
        q = Pass(nx, ops, passes[0].texts)
        plain.append(sum(q.scaled()))
        passes += [p, q]
    merged, drift = tracing.combine(layers)
    merged["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    # tiny sizes do not keep the shares the full workloads were chosen for
    problems = [] if args.smoke else tracing.layer_share_problems(args.workload, merged)
    problems += [f"exact count {name} differs between passes" for name in drift]
    info.update(passes=len(passes), traced_passes=len(traced), problems=problems, missing_targets=tracer.missing)
    return passes, {name: (merged[name], unit) for name, unit in tracing.METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    start_dir = os.getcwd()
    try:
        result, info = run(args, work)
    except ImportError as exc:
        print(f"error: cannot import nonadd from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(start_dir)
        shutil.rmtree(work, ignore_errors=True)

    for key, value in info.items():
        print(f"{key}: {value}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    smoke = "-smoke" if args.smoke else ""
    record = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}{smoke}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
