"""Summarise benchmark run records (``.bench_out/*.json``) per workload.

    python3 bench/trajectory.py              # medians and quartile spreads
    python3 bench/trajectory.py --baseline   # also rewrite bench/baseline.json

Each ``bench/run.py`` run leaves one record.  The summary gives, per
workload and metric, the median over runs and the quartile spread
(``(q3 - q1) / median``, from ``statistics.quantiles(values, n=4)``).
``--baseline`` stores those numbers, the host and the output digests of
every seed as the trajectory point of the current commit.  Only runs
whose result was correct count; a seed whose runs disagree on a digest
stops the rewrite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RECORDS = BENCH.parent / ".bench_out"


def load_records() -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(RECORDS.glob("*.json"))]
    return [r for r in records if r["result"]["correct"]]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", action="store_true", help="rewrite bench/baseline.json")
    args = parser.parse_args(argv)

    records = load_records()
    tables: dict[str, dict[str, dict[str, list[float]]]] = {"end_to_end": {}, "per_layer": {}}
    digests: dict[str, dict[str, dict[str, str]]] = {"full": {}, "tiny": {}}
    units: dict[str, str] = {}
    for r in records:
        info = r["info"]
        size = "tiny" if info["smoke"] else "full"
        for seed, value in info["digests"].items():
            known = digests[size].setdefault(info["workload"], {}).setdefault(seed, value)
            if known != value:
                print(f"error: {info['workload']} seed {seed} has digests {known} and {value}", file=sys.stderr)
                return 1
        if info["smoke"]:
            continue
        kind = "per_layer" if info["trace"] else "end_to_end"
        for name, m in r["result"]["metrics"].items():
            tables[kind].setdefault(info["workload"], {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    out = {kind: {w: {n: summary(v) for n, v in ms.items()} for w, ms in t.items()} for kind, t in tables.items()}
    for kind, per_workload in out.items():
        for workload, metrics in sorted(per_workload.items()):
            print(f"== {kind} {workload}")
            for name, s in metrics.items():
                print(
                    f"  {name:26s} {s['median']:12.6g} {units[name]:6s} "
                    f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} runs {s['runs']}"
                )
    if args.baseline:
        host = next((r["info"] for r in records if not r["info"]["smoke"]), {})
        baseline = {
            "commit": host.get("commit"),
            "host": {k: host.get(k) for k in ("python", "cpu", "nproc")},
            "run_seconds": host.get("seconds"),
            "digests": digests,
            **out,
        }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
