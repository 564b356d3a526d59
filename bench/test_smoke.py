"""Smoke test of the benchmark at tiny sizes, so it cannot rot between changes.

    python -m pytest -q bench/test_smoke.py

Each case runs ``bench/run.py`` from a checkout root, as its
own process, and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 1) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_the_spec(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    # the golden list's tiny outputs are recorded, so the digest gate is live
    (check,) = [line for line in lines if line.startswith("digest_check:")]
    assert "'golden': 'match'" in check and "MISMATCH" not in check


def test_changed_output_fails_the_digest_gate(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "nonadd", copy / "src" / "nonadd", ignore=shutil.ignore_patterns("__pycache__"))
    baseline = json.loads((copy / "bench" / "baseline.json").read_text())
    baseline["digests"]["tiny"]["countable"]["golden"] = "0" * 64
    (copy / "bench" / "baseline.json").write_text(json.dumps(baseline))
    proc = _run(copy, "countable", 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "lp-large", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
