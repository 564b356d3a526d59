"""Spans around the public functions of each ``nonadd`` module.

The traced run wraps the functions listed in ``TARGETS`` from outside the
package: every module attribute bound to the original function (including
``from .x import y`` copies such as ``integrals.solve_max`` or
``cli.check_convex``) is replaced by one wrapper, and methods are patched
on their class.  A span holds a name, start, end and parent index; spans
are kept in memory and turned into per-layer numbers after each pass.
A layer's self time is its spans' durations minus the parts covered by
their child spans.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
from time import perf_counter

LAYERS = (
    "sets",
    "capacity",
    "simplex",
    "integrals",
    "induced",
    "convergence",
    "countable",
    "jsonio",
    "cli",
)

TARGETS = {
    "sets": ("generated_algebra", "Partition.from_blocks", "AlgebraView.max_member_below"),
    "capacity": (
        "Capacity.__post_init__",
        "ProbabilityMeasure.__post_init__",
        "check_monotone",
        "check_convex",
        "check_null_additive",
        "check_P_null_additive",
        "check_dense",
        "maximal_null_sets",
    ),
    "simplex": ("solve_max",),
    "integrals": (
        "choquet_integral",
        "concave_integral",
        "psa_integral",
        "psp_integral",
        "balanced_cover",
        "induced_psp_capacity",
        "chain_restricted_value",
        "verify_dual_certificate",
        "brute_force_cav_oracle",
    ),
    "induced": ("induce", "argmax_witness", "check_continuity_from_above", "check_weak_ae_equivalence"),
    "convergence": (
        "converges_pointwise",
        "converges_weak_ae",
        "converges_strong_ae",
        "converges_P_ae",
        "monotone_convergence_experiment",
        "counterexample_null_additivity",
        "convexity_gap_witness",
        "generate_sequences",
        "random_capacity",
        "random_probability",
        "random_partition",
        "random_simple_function",
    ),
    "countable": (
        "countable_lebesgue",
        "countable_psa_integral",
        "countable_induced_value",
        "continuity_from_below_countable",
        "monotone_convergence_countable",
        "check_increases_continuously",
        "increasing_information_run",
        "pairs_partial_sum_trace",
        "dyadic_partitions",
        "random_eventually_constant_function",
    ),
    "jsonio": (
        "load",
        "dump",
        "capacity_from_obj",
        "capacity_to_obj",
        "measure_from_obj",
        "measure_to_obj",
        "function_from_obj",
        "function_to_obj",
        "partition_from_obj",
        "partition_to_obj",
        "family_from_obj",
    ),
    "cli": ("main",),
}

# Spans whose arguments or results feed a per-layer count keep them.
_KEEP_ARGS = {
    "solve_max",
    "Capacity.__post_init__",
    "load",
    "dump",
    "countable_lebesgue",
    "countable_psa_integral",
    "countable_induced_value",
    "continuity_from_below_countable",
    "monotone_convergence_countable",
    "check_increases_continuously",
    "increasing_information_run",
    "pairs_partial_sum_trace",
}

# Per-layer metrics of the traced run: (name, unit).
METRICS = [(f"{layer}.{q}", u) for layer in LAYERS for q, u in (("calls", "count"), ("self_s", "s"))] + [
    ("simplex.pivots", "count"),
    ("simplex.columns", "count"),
    ("simplex.ms_per_pivot", "ms"),
    ("simplex.useful_col_ratio", "ratio"),
    ("simplex.max_bits", "bits"),
    ("capacity.validate_s", "s"),
    ("capacity.check_s", "s"),
    ("capacity.entries", "count"),
    ("capacity.ns_per_entry", "ns"),
    ("integrals.cover_solves", "count"),
    ("countable.states", "count"),
    ("countable.us_per_state", "us"),
    ("jsonio.bytes", "bytes"),
    ("jsonio.mb_per_s", "MB/s"),
    ("trace.overhead", "ratio"),
]

# Counts that must repeat exactly from pass to pass (and run to run).
EXACT = [name for name, unit in METRICS if unit in ("count", "bits", "bytes")]


class Tracer:
    """Installs and removes the span wrappers; owns the recorded spans."""

    def __init__(self, package) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._plan = self._resolve(package)

    def _resolve(self, package):
        modules = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
        plan = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            for target in TARGETS[layer]:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    self.missing.append(f"{layer}.{target}")
                    continue
                wrapper = self._wrap(orig, layer, target)
                if owner_name:
                    sites = [(owner, attr)]
                else:
                    sites = [(m, name) for m in modules for name, val in vars(m).items() if val is orig]
                plan.append((sites, orig, wrapper))
        return plan

    def _wrap(self, orig, layer: str, label: str):
        spans, stack = self.spans, self._stack
        keep = label in _KEEP_ARGS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            spans[idx] = (layer, label, t0, t1, parent, (orig, args, kwargs, result) if keep else None)
            return result

        traced.__wrapped__ = orig
        return traced

    def install(self) -> None:
        self.spans.clear()
        for sites, orig, wrapper in self._plan:
            for owner, name in sites:
                setattr(owner, name, wrapper)
                self._patches.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()


def _bound(orig, args, kwargs):
    bound = inspect.signature(orig).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _states(label: str, arguments) -> int:
    """States a countable call was asked to cover: its horizons and windows."""
    if label in ("countable_lebesgue", "countable_psa_integral"):
        return arguments["f"].horizon
    if label == "countable_induced_value":
        return arguments["event"].horizon
    if label == "increasing_information_run":
        return arguments["f"].horizon + arguments["window"]
    if label == "check_increases_continuously":
        return arguments["window"]
    return arguments["depth"]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def pass_metrics(spans: list, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass; times are multiplied by ``scale``."""
    covered = [0.0] * len(spans)
    for layer, label, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out = {name: 0 for name, _ in METRICS}
    pivots = columns = nonzero = max_bits = entries = states = nbytes = 0
    validate = check = 0.0
    for i, (layer, label, t0, t1, parent, kept) in enumerate(spans):
        self_s = (t1 - t0 - covered[i]) * scale
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
        if layer == "capacity":
            if label == "Capacity.__post_init__":
                validate += self_s
                entries += len(kept[1][0].values)
            elif label != "ProbabilityMeasure.__post_init__":
                check += self_s
        elif label == "solve_max":
            orig, args, kwargs, sol = kept
            columns += len(_bound(orig, args, kwargs)["objective"])
            pivots += sol.pivots
            nonzero += sum(1 for x in sol.x if x)
            max_bits = max([max_bits] + [_bits(x) for x in sol.x + sol.duals])
        elif label == "concave_integral" and parent >= 0 and spans[parent][1] == "balanced_cover":
            out["integrals.cover_solves"] += 1
        elif layer == "countable" and kept is not None and (parent < 0 or spans[parent][0] != "countable"):
            states += _states(label, _bound(*kept[:3]))
        elif label in ("load", "dump"):
            nbytes += os.path.getsize(_bound(*kept[:3])["path"])
    out.update(
        {
            "simplex.pivots": pivots,
            "simplex.columns": columns,
            "simplex.ms_per_pivot": 1e3 * out["simplex.self_s"] / pivots if pivots else 0.0,
            "simplex.useful_col_ratio": nonzero / columns if columns else 0.0,
            "simplex.max_bits": max_bits,
            "capacity.validate_s": validate,
            "capacity.check_s": check,
            "capacity.entries": entries,
            "capacity.ns_per_entry": 1e9 * validate / entries if entries else 0.0,
            "countable.states": states,
            "countable.us_per_state": 1e6 * out["countable.self_s"] / states if states else 0.0,
            "jsonio.bytes": nbytes,
            "jsonio.mb_per_s": nbytes / 1e6 / out["jsonio.self_s"] if out["jsonio.self_s"] else 0.0,
        }
    )
    return out


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes, plus the exact counts that did not repeat."""
    merged = {name: statistics.median(p[name] for p in passes) for name, _ in METRICS}
    merged.update((name, passes[0][name]) for name in EXACT)
    drift = [name for name in EXACT if len({p[name] for p in passes}) != 1]
    return merged, drift


def layer_share_problems(workload: str, m: dict[str, float]) -> list[str]:
    """What each workload was chosen to exercise; a drifted workload fails here."""
    problems = []
    top = max(LAYERS, key=lambda layer: m[f"{layer}.self_s"])
    if workload in ("tables-large", "countable") and m["simplex.calls"]:
        problems.append(f"{workload} made {m['simplex.calls']} solve_max calls, expected 0")
    if workload != "countable" and m["countable.calls"]:
        problems.append(f"{workload} made {m['countable.calls']} countable calls, expected 0")
    expected_top = {"lp-large": "simplex", "tables-large": "capacity", "countable": "countable"}.get(workload)
    if expected_top and top != expected_top:
        problems.append(f"largest self time in {workload} is {top}, expected {expected_top}")
    return problems
