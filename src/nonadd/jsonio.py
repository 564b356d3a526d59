"""Canonical JSON encodings of the finite model objects: capacities,
measures, functions, function families and partitions.

Rationals are ``"p/q"`` strings (plain integers allowed), subsets are the
decimal strings of their masks, and capacity tables must list all ``2**n``
keys.  Round-trips are exact: whatever this module writes it reads back
to an equal object.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .capacity import Capacity, ProbabilityMeasure
from .integrals import SimpleFunction
from .sets import Partition, StateSpace


class FormatError(ValueError):
    """The JSON document does not match the expected schema."""


def frac_to_str(x: Fraction) -> str:
    return str(x)


def frac_from_str(s: Any) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {s!r}") from exc


def _space(obj: dict) -> StateSpace:
    try:
        n = int(obj["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("missing or bad 'n'") from exc
    return StateSpace(n)


def capacity_to_obj(v: Capacity) -> dict:
    return {
        "n": v.space.n,
        "values": {str(m): frac_to_str(x) for m, x in enumerate(v.values)},
    }


def capacity_from_obj(obj: dict) -> Capacity:
    space = _space(obj)
    raw = obj.get("values")
    if not isinstance(raw, dict):
        raise FormatError("capacity needs a 'values' table")
    if len(raw) != space.num_subsets:
        raise FormatError(
            f"capacity table must list all {space.num_subsets} subsets, "
            f"got {len(raw)}"
        )
    values = [Fraction(0)] * space.num_subsets
    seen = set()
    for key, val in raw.items():
        try:
            mask = int(key)
        except ValueError as exc:
            raise FormatError(f"bad subset key {key!r}") from exc
        if not 0 <= mask < space.num_subsets:
            raise FormatError(f"subset key {key!r} out of range")
        if mask in seen:
            raise FormatError(f"subset {mask} listed twice")
        seen.add(mask)
        values[mask] = frac_from_str(val)
    if len(seen) != space.num_subsets:
        raise FormatError("capacity table must cover every subset exactly once")
    return Capacity(space, tuple(values))


def measure_to_obj(P: ProbabilityMeasure) -> dict:
    return {"n": P.space.n, "weights": [frac_to_str(w) for w in P.weights]}


def measure_from_obj(obj: dict) -> ProbabilityMeasure:
    space = _space(obj)
    raw = obj.get("weights")
    if not isinstance(raw, list) or len(raw) != space.n:
        raise FormatError("measure needs one weight per state")
    return ProbabilityMeasure(space, tuple(frac_from_str(w) for w in raw))


def function_to_obj(f: SimpleFunction) -> dict:
    return {"n": f.space.n, "values": [frac_to_str(x) for x in f.values]}


def function_from_obj(obj: dict) -> SimpleFunction:
    space = _space(obj)
    raw = obj.get("values")
    if not isinstance(raw, list) or len(raw) != space.n:
        raise FormatError("function needs one value per state")
    return SimpleFunction(space, tuple(frac_from_str(x) for x in raw))


def family_from_obj(obj: dict) -> list[SimpleFunction]:
    space = _space(obj)
    raw = obj.get("functions")
    if not isinstance(raw, list) or not raw:
        raise FormatError("family needs a nonempty 'functions' list")
    out = []
    for row in raw:
        if not isinstance(row, list) or len(row) != space.n:
            raise FormatError("each family member needs one value per state")
        out.append(SimpleFunction(space, tuple(frac_from_str(x) for x in row)))
    return out


def partition_to_obj(p: Partition) -> dict:
    return {
        "n": p.space.n,
        "blocks": [[str(k) for k in block] for block in p.blocks],
    }


def partition_from_obj(obj: dict) -> Partition:
    space = _space(obj)
    raw = obj.get("blocks")
    if not isinstance(raw, list) or not raw:
        raise FormatError("partition needs a nonempty 'blocks' list")
    groups = []
    for block in raw:
        if not isinstance(block, list):
            raise FormatError("each block must be a list of state indices")
        try:
            groups.append([int(k) for k in block])
        except ValueError as exc:
            raise FormatError(f"bad state index in block {block!r}") from exc
    return Partition.from_blocks(space, groups)


def load(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc


def dump(obj: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
