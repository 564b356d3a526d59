"""Canonical JSON encodings of the finite model objects: capacities,
measures, functions, function families and partitions.

Rationals are ``"p/q"`` strings (integers and decimals allowed, exponents
not), subsets are the decimal strings of their masks, and capacity tables
must list all ``2**n`` keys.  Round-trips are exact: whatever this module
writes it reads back to an equal object.
"""

from __future__ import annotations

import json
import re
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
    """An exact rational from a ``"p/q"``, integer or decimal spelling.

    An exponent marker (``"1e3"``) is refused: ``Fraction`` expands the
    exponent in full, in time and memory that grow with its value.
    """
    try:
        text = str(s)
        if "e" in text or "E" in text:
            raise ValueError("exponent")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {s!r}") from exc


_DECIMAL = re.compile(r"-?[0-9]+")


def int_from_json(raw: Any, what: str) -> int:
    """A JSON integer (not a bool) or a decimal-integer string.

    Anything else, ``2.7`` or ``true`` included, is a :class:`FormatError`
    rather than a number truncated to some other model.
    """
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
        return int(raw)
    raise FormatError(f"bad {what}: need an integer, got {raw!r}")


def _space(obj: dict) -> StateSpace:
    if not isinstance(obj, dict) or "n" not in obj:
        raise FormatError("missing 'n'")
    return StateSpace(int_from_json(obj["n"], "'n'"))


def capacity_to_obj(v: Capacity) -> dict:
    return {
        "n": v.space.n,
        "values": {str(m): frac_to_str(x) for m, x in enumerate(v.values)},
    }


def _key_error(key: Any) -> FormatError:
    try:
        canonical = str(int(key)) == key
    except (TypeError, ValueError):
        canonical = False
    if canonical:
        return FormatError(f"subset key {key!r} out of range")
    return FormatError(f"bad subset key {key!r}")


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
    # only the spelling capacity_to_obj writes: distinct keys then name
    # distinct masks, so 2**n keys found here cover every subset once
    subsets = range(space.num_subsets)
    masks = dict(zip(map(str, subsets), subsets))
    # files repeat a few hundred value strings over thousands of subsets:
    # parse each once, so equal entries share one Fraction
    parsed: dict[str, Fraction] = {}
    for key, val in raw.items():
        mask = masks.get(key)
        if mask is None:
            raise _key_error(key)
        if type(val) is not str:
            values[mask] = frac_from_str(val)
        elif val in parsed:
            values[mask] = parsed[val]
        else:
            values[mask] = parsed[val] = frac_from_str(val)
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
        what = f"state index in block {block!r}"
        groups.append([int_from_json(k, what) for k in block])
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
    except RecursionError as exc:
        raise FormatError(f"malformed JSON in {path}: nested too deeply") from exc


def dump(obj: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
