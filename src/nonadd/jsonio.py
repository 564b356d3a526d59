"""Canonical JSON encodings of the finite model objects: capacities,
measures, functions, function families and partitions.

Rationals are JSON strings spelled ``"p/q"``, ``"p"`` or ``"p.d"``,
subsets are the decimal strings of their masks, and capacity tables
must list all ``2**n`` keys.  Round-trips are exact: whatever this module
writes it reads back to an equal object, as long as no integer in it passes
the ``MAX_DIGITS`` digits that reading accepts (:func:`readable`).
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any

from .capacity import Capacity, ProbabilityMeasure
from .integrals import SimpleFunction
from .sets import Partition, StateSpace


class FormatError(ValueError):
    """The JSON document does not match the expected schema."""


# Most digits in one integer of a rational read from a file: it bounds a
# hostile file's parse time, and is Python's default int-from-text cap.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


def readable(x: Fraction) -> bool:
    """Does :func:`frac_from_str` read ``frac_to_str(x)`` back?"""
    return abs(x.numerator) < _TOO_LONG and x.denominator < _TOO_LONG


def _clip(raw: Any) -> str:
    """``repr(raw)``, cut to 60 characters for an error message."""
    text = repr(raw)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


def frac_to_str(x: Fraction | int) -> str:
    """``x`` as ``"p/q"``, or ``"p"`` when whole, with any number of digits.

    ``str`` stops at Python's int-to-text digit cap (4,300 digits by
    default); past it each part is rendered through ``Decimal``, which has
    no such cap, and the process-wide setting is left alone.
    """
    try:
        return str(x)
    except ValueError:
        x = Fraction(x)
        text = str(Decimal(x.numerator))
        return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


def frac_from_str(s: Any) -> Fraction:
    """An exact rational from a JSON string ``"p/q"``, ``"p"`` or ``"p.d"``.

    ASCII digits and a leading ``-`` only: a JSON number arrives rounded
    through a float, an exponent would be expanded in full, and the other
    spellings ``Fraction`` takes (``"+2"``, ``" 3 "``, ``"1_000"``) are not
    in the file formats.  Each integer has at most ``MAX_DIGITS`` digits.
    """
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise FormatError(f"not a rational: {_clip(s)}")
    if len(s) > MAX_DIGITS and max(map(len, re.split("[-/.]", s))) > MAX_DIGITS:
        raise FormatError(
            f"rational {_clip(s)} has an integer of more than {MAX_DIGITS} digits"
        )
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {_clip(s)}") from exc


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
            # refused here, ahead of the cache a list value cannot key
            raise FormatError(f"not a rational: {val!r}")
        if val in parsed:
            values[mask] = parsed[val]
        else:
            values[mask] = parsed[val] = frac_from_str(val)
    return Capacity(space, tuple(values))


def measure_to_obj(P: ProbabilityMeasure) -> dict:
    return {"n": P.space.n, "weights": [frac_to_str(w) for w in P.weights]}


def measure_from_obj(obj: dict) -> ProbabilityMeasure:
    space = _space(obj)
    raw = obj.get("weights")
    if not isinstance(raw, list):
        raise FormatError("measure needs a 'weights' list")
    return ProbabilityMeasure(space, tuple(frac_from_str(w) for w in raw))


def function_to_obj(f: SimpleFunction) -> dict:
    return {"n": f.space.n, "values": [frac_to_str(x) for x in f.values]}


def function_from_obj(obj: dict) -> SimpleFunction:
    space = _space(obj)
    raw = obj.get("values")
    if not isinstance(raw, list):
        raise FormatError("function needs a 'values' list")
    return SimpleFunction(space, tuple(frac_from_str(x) for x in raw))


def family_from_obj(obj: dict) -> list[SimpleFunction]:
    space = _space(obj)
    raw = obj.get("functions")
    if not isinstance(raw, list) or not raw:
        raise FormatError("family needs a nonempty 'functions' list")
    out = []
    for row in raw:
        if not isinstance(row, list):
            raise FormatError("each family member must be a list of values")
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
