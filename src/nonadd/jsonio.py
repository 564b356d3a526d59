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
from functools import lru_cache
from pathlib import Path
from typing import Any

from .capacity import Capacity, ProbabilityMeasure
from .integrals import SimpleFunction
# the one text rule for a rational lives in sets, beside the library's
# reader of values; it is named here too, for the file formats
from .sets import MAX_DIGITS, FormatError, Partition, StateSpace, _clip, frac_from_str

_TOO_LONG = 10**MAX_DIGITS


def readable(x: Fraction) -> bool:
    """Does :func:`frac_from_str` read ``frac_to_str(x)`` back?"""
    return abs(x.numerator) < _TOO_LONG and x.denominator < _TOO_LONG


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


_DECIMAL = re.compile(r"-?[0-9]+")


def int_from_json(raw: Any, what: str) -> int:
    """A JSON integer (not a bool) or a decimal-integer string.

    Anything else, ``2.7`` or ``true`` included, is a :class:`FormatError`
    rather than a number truncated to some other model.
    """
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
        return _int_text(raw, f"bad {what}")
    raise FormatError(f"bad {what}: need an integer, got {_clip(raw)}")


def _int_text(raw: str, where: str) -> int:
    """The int that the decimal text ``raw`` spells, if it has at most
    ``MAX_DIGITS`` digits; else a :class:`FormatError` that begins with
    ``where``: a JSON string's rule and a JSON integer literal's."""
    if len(raw.lstrip("-")) > MAX_DIGITS:
        raise FormatError(f"{where}: {_clip(raw)} has more than {MAX_DIGITS} digits")
    return int(raw)


def rationals(raw: Any, what: str) -> tuple[Fraction, ...]:
    """A JSON list of rationals, each read by :func:`frac_from_str`."""
    if not isinstance(raw, list):
        raise FormatError(f"{what} must be a list of rationals, got {_clip(raw)}")
    return tuple(map(frac_from_str, raw))


def _space(obj: dict) -> StateSpace:
    if not isinstance(obj, dict) or "n" not in obj:
        raise FormatError("missing 'n'")
    return StateSpace(int_from_json(obj["n"], "'n'"))


@lru_cache(maxsize=4)
def _subset_keys(n: int) -> tuple[str, ...]:
    """The ``2**n`` subset keys ``"0"``, ``"1"``, ... of a capacity table.

    Kept per ``n``: a string caches its hash, so the same key objects make
    every later file's lookups and dict builds skip rehashing.
    """
    return tuple(map(str, range(1 << n)))


def capacity_to_obj(v: Capacity) -> dict:
    return {"n": v.space.n, "values": dict(zip(_subset_keys(v.space.n), map(frac_to_str, v.values)))}


def _key_error(key: Any) -> FormatError:
    try:
        canonical = str(int(key)) == key
    except (TypeError, ValueError):
        canonical = False
    if canonical:
        return FormatError(f"subset key {_clip(key)} out of range")
    return FormatError(f"bad subset key {_clip(key)}")


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
    # only the spelling capacity_to_obj writes: distinct keys then name
    # distinct masks, so 2**n keys found here cover every subset once
    keys = _subset_keys(space.n)
    codes = list(map(raw.get, keys))
    # Capacity scans the types again, to pick its path for any table; this
    # scan refuses a JSON number or null, which exact_values would read or
    # refuse in other words
    if set(map(type, codes)) == {str}:
        try:
            return Capacity(space, tuple(codes))  # reads each distinct string once
        except FormatError:
            pass
    # a key is missing or a value is not a rational: name the fault the
    # file lists first, an entry's key before its value
    known = set(keys)
    for key, val in raw.items():
        if key not in known:
            raise _key_error(key)
        frac_from_str(val)
    raise AssertionError("a capacity table refused with no fault found")


def measure_to_obj(P: ProbabilityMeasure) -> dict:
    return {"n": P.space.n, "weights": [frac_to_str(w) for w in P.weights]}


def measure_from_obj(obj: dict) -> ProbabilityMeasure:
    space = _space(obj)
    return ProbabilityMeasure(space, rationals(obj.get("weights"), "'weights'"))


def function_to_obj(f: SimpleFunction) -> dict:
    return {"n": f.space.n, "values": [frac_to_str(x) for x in f.values]}


def function_from_obj(obj: dict) -> SimpleFunction:
    space = _space(obj)
    return SimpleFunction(space, rationals(obj.get("values"), "'values'"))


def family_from_obj(obj: dict) -> list[SimpleFunction]:
    space = _space(obj)
    raw = obj.get("functions")
    if not isinstance(raw, list) or not raw:
        raise FormatError("family needs a nonempty 'functions' list")
    return [SimpleFunction(space, rationals(row, "a family member")) for row in raw]


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
        what = f"state index in block {_clip(block)}"
        groups.append([int_from_json(k, what) for k in block])
    return Partition.from_blocks(space, groups)


def load(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    where = f"bad integer in {path}"
    try:
        return json.loads(text, parse_int=lambda raw: _int_text(raw, where))
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"malformed JSON in {path}: nested too deeply") from exc


def dump(obj: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
