"""Canonical JSON encodings: exact round-trips and schema rejection."""

import json
import math
import random
import re
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadd import (
    StateSpace,
    random_capacity,
    random_partition,
    random_probability,
    random_simple_function,
)
from nonadd import jsonio
from nonadd.capacity import SCALE_BITS, Capacity
from nonadd.jsonio import FormatError

from helpers import prime_capacity


def test_capacity_round_trip():
    for seed in range(10):
        v = random_capacity(4, seed, "general")
        again = jsonio.capacity_from_obj(jsonio.capacity_to_obj(v))
        assert again.values == v.values
        assert again.space.n == v.space.n


def test_capacity_requires_all_keys():
    v = random_capacity(2, 0, "general")
    obj = jsonio.capacity_to_obj(v)
    del obj["values"]["3"]
    with pytest.raises(FormatError):
        jsonio.capacity_from_obj(obj)


def test_capacity_rejects_aliased_duplicate_keys():
    # "00" and "0" collide as masks even though the JSON keys differ
    with pytest.raises(FormatError):
        jsonio.capacity_from_obj({"n": 1, "values": {"0": "0", "00": "0"}})


def test_capacity_rejects_bad_keys_and_values():
    with pytest.raises(FormatError):
        jsonio.capacity_from_obj({"n": 1, "values": {"0": "0", "x": "1"}})
    with pytest.raises(FormatError):
        jsonio.capacity_from_obj({"n": 1, "values": {"0": "0", "5": "1"}})
    with pytest.raises(FormatError):
        jsonio.capacity_from_obj({"n": 1, "values": {"0": "0", "1": "a/b"}})
    with pytest.raises(FormatError):
        jsonio.capacity_from_obj({"values": {"0": "0"}})
    # keys must be the decimal mask strings capacity_to_obj writes:
    # int() would read "1_0" as mask 10 and " +1" as mask 1
    for n, key, spelled in (
        (4, "10", "1_0"),
        (1, "1", " +1"),
        (2, "2", "+2"),
        (2, "0", "-0"),
        (3, "7", "007"),
    ):
        obj = jsonio.capacity_to_obj(random_capacity(n, 0, "general"))
        obj["values"][spelled] = obj["values"].pop(key)
        message = re.escape(f"bad subset key {spelled!r}")
        with pytest.raises(FormatError, match=message):
            jsonio.capacity_from_obj(obj)
    # a canonical spelling outside 0..2**n-1 is out of range
    for n, key, spelled in ((1, "1", "2"), (2, "3", "-1"), (3, "5", "8")):
        obj = jsonio.capacity_to_obj(random_capacity(n, 0, "general"))
        obj["values"][spelled] = obj["values"].pop(key)
        message = re.escape(f"subset key {spelled!r} out of range")
        with pytest.raises(FormatError, match=message):
            jsonio.capacity_from_obj(obj)


def test_measure_round_trip_and_validation():
    rng = random.Random(0)
    P = random_probability(StateSpace(5), rng)
    again = jsonio.measure_from_obj(jsonio.measure_to_obj(P))
    assert again.weights == P.weights
    # the count is checked once, by the constructor through sets.check_values
    with pytest.raises(ValueError, match="^need 2 weights, got 1$"):
        jsonio.measure_from_obj({"n": 2, "weights": ["1/2"]})
    with pytest.raises(FormatError):
        jsonio.measure_from_obj({"n": 2, "weights": {"0": "1/2"}})


def test_function_round_trip():
    rng = random.Random(1)
    f = random_simple_function(StateSpace(3), rng)
    again = jsonio.function_from_obj(jsonio.function_to_obj(f))
    assert again.values == f.values


def test_partition_round_trip():
    rng = random.Random(2)
    p = random_partition(StateSpace(6), rng)
    again = jsonio.partition_from_obj(jsonio.partition_to_obj(p))
    assert {b.bits for b in again.blocks} == {b.bits for b in p.blocks}


def test_partition_block_index_shape():
    obj = {
        "n": 8,
        "blocks": [["0", "4"], ["1", "5"], ["2", "6"], ["3", "7"]],
    }
    p = jsonio.partition_from_obj(obj)
    assert len(p.blocks) == 4
    assert p.blocks[0].bits == 0b00010001


def test_family_parsing():
    fam = jsonio.family_from_obj(
        {"n": 2, "functions": [["1", "0"], ["1/2", "3/2"]]}
    )
    assert len(fam) == 2
    assert fam[1].values == (F(1, 2), F(3, 2))
    with pytest.raises(FormatError):
        jsonio.family_from_obj({"n": 2, "functions": []})


def test_file_round_trip(tmp_path):
    v = random_capacity(3, 7, "convex")
    path = tmp_path / "v.json"
    jsonio.dump(jsonio.capacity_to_obj(v), path)
    loaded = jsonio.capacity_from_obj(jsonio.load(path))
    assert loaded.values == v.values
    # the file itself is canonical: re-dumping parses to identical text
    text = path.read_text()
    assert json.loads(text) == jsonio.capacity_to_obj(loaded)


def test_load_errors(tmp_path):
    with pytest.raises(FormatError):
        jsonio.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        jsonio.load(bad)


def test_fraction_strings():
    assert jsonio.frac_from_str("3/4") == F(3, 4)
    assert jsonio.frac_from_str("2") == F(2)
    assert jsonio.frac_to_str(F(6, 4)) == "3/2"
    with pytest.raises(FormatError):
        jsonio.frac_from_str("1/0")
    assert jsonio.frac_from_str("0.25") == F(1, 4)


@pytest.mark.parametrize(
    "text",
    ["1e3", "2E-1", "1/2e5", "1e10000000"]
    # spellings Fraction takes that the file formats do not list, and JSON
    # numbers, which a float may already have rounded
    + ["1_000", "\u0661\u0662", " 3 ", ".5", "5.", "+2", 0.25, 2],
)
def test_exponents_are_refused(text):
    # Fraction("1e10000000") would build a ten-million-digit integer
    with pytest.raises(FormatError, match="not a rational"):
        jsonio.frac_from_str(text)


def test_readable_is_the_read_limit():
    at = F(-(10**jsonio.MAX_DIGITS - 1), 10**jsonio.MAX_DIGITS - 2)
    assert jsonio.readable(at)
    assert jsonio.frac_from_str(jsonio.frac_to_str(at)) == at
    for past in (F(10**jsonio.MAX_DIGITS), F(1, 10**jsonio.MAX_DIGITS)):
        assert not jsonio.readable(past)
        with pytest.raises(FormatError, match=f"more than {jsonio.MAX_DIGITS} digits"):
            jsonio.frac_from_str(jsonio.frac_to_str(past))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    profile=st.sampled_from(("general", "convex", "null-additive", "induced")),
)
def test_every_writer_round_trips_through_its_reader(n, seed, profile):
    rng = random.Random(seed)
    space = StateSpace(n)
    v = random_capacity(n, seed, profile)
    P = random_probability(space, rng)
    f = random_simple_function(space, rng)
    p = random_partition(space, rng)
    for x, write, read in (
        (v, jsonio.capacity_to_obj, jsonio.capacity_from_obj),
        (P, jsonio.measure_to_obj, jsonio.measure_from_obj),
        (f, jsonio.function_to_obj, jsonio.function_from_obj),
        (p, jsonio.partition_to_obj, jsonio.partition_from_obj),
    ):
        obj = write(x)
        again = read(json.loads(json.dumps(obj)))
        assert write(again) == obj
        assert again == x


def assert_same_table(got, v):
    assert got.space == v.space
    assert got.values == v.values
    assert got._scaled == v._scaled
    assert got._common == v._common


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    profile=st.sampled_from(("general", "convex", "null-additive", "induced")),
)
def test_a_capacity_file_reads_back_the_table_it_was_written_from(n, seed, profile):
    # the reader reads and scales each distinct string once, and changes
    # no entry
    v = random_capacity(n, seed, profile)
    obj = jsonio.capacity_to_obj(v)
    assert obj == {"n": n, "values": {str(m): jsonio.frac_to_str(x) for m, x in enumerate(v.values)}}
    assert list(obj["values"]) == [str(m) for m in range(1 << n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.json"
        jsonio.dump(obj, path)
        assert_same_table(jsonio.capacity_from_obj(jsonio.load(path)), v)


def distinct_capacity(n: int) -> Capacity:
    """``v(T) = |T| + mask/2**n``: one value per subset, over one small denominator."""
    return Capacity(
        StateSpace(n), tuple(F(bin(m).count("1")) + F(m, 1 << n) for m in range(1 << n))
    )


@pytest.mark.parametrize("n", [1, 4, 8])
def test_a_table_with_no_repeated_value_reads_back_through_a_file(tmp_path, n):
    v = distinct_capacity(n)
    assert len(set(v._scaled)) == 1 << n and type(v._scaled[1]) is int
    obj = jsonio.capacity_to_obj(v)
    assert obj == {"n": n, "values": {str(m): jsonio.frac_to_str(x) for m, x in enumerate(v.values)}}
    path = tmp_path / "v.json"
    jsonio.dump(obj, path)
    assert_same_table(jsonio.capacity_from_obj(jsonio.load(path)), v)


def test_a_table_past_the_scale_budget_reads_back_through_a_file(tmp_path):
    v = prime_capacity(6)  # one prime denominator per subset
    assert v._common == 1 and isinstance(v._scaled[1], F)
    assert math.lcm(*(x.denominator for x in v.values)).bit_length() > SCALE_BITS
    obj = jsonio.capacity_to_obj(v)
    assert obj == {"n": 6, "values": {str(m): jsonio.frac_to_str(x) for m, x in enumerate(v.values)}}
    path = tmp_path / "v.json"
    jsonio.dump(obj, path)
    assert_same_table(jsonio.capacity_from_obj(jsonio.load(path)), v)


@pytest.mark.parametrize("profile", ["general", "convex", "null-additive", "induced"])
def test_a_table_of_strings_builds_the_capacity_its_fractions_build(profile):
    for v in (random_capacity(6, 3, profile), prime_capacity(5), distinct_capacity(6)):
        strings = tuple(map(jsonio.frac_to_str, v.values))
        assert_same_table(Capacity(v.space, strings), v)
        assert_same_table(Capacity(v.space, list(v.values)), v)


def _with(n: int, first: dict, last: dict, drop=()) -> dict:
    """A capacity file with ``first``'s entries listed before the rest of a
    valid ``n``-state table and ``last``'s after it."""
    values = jsonio.capacity_to_obj(random_capacity(n, 0, "general"))["values"]
    rest = {k: x for k, x in values.items() if k not in {*first, *last, *drop}}
    return {"n": n, "values": {**first, **rest, **last}}


@pytest.mark.parametrize(
    "obj, message",
    [
        # two bad strings: the one the file lists first is named, whatever
        # the mask order
        (_with(4, {"10": "x/1"}, {"2": "1e3"}), "not a rational: 'x/1'"),
        (_with(4, {"2": "1e3"}, {"10": "x/1"}), "not a rational: '1e3'"),
        (_with(2, {}, {"3": None}), "not a rational: None"),
        # an entry's key is read before its value, and entries in file order
        (_with(2, {"x": "1"}, {"1": ["1"]}, drop="3"), "bad subset key 'x'"),
        (_with(2, {"1": ["1"]}, {"x": "1"}, drop="3"), "not a rational: ['1']"),
        (_with(3, {"007": "1"}, {"3": "a/b"}, drop="7"), "bad subset key '007'"),
        (_with(3, {"3": "a/b"}, {"007": "1"}, drop="7"), "not a rational: 'a/b'"),
    ],
)
def test_a_file_with_two_faults_names_the_one_it_lists_first(obj, message):
    assert len(obj["values"]) == 1 << obj["n"]
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        jsonio.capacity_from_obj(obj)


def assert_dumps_as_stdlib(obj, path):
    jsonio.dump(obj, path)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    profile=st.sampled_from(("general", "convex", "null-additive", "induced")),
)
def test_dump_writes_the_stdlib_indent_text_of_every_writer(n, seed, profile):
    # the file format: every writer's object, as the stdlib's indent text
    rng = random.Random(seed)
    space = StateSpace(n)
    objs = (
        jsonio.capacity_to_obj(random_capacity(n, seed, profile)),
        jsonio.measure_to_obj(random_probability(space, rng)),
        jsonio.function_to_obj(random_simple_function(space, rng)),
        jsonio.partition_to_obj(random_partition(space, rng)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for obj in objs:
            assert_dumps_as_stdlib(obj, Path(tmp) / "x.json")


def test_dump_writes_the_stdlib_indent_text_past_the_scale_budget(tmp_path):
    assert_dumps_as_stdlib(jsonio.capacity_to_obj(prime_capacity(6)), tmp_path / "x.json")


_scalars = st.none() | st.booleans() | st.integers() | st.text()
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(obj=_json)
def test_dump_writes_the_stdlib_indent_text_of_any_nesting(obj):
    # the file format for any JSON object, not only a writer's: sorted keys,
    # two-space indent, escaped non-ASCII and one closing newline; hypothesis
    # draws empty containers and non-ASCII strings too
    with tempfile.TemporaryDirectory() as tmp:
        assert_dumps_as_stdlib(obj, Path(tmp) / "x.json")


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        "é",
        [[], {}, [[]], {"a": {}}],
        {1: [1], 2: {"x": None}},  # keys the encoder writes as strings
        {True: [1], False: 0},
        {None: [None]},
        (1, (2, ())),
    ],
)
def test_dump_writes_the_stdlib_indent_text_of_edge_shapes(tmp_path, obj):
    assert_dumps_as_stdlib(obj, tmp_path / "x.json")
