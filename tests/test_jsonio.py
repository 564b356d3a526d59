"""Canonical JSON encodings: exact round-trips and schema rejection."""

import json
import random
import re
from fractions import Fraction as F

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
from nonadd.jsonio import FormatError


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
    with pytest.raises(FormatError):
        jsonio.measure_from_obj({"n": 2, "weights": ["1/2"]})


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


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1/2e5", "1e10000000"])
def test_exponents_are_refused(text):
    # Fraction("1e10000000") would build a ten-million-digit integer
    with pytest.raises(FormatError):
        jsonio.frac_from_str(text)


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
