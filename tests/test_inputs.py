"""Each exact input is read once: one text rule for an integer or a
rational in a file, and one read of each file the CLI names, whose digest
the report gives as the file was read."""

import hashlib
import json
from pathlib import Path

import pytest
from nonadd import (
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    jsonio,
    random_capacity,
)
from nonadd.cli import main
from nonadd.jsonio import FormatError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def write(path, obj) -> str:
    jsonio.dump(obj, path)
    return str(path)


def test_cover_reports_its_input_as_read_before_the_write(capsys, tmp_path):
    # --out names the input file itself: the report gives the digest of
    # the capacity the cover was made from, not of the cover written over it
    path = write(tmp_path / "c.json", jsonio.capacity_to_obj(random_capacity(3, 1)))
    before = digest(path)
    code, report, err = run_cli(capsys, "cover", "--capacity", path, "--out", path)
    assert code == 0, err
    assert report["results"]["equals_original"] is False
    assert digest(path) != before
    assert report["inputs"] == {path: before}


def test_only_the_files_a_command_reads_are_echoed(capsys, tmp_path):
    space = StateSpace(2)
    cap = write(tmp_path / "v.json", jsonio.capacity_to_obj(random_capacity(2, 1)))
    fun = write(
        tmp_path / "f.json", jsonio.function_to_obj(SimpleFunction(space, (1, 2)))
    )
    meas = write(
        tmp_path / "p.json", jsonio.measure_to_obj(ProbabilityMeasure.uniform(space))
    )
    argv = ("integrate", "choquet", "--capacity", cap, "--function", fun)
    code, report, err = run_cli(capsys, *argv, "--measure", meas)
    assert code == 0, err
    assert report["inputs"] == {cap: digest(cap), fun: digest(fun)}
    # a preset reads no file, so a --capacity beside it is no input, even
    # one that does not exist
    missing = str(tmp_path / "missing.json")
    code, report, err = run_cli(
        capsys, "converge", "--preset", "dyadic", "--m", "2", "--capacity", missing
    )
    assert code == 0, err
    assert report["inputs"] == {}
    # a sequence run reads both of its files
    seq = write(tmp_path / "s.json", {"kind": "ramp", "target": ["2", "1"]})
    code, report, err = run_cli(
        capsys, "converge", "--capacity", cap, "--sequence", seq
    )
    assert code == 0, err
    assert report["inputs"] == {cap: digest(cap), seq: digest(seq)}


def test_a_decimal_string_past_the_digit_cap_is_a_bad_integer(capsys, tmp_path):
    too_long = "9" * (jsonio.MAX_DIGITS + 1)
    for raw in (too_long, "-" + too_long):
        with pytest.raises(FormatError, match="^bad 'n': .* more than 4300 digits$"):
            jsonio.int_from_json(raw, "'n'")
    assert jsonio.int_from_json("-" + too_long[1:], "'n'") == -(10**4300 - 1)
    # the CLI names the field, not Python's own int-from-text limit
    path = write(tmp_path / "long.json", {"n": "1" * 5000, "values": {}})
    code, report, err = run_cli(capsys, "check", "monotone", "--capacity", path)
    assert (code, report) == (2, None)
    assert err.startswith("error: bad 'n': ") and "set_int_max_str_digits" not in err
    assert len(err) < 200


def test_an_integer_literal_past_the_digit_cap_names_its_file(capsys, tmp_path):
    # a JSON integer literal (not a string) is read by the same digit rule
    edge = tmp_path / "edge.json"
    edge.write_text("[" + "1" * jsonio.MAX_DIGITS + "]")
    assert jsonio.load(edge) == [int("1" * jsonio.MAX_DIGITS)]
    for digits in ("1" * 5000, "-" + "1" * 5000):
        path = tmp_path / "long.json"
        path.write_text('{"n": ' + digits + ', "values": {}}')
        with pytest.raises(FormatError, match=r" more than 4300 digits$") as caught:
            jsonio.load(path)
        assert str(caught.value).startswith(f"bad integer in {path}: ")
    code, report, err = run_cli(capsys, "check", "monotone", "--capacity", str(path))
    assert (code, report) == (2, None)
    assert err.startswith(f"error: bad integer in {path}: ")
    assert "set_int_max_str_digits" not in err and len(err) < 200


@pytest.mark.parametrize(
    "read",
    [
        lambda raw: jsonio.measure_from_obj({"n": 1, "weights": raw}),
        lambda raw: jsonio.function_from_obj({"n": 1, "values": raw}),
        lambda raw: jsonio.family_from_obj({"n": 1, "functions": [raw]}),
    ],
    ids=["measure", "function", "family"],
)
def test_every_list_of_rationals_is_read_by_one_rule(read):
    read(["1"])
    with pytest.raises(FormatError, match="must be a list of rationals, got '1'$"):
        read("1")
    with pytest.raises(FormatError, match="^not a rational: '1e0'$"):
        read(["1e0"])


def test_a_capacity_value_that_is_not_a_string_gets_a_short_message():
    obj = {"n": 1, "values": {"0": "0", "1": [1] * 100_000}}
    message = r"^not a rational: \[1, 1, .*\(300000 chars\)$"
    with pytest.raises(FormatError, match=message):
        jsonio.capacity_from_obj(obj)

