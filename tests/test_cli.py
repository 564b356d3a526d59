"""Command-line interface: value printing, verdicts, exit codes, round-trips."""

import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadd import (
    Capacity,
    Partition,
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    jsonio,
    random_capacity,
)
from nonadd.cli import main
from nonadd.simplex import LPSolution

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def files(tmp_path):
    space4 = StateSpace(4)
    out = {}

    def write(name, obj):
        path = tmp_path / name
        jsonio.dump(obj, path)
        out[name] = str(path)
        return str(path)

    write(
        "u4.json", jsonio.measure_to_obj(ProbabilityMeasure.uniform(space4))
    )
    write(
        "pairs4.json",
        jsonio.partition_to_obj(Partition.from_blocks(space4, [[0, 1], [2, 3]])),
    )
    write(
        "f4321.json",
        jsonio.function_to_obj(SimpleFunction(space4, (F(4), F(3), F(2), F(1)))),
    )
    space2 = StateSpace(2)
    write(
        "nonconvex2.json",
        jsonio.capacity_to_obj(
            Capacity(space2, (F(0), F(6, 10), F(6, 10), F(1)))
        ),
    )
    write("ones2.json", jsonio.function_to_obj(SimpleFunction.constant(space2, 1)))
    write("zero2.json", jsonio.function_to_obj(SimpleFunction.constant(space2, 0)))
    space8 = StateSpace(8)
    write(
        "u8.json", jsonio.measure_to_obj(ProbabilityMeasure.uniform(space8))
    )
    write(
        "shift8.json",
        jsonio.partition_to_obj(
            Partition.from_blocks(space8, [[k, k + 4] for k in range(4)])
        ),
    )
    out["dir"] = str(tmp_path)
    return out


def test_integrate_psa_worked_example(capsys, files):
    code, report, _ = run_cli(
        capsys,
        "integrate",
        "psa",
        "--measure",
        files["u4.json"],
        "--partition",
        files["pairs4.json"],
        "--function",
        files["f4321.json"],
    )
    assert code == 0
    assert report["results"]["value"] == "2"


def test_integrate_choquet_zero(capsys, files):
    code, report, _ = run_cli(
        capsys,
        "integrate",
        "choquet",
        "--capacity",
        files["nonconvex2.json"],
        "--function",
        files["zero2.json"],
    )
    assert code == 0
    assert report["results"]["value"] == "0"


def test_integrate_cav_worked_example(capsys, files):
    code, report, _ = run_cli(
        capsys,
        "integrate",
        "cav",
        "--capacity",
        files["nonconvex2.json"],
        "--function",
        files["ones2.json"],
    )
    assert code == 0
    assert report["results"]["value"] == "6/5"
    assert report["results"]["dual_witness"] == ["3/5", "3/5"]


def test_integrate_with_decimal(capsys, files, tmp_path):
    path = tmp_path / "top.json"
    for which, top, places, expected in (
        ("cav", "1", "3", "1.200"),
        # rendered from the exact value: no float digits, no float overflow
        ("cav", "1", "40", "1.2" + "0" * 39),
        ("cav", "1", "1000", "1.2" + "0" * 999),
        ("choquet", "1" + "0" * 400, "3", "1" + "0" * 400 + ".000"),
    ):
        values = {"0": "0", "1": "3/5", "2": "3/5", "3": top}
        jsonio.dump({"n": 2, "values": values}, path)
        code, report, _ = run_cli(
            capsys,
            "--decimal",
            places,
            "integrate",
            which,
            "--capacity",
            str(path),
            "--function",
            files["ones2.json"],
        )
        assert code == 0
        assert report["results"]["value_decimal"] == expected


def test_check_null_additive_shift_pairs(capsys, files, tmp_path):
    # build the induced capacity file via the library, check via the CLI
    import nonadd

    P = jsonio.measure_from_obj(jsonio.load(files["u8.json"]))
    partition = jsonio.partition_from_obj(jsonio.load(files["shift8.json"]))
    ic = nonadd.induce(P, partition)
    cap_path = tmp_path / "shiftpairs8.json"
    jsonio.dump(jsonio.capacity_to_obj(ic.base), cap_path)

    code, report, _ = run_cli(
        capsys, "check", "null-additive", "--capacity", str(cap_path)
    )
    assert code == 0
    assert report["results"]["holds"] is False
    assert len(report["results"]["witness"]) == 2

    code, report, _ = run_cli(
        capsys, "check", "convex", "--capacity", str(cap_path)
    )
    assert code == 0
    assert report["results"]["holds"] is True


def test_check_weak_ae_equivalence_shift_pairs(capsys, files):
    code, report, _ = run_cli(
        capsys,
        "check",
        "weak-ae-equivalence",
        "--measure",
        files["u8.json"],
        "--partition",
        files["shift8.json"],
    )
    assert code == 0
    conditions = report["results"]["conditions"]
    assert conditions == {
        "dense": False,
        "lebesgue": False,
        "monotone_convergence": False,
        "null_additive": False,
    }
    assert report["results"]["agree"] is True


def test_check_dense_on_the_largest_space(capsys, tmp_path):
    space = StateSpace(20)  # the largest StateSpace accepts by default
    measure, partition = tmp_path / "m.json", tmp_path / "p.json"
    jsonio.dump(jsonio.measure_to_obj(ProbabilityMeasure.uniform(space)), measure)
    jsonio.dump(jsonio.partition_to_obj(Partition.singletons(space)), partition)
    code, report, _ = run_cli(
        capsys, "check", "dense", "--measure", str(measure), "--partition", str(partition)
    )
    assert code == 0
    assert report["results"]["holds"] is True


def test_exponent_in_a_value_exits_2(capsys, tmp_path):
    path = tmp_path / "v.json"
    # and every other spelling the file formats do not list: JSON numbers
    # (the first arrives rounded through a float), then strings that
    # Fraction would take
    for value in (
        "1e2000000", 0.33333333333333333333, 2,
        "1_000", "\u0661\u0662", " 3 ", ".5", "5.", "+2",
    ):
        jsonio.dump({"n": 1, "values": {"0": "0", "1": value}}, path)
        code, report, err = run_cli(capsys, "check", "monotone", "--capacity", str(path))
        assert code == 2
        assert report is None
        read = json.loads(path.read_text())["values"]["1"]
        assert f"error: not a rational: {read!r}" in err


def test_cover_additive_is_fixed_point(capsys, tmp_path):
    space = StateSpace(3)
    P = ProbabilityMeasure.uniform(space)
    path = tmp_path / "additive.json"
    jsonio.dump(jsonio.capacity_to_obj(Capacity(P.space, P.mass_table)), path)
    code, report, _ = run_cli(capsys, "cover", "--capacity", str(path))
    assert code == 0
    assert report["results"]["equals_original"] is True


def test_cover_writes_file_and_is_idempotent(capsys, files, tmp_path):
    out1 = tmp_path / "cover1.json"
    code, report, _ = run_cli(
        capsys,
        "cover",
        "--capacity",
        files["nonconvex2.json"],
        "--out",
        str(out1),
    )
    assert code == 0
    assert report["results"]["equals_original"] is False
    assert report["results"]["total"] == "6/5"

    code, report2, _ = run_cli(capsys, "cover", "--capacity", str(out1))
    assert code == 0
    assert report2["results"]["equals_original"] is True


def test_converge_pair_blocks_preset(capsys):
    code, report, _ = run_cli(
        capsys, "converge", "--preset", "pair-blocks", "--depth", "5"
    )
    assert code == 0
    assert report["results"]["trace"] == ["2/3", "4/5", "6/7", "8/9", "10/11"]
    assert report["results"]["convergent"] is True
    assert report["results"]["limit_integral"] == "1"


def test_long_trace_renders_only_the_entries_it_prints(capsys, monkeypatch):
    calls = []
    render = jsonio.frac_to_str

    def counted(x):
        calls.append(x)
        return render(x)

    monkeypatch.setattr(jsonio, "frac_to_str", counted)
    code, report, _ = run_cli(
        capsys, "converge", "--preset", "pair-blocks", "--depth", "10000"
    )
    assert code == 0
    results = report["results"]
    assert results["trace_length"] == 10_000
    assert results["trace_tail"][-1] == "20000/20001"
    # the first and last ten entries and the limit, not every entry
    assert len(calls) <= 30


def test_converge_trivial_field_preset(capsys):
    code, report, _ = run_cli(
        capsys, "converge", "--preset", "trivial-field", "--depth", "5"
    )
    assert code == 0
    assert set(report["results"]["trace"]) == {"0"}
    assert report["results"]["convergent"] is False
    assert report["results"]["limit_integral"] == "1"


def test_converge_trivial_field_at_the_depth_bound(capsys):
    started = time.perf_counter()
    code, report, _ = run_cli(
        capsys, "converge", "--preset", "trivial-field", "--depth", "100000"
    )
    assert time.perf_counter() - started < 2.0
    assert code == 0
    results = report["results"]
    assert results["trace_length"] == 100_000
    assert set(results["trace_head"]) == set(results["trace_tail"]) == {"0"}
    assert results["convergent"] is False


def test_converge_trivial_field_assert_flag(capsys):
    code, _, _ = run_cli(
        capsys, "--assert", "converge", "--preset", "trivial-field"
    )
    assert code == 1


def test_converge_dyadic_preset(capsys):
    code, report, _ = run_cli(
        capsys, "--seed", "5", "converge", "--preset", "dyadic", "--m", "3"
    )
    assert code == 0
    assert report["results"]["convergent"] is True
    assert report["results"]["stabilized_at"] is not None
    assert report["results"]["increases_continuously"] is True


def test_converge_custom_counterexample(capsys, tmp_path):
    space = StateSpace(2)
    v = Capacity(space, (F(0), F(1, 2), F(0), F(1)))
    cap_path = tmp_path / "v.json"
    jsonio.dump(jsonio.capacity_to_obj(v), cap_path)
    seq_path = tmp_path / "seq.json"
    jsonio.dump({"kind": "null-counterexample", "E": "2", "F": "1"}, seq_path)
    code, report, _ = run_cli(
        capsys,
        "converge",
        "--capacity",
        str(cap_path),
        "--sequence",
        str(seq_path),
    )
    assert code == 0
    results = report["results"]
    assert results["convergent"] is False
    assert results["gap"] == "1/2"
    assert results["modes"]["weak_v_ae"] is True
    assert results["modes"]["strong_v_ae"] is False


def test_converge_ramp_sequence(capsys, tmp_path):
    space = StateSpace(2)
    v = Capacity(space, (F(0), F(1, 2), F(1, 4), F(1)))
    cap_path = tmp_path / "v.json"
    jsonio.dump(jsonio.capacity_to_obj(v), cap_path)
    seq_path = tmp_path / "ramp.json"
    jsonio.dump({"kind": "ramp", "target": ["2", "1"], "steps": 3}, seq_path)
    code, report, _ = run_cli(
        capsys,
        "converge",
        "--capacity",
        str(cap_path),
        "--sequence",
        str(seq_path),
        "--integral",
        "cav",
    )
    assert code == 0
    assert report["results"]["convergent"] is True
    assert report["results"]["modes"]["pointwise"] is True


def test_gen_round_trip_and_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code, report1, _ = run_cli(
        capsys,
        "--seed",
        "9",
        "gen",
        "--n",
        "4",
        "--profile",
        "convex",
        "--out",
        str(out1),
    )
    assert code == 0
    code, report2, _ = run_cli(
        capsys,
        "--seed",
        "9",
        "gen",
        "--n",
        "4",
        "--profile",
        "convex",
        "--out",
        str(out2),
    )
    assert code == 0
    assert report1["results"]["digest"] == report2["results"]["digest"]

    code, report, _ = run_cli(capsys, "check", "convex", "--capacity", str(out1))
    assert code == 0
    assert report["results"]["holds"] is True


def test_global_flags_accepted_after_subcommand(capsys, files):
    code, report, _ = run_cli(
        capsys,
        "integrate",
        "cav",
        "--capacity",
        files["nonconvex2.json"],
        "--function",
        files["ones2.json"],
        "--decimal",
        "2",
    )
    assert code == 0
    assert report["results"]["value_decimal"] == "1.20"
    code, _, _ = run_cli(
        capsys, "converge", "--preset", "trivial-field", "--assert"
    )
    assert code == 1


def test_check_monotone_reports_failure(capsys, files, tmp_path):
    code, report, _ = run_cli(
        capsys, "--assert", "check", "monotone", "--capacity", files["nonconvex2.json"]
    )
    assert code == 0
    assert report["results"] == {"holds": True, "witness": []}
    # v({0}) = 1 > 1/2 = v({0, 1}): the loader's covering-pair witness
    path = tmp_path / "dip.json"
    jsonio.dump({"n": 2, "values": {"0": "0", "1": "1", "2": "0", "3": "1/2"}}, path)
    code, report, _ = run_cli(capsys, "check", "monotone", "--capacity", str(path))
    assert code == 0
    assert report["results"] == {"holds": False, "witness": ["1", "3"]}
    code, _, _ = run_cli(capsys, "--assert", "check", "monotone", "--capacity", str(path))
    assert code == 1
    # sign, empty-set and table-size failures are bad input, and so is a
    # dip under any other check
    for values, which in (
        ({"0": "0", "1": "-1", "2": "0", "3": "1"}, "monotone"),
        ({"0": "1", "1": "1", "2": "1", "3": "1"}, "monotone"),
        ({"0": "0", "1": "1"}, "monotone"),
        ({"0": "0", "1": "1", "2": "0", "3": "1/2"}, "convex"),
    ):
        jsonio.dump({"n": 2, "values": values}, path)
        code, report, err = run_cli(capsys, "check", which, "--capacity", str(path))
        assert code == 2
        assert report is None
        assert "error:" in err


def test_check_convex_past_the_int_str_digit_limit(capsys, tmp_path):
    # a valid capacity whose violated sums have over 4,300 digits
    big = 10**2500
    values = {"0": "0", "1": f"{big}/{big + 1}", "2": f"{big + 2}/{big + 3}", "3": "1"}
    path = tmp_path / "huge.json"
    jsonio.dump({"n": 2, "values": values}, path)
    code, report, _ = run_cli(capsys, "check", "convex", "--capacity", str(path))
    assert code == 0
    assert report["results"] == {"holds": False, "witness": ["1", "2"]}


def _exact(text: str) -> F:
    """A printed ``p/q`` read back past the int-from-text digit cap."""
    p, _, q = text.partition("/")
    return F(int(Decimal(p)), int(Decimal(q or "1")))


def test_values_past_the_int_str_digit_limit(capsys, tmp_path):
    # each input is under the 4,300-digit cap, the value they make is not
    big = 10**4000
    cap, fun = tmp_path / "cap.json", tmp_path / "f.json"
    jsonio.dump({"n": 1, "values": {"0": "0", "1": f"{big - 1}/{big}"}}, cap)
    jsonio.dump({"n": 1, "values": [f"{big + 1}/{big + 3}"]}, fun)
    value = F(big - 1, big) * F(big + 1, big + 3)
    for argv in (
        ["integrate", "choquet"],
        ["integrate", "cav"],
        ["--decimal", "5", "integrate", "choquet"],
    ):
        code, report, err = run_cli(
            capsys, *argv, "--capacity", str(cap), "--function", str(fun)
        )
        assert code == 0, err
        assert _exact(report["results"]["value"]) == value
    assert report["results"]["value_decimal"] == "1.00000"


def _two_state_file(path, big: int) -> F:
    """A capacity file with v({0}) + v({1}) above v({0,1}) = 1; returns that sum.

    The sum is the cover's top value, and its denominator has about twice
    the digits of ``big``.
    """
    values = {"0": "0", "1": f"{big}/{big + 1}", "2": f"{big + 2}/{big + 3}", "3": "1"}
    jsonio.dump({"n": 2, "values": values}, path)
    return F(big, big + 1) + F(big + 2, big + 3)


def test_cover_out_past_the_int_str_digit_limit(capsys, tmp_path):
    # the cover's top value has over 4,300 digits: more than a capacity
    # file may hold, so --out refuses before writing, and the cover still
    # prints without --out
    path, out = tmp_path / "huge.json", tmp_path / "cover.json"
    top = _two_state_file(path, 10**2500)
    code, report, err = run_cli(
        capsys, "cover", "--capacity", str(path), "--out", str(out)
    )
    assert code == 2
    assert report is None
    assert f"more than {jsonio.MAX_DIGITS} digits" in err
    assert not out.exists()
    code, report, err = run_cli(capsys, "cover", "--capacity", str(path))
    assert code == 0, err
    assert _exact(report["results"]["total"]) == top


def test_cover_out_under_the_digit_limit_reads_back(capsys, tmp_path):
    path, out = tmp_path / "big.json", tmp_path / "cover.json"
    top = _two_state_file(path, 10**1000)
    code, report, err = run_cli(
        capsys, "cover", "--capacity", str(path), "--out", str(out)
    )
    assert code == 0, err
    assert json.loads(out.read_text()) == report["results"]["cover"]
    assert _exact(report["results"]["total"]) == top
    code, report, err = run_cli(capsys, "cover", "--capacity", str(out))
    assert code == 0, err
    assert report["results"]["equals_original"] is True


def test_integer_past_the_read_limit_gets_a_short_message(capsys, tmp_path):
    path = tmp_path / "long.json"
    digits = "1" * (jsonio.MAX_DIGITS + 1)
    jsonio.dump({"n": 1, "values": {"0": "0", "1": digits}}, path)
    code, report, err = run_cli(capsys, "check", "monotone", "--capacity", str(path))
    assert code == 2
    assert report is None
    assert f"more than {jsonio.MAX_DIGITS} digits" in err
    assert len(err) < 200


def test_assert_flag_on_passing_check(capsys, tmp_path):
    space = StateSpace(2)
    P = ProbabilityMeasure.uniform(space)
    path = tmp_path / "p.json"
    jsonio.dump(jsonio.capacity_to_obj(Capacity(P.space, P.mass_table)), path)
    code, _, _ = run_cli(
        capsys, "--assert", "check", "convex", "--capacity", str(path)
    )
    assert code == 0


def test_malformed_json_is_diagnosed(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{')")
    code, report, err = run_cli(
        capsys,
        "integrate",
        "choquet",
        "--capacity",
        str(bad),
        "--function",
        str(bad),
    )
    assert code == 2
    assert report is None
    assert "malformed" in err
    cap = tmp_path / "v.json"
    P = ProbabilityMeasure.uniform(StateSpace(2))
    jsonio.dump(jsonio.capacity_to_obj(Capacity(P.space, P.mass_table)), cap)
    for seq in (
        [],
        {"kind": "ramp", "target": ["1", "1"], "steps": None},
        # bounded before any term is built
        {"kind": "ramp", "target": ["1", "1"], "steps": 10**9},
        {"kind": "null-counterexample", "E": None, "F": "1"},
        {"kind": "null-counterexample", "E": "9", "F": "1"},
        {"kind": "custom", "terms": None, "limit": ["1", "1"]},
    ):
        jsonio.dump(seq, bad)
        code, report, err = run_cli(
            capsys, "converge", "--capacity", str(cap), "--sequence", str(bad)
        )
        assert code == 2, seq
        assert report is None
        assert err.startswith("error:")
    space = StateSpace(2)
    measure, function = tmp_path / "m.json", tmp_path / "f.json"
    jsonio.dump(jsonio.measure_to_obj(ProbabilityMeasure.uniform(space)), measure)
    jsonio.dump(jsonio.function_to_obj(SimpleFunction.constant(space, 0)), function)
    jsonio.dump({"n": 2, "blocks": [[[0]], [1]]}, bad)
    code, report, err = run_cli(
        capsys,
        "integrate",
        "psa",
        "--measure",
        str(measure),
        "--partition",
        str(bad),
        "--function",
        str(function),
    )
    assert code == 2
    assert report is None
    assert "bad state index" in err
    bad.write_text("[" * 100_000)
    code, report, err = run_cli(
        capsys, "integrate", "choquet", "--capacity", str(cap), "--function", str(bad)
    )
    assert code == 2
    assert report is None
    assert "malformed" in err
    # numbers that are not integers are not truncated to another model
    for obj in (
        {"n": 2.7, "values": {"0": "0", "1": "1/2", "2": "1/2", "3": "1"}},
        {"n": True, "values": {"0": "0", "1": "1"}},
    ):
        jsonio.dump(obj, bad)
        code, report, err = run_cli(capsys, "check", "monotone", "--capacity", str(bad))
        assert code == 2, obj
        assert report is None
        assert "'n'" in err
    # nor is a subset key read in another spelling of a mask
    jsonio.dump({"n": 1, "values": {"0": "0", " +1": "1"}}, bad)
    code, report, err = run_cli(capsys, "check", "monotone", "--capacity", str(bad))
    assert code == 2
    assert report is None
    assert "bad subset key" in err
    jsonio.dump({"n": 2, "blocks": [[0.9], [1]]}, bad)
    code, report, err = run_cli(
        capsys,
        "integrate",
        "psa",
        "--measure",
        str(measure),
        "--partition",
        str(bad),
        "--function",
        str(function),
    )
    assert code == 2
    assert report is None
    assert "bad state index" in err


def test_dimension_mismatch_is_diagnosed(capsys, tmp_path):
    space2, space3 = StateSpace(2), StateSpace(3)
    cap = tmp_path / "c.json"
    fun = tmp_path / "f.json"
    P = ProbabilityMeasure.uniform(space2)
    jsonio.dump(jsonio.capacity_to_obj(Capacity(P.space, P.mass_table)), cap)
    jsonio.dump(jsonio.function_to_obj(SimpleFunction.constant(space3, 0)), fun)
    code, _, err = run_cli(
        capsys,
        "integrate",
        "choquet",
        "--capacity",
        str(cap),
        "--function",
        str(fun),
    )
    assert code == 2
    assert err


def test_missing_required_inputs_are_diagnosed(capsys, files):
    code, _, err = run_cli(
        capsys, "integrate", "choquet", "--function", files["ones2.json"]
    )
    assert code == 2
    assert "--capacity" in err
    code, _, err = run_cli(capsys, "check", "dense", "--measure", files["u4.json"])
    assert code == 2
    assert "--partition" in err
    code, _, err = run_cli(capsys, "converge")
    assert code == 2
    assert "--preset" in err
    for preset, flag, value in (
        ("pair-blocks", "--depth", "0"),
        ("trivial-field", "--depth", "-5"),
        ("dyadic", "--m", "-1"),
        ("dyadic", "--m", "17"),
        ("pair-blocks", "--depth", "100001"),
        ("trivial-field", "--depth", "100001"),
    ):
        code, report, err = run_cli(capsys, "converge", "--preset", preset, flag, value)
        assert code == 2
        assert report is None
        assert flag in err
    capacity, ones = files["nonconvex2.json"], files["ones2.json"]
    for argv in (
        ("--decimal", "-1", "integrate", "cav", "--capacity", capacity, "--function", ones),
        ("check", "convex", "--capacity", capacity, "--decimal", "-1"),
        ("--decimal", "1001", "converge", "--preset", "dyadic"),
    ):
        code, report, err = run_cli(capsys, *argv)
        assert code == 2
        assert report is None
        assert "--decimal" in err


def test_internal_error_exits_3(capsys, files, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("pivot limit exceeded")

    monkeypatch.setattr("nonadd.integrals.solve_max", broken)
    code, report, err = run_cli(
        capsys,
        "integrate",
        "cav",
        "--capacity",
        files["nonconvex2.json"],
        "--function",
        files["ones2.json"],
    )
    assert code == 3
    assert report is None
    assert err.startswith("internal error: pivot limit exceeded")


def test_inconsistent_lp_point_exits_3(capsys, files, monkeypatch):
    # a point that overshoots the integrand fails the witness replay
    def overshoot(objective, columns, rhs):
        x = tuple(F(2) for _ in objective)
        value = sum((c * w for c, w in zip(objective, x)), F(0))
        return LPSolution(value, x, tuple(F(0) for _ in rhs), 0)

    monkeypatch.setattr("nonadd.integrals.solve_max", overshoot)
    code, report, err = run_cli(
        capsys,
        "integrate",
        "cav",
        "--capacity",
        files["nonconvex2.json"],
        "--function",
        files["ones2.json"],
    )
    assert code == 3
    assert report is None
    assert err.startswith("internal error: simplex returned an inconsistent")


def test_dispatch_tables_call_a_wrapper_set_on_the_module(capsys, files, monkeypatch):
    # bench/tracing.py wraps module attributes after import; the reader and
    # the check that the tables name must be called through those wrappers
    seen = []
    for module, name in (("nonadd.jsonio", "capacity_from_obj"), ("nonadd.capacity", "check_convex")):
        orig = getattr(sys.modules[module], name)

        def wrapper(*args, orig=orig, name=name):
            seen.append(name)
            return orig(*args)

        monkeypatch.setattr(sys.modules[module], name, wrapper)
    code, _, _ = run_cli(capsys, "check", "convex", "--capacity", files["nonconvex2.json"])
    assert code == 0
    assert seen == ["capacity_from_obj", "check_convex"]


def test_report_echoes_inputs_with_digests(capsys, files):
    code, report, _ = run_cli(
        capsys,
        "integrate",
        "psa",
        "--measure",
        files["u4.json"],
        "--partition",
        files["pairs4.json"],
        "--function",
        files["f4321.json"],
    )
    assert code == 0
    assert set(report["inputs"]) == {
        files["u4.json"],
        files["pairs4.json"],
        files["f4321.json"],
    }
    assert all(len(d) == 12 for d in report["inputs"].values())


def run_fresh(*argv):
    """``nonadd.cli`` in a new interpreter: (exit code, report, stderr)."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-m", "nonadd.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = json.loads(done.stdout) if done.stdout.strip() else None
    return done.returncode, report, done.stderr


def test_parser_reuse_leaks_no_state(capsys, files, tmp_path):
    # one parser serves every call in a process; flags of an earlier call
    # must not reach a later one: --assert would turn the false convexity
    # verdict into exit 1, --decimal would add value_decimal, and --seed
    # would change the generated table
    dip = tmp_path / "dip.json"
    jsonio.dump({"n": 2, "values": {"0": "0", "1": "1", "2": "0", "3": "1/2"}}, dip)
    flagged = ("--assert", "--decimal", "3", "--seed", "7")
    code, _, _ = run_cli(capsys, *flagged, "check", "monotone", "--capacity", str(dip))
    assert code == 1
    for argv in (
        ("check", "convex", "--capacity", files["nonconvex2.json"]),
        ("integrate", "cav", "--capacity", files["nonconvex2.json"],
         "--function", files["ones2.json"]),
        ("gen", "--n", "3", "--out", str(tmp_path / "gen.json")),
    ):
        code, report, err = run_cli(capsys, *argv)
        fresh_code, fresh_report, fresh_err = run_fresh(*argv)
        for r in (report, fresh_report):
            del r["elapsed_s"]
        assert (code, report, err) == (fresh_code, fresh_report, fresh_err)
    # an argparse error after successful calls still exits 2
    for argv in (("check", "bogus"), ("integrate", "cav"), ("gen", "--n", "x")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    code, report, _ = run_cli(
        capsys, "check", "convex", "--capacity", files["nonconvex2.json"]
    )
    assert (code, report["results"]["holds"]) == (0, False)


# ---------------------------------------------------------------------------
# Arbitrary JSON through the file readers
# ---------------------------------------------------------------------------
#
# Each example starts from a valid document of one file kind and applies up
# to four edits: a new "n" (which a sequence, sized by its capacity,
# ignores), a payload of the wrong type, or a dropped, inserted,
# respelled or replaced entry; one in ten documents is then
# replaced by a scalar, list or bare table.  Whatever comes out, the CLI
# must end in a defined exit code, never in a traceback.

N_VALUES = st.one_of(
    st.integers(-2, 6), st.sampled_from(["3", "-1", 2.5, True, None, "x", []])
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.floats(-10, 10),
    st.sampled_from(["1/2", "-1/3", "1/0", "a/b", "", " 1", "0x1", "1_0"]),
    st.text(max_size=3),
)
ENTRIES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3))
MASK_KEYS = st.one_of(
    st.sampled_from(["1_0", " +1", "-0", "007", "-1", "+2", "64", "4096", "1.0"]),
    st.integers(0, 70).map(str),
    st.text(max_size=3),
)
WRONG_PAYLOADS = st.one_of(
    SCALARS,
    st.dictionaries(MASK_KEYS, SCALARS, max_size=3),
    st.lists(ENTRIES, max_size=3),
)
PAYLOADS = {
    "capacity": "values",
    "measure": "weights",
    "function": "values",
    "partition": "blocks",
    "family": "functions",
    "sequence": "terms",
}


@functools.cache
def valid_doc(kind, n):
    space = StateSpace(n)
    if kind == "capacity":
        return jsonio.capacity_to_obj(random_capacity(n, n, "general"))
    if kind == "measure":
        return jsonio.measure_to_obj(ProbabilityMeasure.uniform(space))
    if kind == "function":
        values = tuple(F(k, 2) for k in range(n))
        return jsonio.function_to_obj(SimpleFunction(space, values))
    if kind == "family":
        rows = [["1"] * n, [str(k % 2) for k in range(n)]]
        return {"n": n, "functions": rows}
    if kind == "sequence":
        rows = [["0"] * n, [str(k % 2) for k in range(n)]]
        return {"kind": "custom", "terms": rows, "limit": ["1"] * n}
    blocks = [list(range(0, n, 2)), list(range(1, n, 2))]
    return jsonio.partition_to_obj(Partition.from_blocks(space, filter(None, blocks)))


@st.composite
def edited_docs(draw, kind):
    n = draw(st.integers(1, 6))
    doc = copy.deepcopy(valid_doc(kind, n))
    field = PAYLOADS[kind]
    for _ in range(draw(st.integers(0, 4))):
        payload = doc[field]
        edit = draw(st.sampled_from(("n", "payload", "drop", "insert", "set")))
        if edit == "n":
            doc["n"] = draw(N_VALUES)
        elif edit == "payload":
            doc[field] = draw(WRONG_PAYLOADS)
        elif isinstance(payload, dict) and payload:
            key = draw(st.sampled_from(sorted(payload)))
            if edit == "drop":
                del payload[key]
            elif edit == "insert":  # the entry moves to another key
                payload[draw(MASK_KEYS)] = payload.pop(key)
            else:
                payload[key] = draw(SCALARS)
        elif isinstance(payload, list) and payload:
            at = draw(st.integers(0, len(payload) - 1))
            if edit == "drop":
                del payload[at]
            elif edit == "insert":
                payload.insert(at, draw(ENTRIES))
            else:
                payload[at] = draw(ENTRIES)
    if draw(st.integers(0, 9)) == 0:
        doc = draw(WRONG_PAYLOADS)  # not even an object
    return n, doc


@pytest.fixture(scope="module")
def companions(tmp_path_factory):
    """Valid files of every kind for n=1..6, to pair with an edited one."""
    root = tmp_path_factory.mktemp("companions")
    out = {}
    for n in range(1, 7):
        for kind in PAYLOADS:
            path = root / f"{kind}{n}.json"
            jsonio.dump(valid_doc(kind, n), path)
            out[kind, n] = str(path)
    out["doc"] = str(root / "doc.json")
    return out


def fuzz_argv(kind, path, n, companions):
    if kind == "capacity":
        return ["--assert", "check", "monotone", "--capacity", path]
    if kind == "function":
        capacity = companions["capacity", n]
        return ["integrate", "choquet", "--capacity", capacity, "--function", path]
    if kind == "family":
        measure, function = companions["measure", n], companions["function", n]
        return ["integrate", "psp", "--measure", measure, "--function", function,
                "--family", path]
    if kind == "sequence":
        return ["converge", "--capacity", companions["capacity", n], "--sequence", path]
    measure = path if kind == "measure" else companions["measure", n]
    partition = path if kind == "partition" else companions["partition", n]
    return ["check", "dense", "--measure", measure, "--partition", partition]


@pytest.mark.parametrize("kind", sorted(PAYLOADS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arbitrary_json_ends_in_a_defined_exit(kind, companions, data):
    n, doc = data.draw(edited_docs(kind))
    path = companions["doc"]
    Path(path).write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(fuzz_argv(kind, path, n, companions))
    assert code in (0, 1, 2), (doc, err.getvalue())
    assert not err.getvalue().startswith("Traceback")
    assert (code == 2) == (out.getvalue() == "")
