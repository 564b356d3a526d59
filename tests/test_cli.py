"""Command-line interface: value printing, verdicts, exit codes, round-trips."""

import json
from fractions import Fraction as F

import pytest

from nonadd import (
    Capacity,
    Partition,
    ProbabilityMeasure,
    SimpleFunction,
    StateSpace,
    jsonio,
)
from nonadd.cli import main


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
    write("zero2.json", jsonio.function_to_obj(SimpleFunction.zero(space2)))
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


def test_integrate_with_decimal(capsys, files):
    code, report, _ = run_cli(
        capsys,
        "--decimal",
        "3",
        "integrate",
        "cav",
        "--capacity",
        files["nonconvex2.json"],
        "--function",
        files["ones2.json"],
    )
    assert code == 0
    assert report["results"]["value_decimal"] == "1.200"


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


def test_cover_additive_is_fixed_point(capsys, tmp_path):
    space = StateSpace(3)
    P = ProbabilityMeasure.uniform(space)
    path = tmp_path / "additive.json"
    jsonio.dump(jsonio.capacity_to_obj(P.as_capacity()), path)
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


def test_converge_trivial_field_preset(capsys):
    code, report, _ = run_cli(
        capsys, "converge", "--preset", "trivial-field", "--depth", "5"
    )
    assert code == 0
    assert set(report["results"]["trace"]) == {"0"}
    assert report["results"]["convergent"] is False
    assert report["results"]["limit_integral"] == "1"


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


def test_assert_flag_on_passing_check(capsys, tmp_path):
    space = StateSpace(2)
    P = ProbabilityMeasure.uniform(space)
    path = tmp_path / "p.json"
    jsonio.dump(jsonio.capacity_to_obj(P.as_capacity()), path)
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
    jsonio.dump(
        jsonio.capacity_to_obj(ProbabilityMeasure.uniform(StateSpace(2)).as_capacity()),
        cap,
    )
    for seq in (
        [],
        {"kind": "ramp", "target": ["1", "1"], "steps": None},
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


def test_dimension_mismatch_is_diagnosed(capsys, tmp_path):
    space2, space3 = StateSpace(2), StateSpace(3)
    cap = tmp_path / "c.json"
    fun = tmp_path / "f.json"
    jsonio.dump(
        jsonio.capacity_to_obj(ProbabilityMeasure.uniform(space2).as_capacity()),
        cap,
    )
    jsonio.dump(jsonio.function_to_obj(SimpleFunction.zero(space3)), fun)
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
    ):
        code, report, err = run_cli(capsys, "converge", "--preset", preset, flag, value)
        assert code == 2
        assert report is None
        assert flag in err


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
