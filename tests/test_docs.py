"""The README's quick tour, library map, command lines and demos match the code."""

import ast
import functools
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nonadd.cli import (
    _CHECKS,
    _INTEGRALS,
    MAX_DECIMAL,
    MAX_DEPTH,
    MAX_M,
    build_parser,
)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    # the tour starts with ``from nonadd import *``, so every name it uses
    # must be exported by the package
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def command_line_section() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    block = re.search(r"```bash\n(.*?)```", command_line_section(), re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("nonadd ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_names_every_integral_and_check():
    # whole words only: "convex" must not count inside "nonconvex2.json"
    words = set(re.findall(r"[\w-]+", command_line_section()))
    assert set(_INTEGRALS) | set(_CHECKS) <= words


def test_readme_bounds_match_the_cli():
    section = command_line_section()
    bounds = {
        r"`--m` must be in": (0, MAX_M),
        r"`--depth` in": (1, MAX_DEPTH),
        r"K must be in": (0, MAX_DECIMAL),
    }
    for prefix, bound in bounds.items():
        found = re.search(prefix + r" (\d+)\.\.(\d+)", section)
        assert found and tuple(map(int, found.groups())) == bound, prefix
    # no other range, such as a deleted bound, lingers in the section
    ranges = re.findall(r"(\d+)\.\.(\d+)", section)
    assert sorted((int(a), int(b)) for a, b in ranges) == sorted(bounds.values())


def test_readme_library_map_names_exist():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `nonadd\.(\w+)` \| (.*) \|$", section, re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "nonadd").glob("*.py")} - {"__init__"}
    assert sorted(name for name, _ in rows) == sorted(modules)
    for name, contents in rows:
        module = importlib.import_module(f"nonadd.{name}")
        for token in re.findall(r"`([^`]+)`", contents):
            path = token.split("(", 1)[0].split(".")
            # tokens such as `p/q` or `{1..K}` are notation, not names
            if all(part.isidentifier() for part in path):
                try:
                    functools.reduce(getattr, path, module)
                except AttributeError:
                    pytest.fail(f"README maps a missing nonadd.{name}.{'.'.join(path)}")


def _sites(picked) -> set[tuple[str, str | None]]:
    """``(module, enclosing function)`` of each ``src/nonadd`` node ``picked`` keeps."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if picked(node):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((ROOT / "src" / "nonadd").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def _name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _calls(name: str) -> set[tuple[str, str | None]]:
    return _sites(lambda n: isinstance(n, ast.Call) and _name(n) == name)


def test_each_finite_layer_rule_has_one_site():
    # the same-space check lives in sets.same_space, and every LP integral
    # solves and replays through integrals._lp_integral
    raises = _sites(
        lambda n: isinstance(n, ast.Raise) and _name(n.exc) == "SpaceMismatchError"
    )
    assert raises == {("sets", "same_space")}
    assert _calls("solve_max") == {("integrals", "_lp_integral")}


def test_one_lp_solver_and_no_tableau():
    # simplex.py defines one solver, and only it raises the unbounded
    # error; no module names a tableau, so the dense reference in
    # tests/helpers.py cannot come back as a second solve path
    functions = _sites(lambda n: isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    assert {f for module, f in functions if module == "simplex"} == {"solve_max"}
    unbounded = _sites(
        lambda n: isinstance(n, ast.Raise) and _name(n.exc) == "UnboundedProgramError"
    )
    assert unbounded == {("simplex", "solve_max")}
    names = ("id", "arg", "attr", "name")
    tableaus = _sites(
        lambda n: any("tableau" in str(getattr(n, a, "")).lower() for a in names)
    )
    assert not tableaus


def _calls_in_solve_max(name: str) -> tuple[list, list]:
    """The calls of ``name`` in ``simplex.solve_max``, and those inside its
    pivot loop."""
    tree = ast.parse((ROOT / "src" / "nonadd" / "simplex.py").read_text())
    (solver,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "solve_max"
    ]
    loops = [n for n in ast.walk(solver) if isinstance(n, ast.While)]
    assert loops

    def calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call) and _name(n) == name]

    return calls(solver), [n for loop in loops for n in calls(loop)]


def test_solve_max_builds_no_fraction_while_pivoting():
    # the pivot loop of solve_max works in ints only; Fractions are built
    # once, after strong duality is checked
    built, in_loop = _calls_in_solve_max("Fraction")
    assert built and not in_loop


def test_solve_max_keeps_one_objective_denominator_while_pivoting():
    # the costs are read over one denominator, a Fraction cost scaling its
    # own column, before the pivot loop, which forms no lcm (no per-basis
    # cost denominator)
    lcms, in_loop = _calls_in_solve_max("lcm")
    assert lcms and not in_loop


def test_capacity_lps_read_the_scaled_table():
    # _best_decomposition (concave_integral, balanced_cover's fallback,
    # chain_restricted_value) prices its columns from the capacity's ints
    # over its common denominator, never from its Fractions, and
    # balanced_cover's certificates add and compare those same ints
    tree = ast.parse((ROOT / "src" / "nonadd" / "integrals.py").read_text())
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    for name in ("_best_decomposition", "balanced_cover"):
        attrs = {n.attr for n in ast.walk(functions[name]) if isinstance(n, ast.Attribute)}
        assert {"_scaled", "_common"} <= attrs, name
        assert "values" not in attrs, name


def test_lp_witness_reads_x_only_at_the_support():
    # _lp_integral builds the witness from sol.support, the nonzero
    # structural indices, and never iterates the whole of sol.x
    tree = ast.parse((ROOT / "src" / "nonadd" / "integrals.py").read_text())
    (lp,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_lp_integral"
    ]
    reads = [n for n in ast.walk(lp) if isinstance(n, ast.Attribute) and n.attr == "x"]
    indexed = [n.value for n in ast.walk(lp) if isinstance(n, ast.Subscript)]
    assert reads and all(any(r is i for i in indexed) for r in reads)
    loops = [n.iter for n in ast.walk(lp) if isinstance(n, ast.comprehension)]
    assert [_name(i) for i in loops] == ["support"]


def test_countable_tail_sums_read_tails_as_ints():
    # a countable tail is an int pair: neither _tail_sum nor the loops of
    # _prefix_report, the unit-prefix trace, build a Fraction per tail
    tree = ast.parse((ROOT / "src" / "nonadd" / "countable.py").read_text())
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    loops = [
        n
        for n in ast.walk(functions["_prefix_report"])
        if isinstance(n, (ast.For, ast.While, ast.GeneratorExp, ast.ListComp))
    ]
    assert loops
    reads = [
        n
        for root in [functions["_tail_sum"], *loops]
        for n in ast.walk(root)
        if isinstance(n, ast.Call) and _name(n) == "tail"
    ]
    assert not reads


def test_countable_integrals_share_one_by_parts_sum():
    # both countable integrals end in countable._by_parts, and _tail_sum
    # is read only there and for the head-block masses of the unit-prefix
    # trace, so no second mass machinery sums tails beside it
    assert _calls("_by_parts") == {
        ("countable", "countable_lebesgue"),
        ("countable", "countable_psa_integral"),
    }
    assert _calls("_tail_sum") == {
        ("countable", "_by_parts"),
        ("countable", "_prefix_report"),
    }


def test_finite_measure_weights_are_built_at_one_site():
    # CountableMeasure.__post_init__ alone stores a finite family's int
    # weights and _by_parts alone reads them; the suffix sums are read only
    # as tails, by functions that name no sub, so none re-differences them
    stores = _sites(lambda n: isinstance(n, ast.Constant) and n.value == "_weights")
    assert stores == {("countable", "__post_init__")}

    def reads(attr):
        return _sites(lambda n: isinstance(n, ast.Attribute) and n.attr == attr)

    assert reads("_weights") == {("countable", "_by_parts")}
    suffix_readers = {("countable", "_tail_ratio"), ("countable", "_tail_sum")}
    assert reads("_suffix") == suffix_readers
    subs = _sites(lambda n: isinstance(n, ast.Name) and n.id == "sub")
    assert subs and not subs & suffix_readers


def test_each_render_and_state_rule_has_one_site():
    # the CLI renders a value only through _obj (and _decimal's digits),
    # and the sites that read states check them with sets.check_states
    # rather than truncate them with int()
    renders = {f for module, f in _calls("frac_to_str") if module == "cli"}
    assert renders == {"_obj", "_decimal"}
    checks = {
        ("sets", "subset"),
        ("countable", "__post_init__"),
        ("countable", "indicator"),
    }
    assert _calls("check_states") == checks
    # a size, a horizon, a depth, a state read by index or a mask is
    # checked, type and bounds, by the same rule, in sets.check_size; so
    # is each CLI count
    sizes = {
        ("sets", "__post_init__"),
        ("sets", "label"),
        ("sets", "check_mask"),
        ("integrals", "__post_init__"),
        ("integrals", "__call__"),
        ("countable", "weight"),
        ("countable", "tail"),
        ("countable", "uniform_finite_measure"),
        ("countable", "block_key"),
        ("countable", "__post_init__"),
        ("countable", "__call__"),
        ("countable", "indicator"),
        ("countable", "unit_prefix"),
        ("countable", "dyadic_partitions"),
        ("countable", "continuity_from_below_countable"),
        ("countable", "monotone_convergence_countable"),
        ("convergence", "generate_sequences"),
        ("cli", "_sequence_from_json"),
        ("cli", "_cmd_converge"),
        ("cli", "main"),
    }
    assert _calls("check_size") == sizes
    assert not _calls("int") & (checks | sizes)
    # and no bound of those is written out by hand beside the rule
    gone = (
        "states are numbered from 1",
        "tail index must be nonnegative",
        "m must be nonnegative",
        "need at least one state",
        "exceeds the limit",
        "out of range for a",
    )
    for path in (ROOT / "src" / "nonadd").glob("*.py"):
        text = path.read_text()
        assert not [m for m in gone if m in text], path.name


def test_each_value_and_mask_rule_has_one_site():
    # every constructor of an exact nonnegative object (function, weights,
    # measure) reads its values through sets.check_values, a capacity
    # through its converter, exact_values, and no module keeps a
    # converter of its own
    values = {
        ("capacity", "__post_init__"),  # ProbabilityMeasure's
        ("integrals", "__post_init__"),
        ("integrals", "scale"),
        ("integrals", "_positive"),
        ("countable", "__post_init__"),
    }
    assert _calls("check_values") == values
    named = _sites(
        lambda n: isinstance(n, ast.FunctionDef) and n.name == "_as_fraction"
    )
    assert not named
    # a caller's mask that indexes a 2**n table is range-checked by
    # sets.check_mask, the rule SubsetMask keeps
    masks = {
        ("sets", "__post_init__"),
        ("integrals", "indicator"),
        ("induced", "argmax_witness"),
        ("convergence", "counterexample_null_additivity"),
        ("convergence", "convexity_gap_witness"),
        ("capacity", "replay_convexity_violation"),
        ("capacity", "replay_null_additivity_violation"),
        ("integrals", "chain_restricted_value"),
        ("integrals", "fits_under"),
        ("integrals", "weight_against"),
        ("capacity", "mass"),
    }
    assert _calls("check_mask") == masks


def test_masks_are_read_and_built_at_one_site_each():
    # a mask's states are read by sets.states_of and a mask is built from
    # per-state flags by sets.mask_of; the low-bit peel x & -x stays only
    # there, in the two recurrences that index a smaller mask by it, in
    # the simplex's pricing scan and in the gen op's floor loop
    peels = _sites(
        lambda n: isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.BitAnd)
        and isinstance(n.right, ast.UnaryOp)
        and isinstance(n.right.op, ast.USub)
        and ast.dump(n.left) == ast.dump(n.right.operand)
    )
    assert peels == {
        ("sets", "states_of"),
        ("sets", "submasks"),
        ("sets", "max_member_table"),
        ("simplex", "solve_max"),
        ("convergence", "_random_monotone"),
    }
    assert _calls("states_of") == {
        ("sets", "__iter__"),  # SubsetMask's
        ("capacity", "mass"),
        ("integrals", "fits_under"),
        ("integrals", "balanced_cover"),  # an event's states, for its dual
        ("simplex", "solve_max"),
    }
    assert _calls("mask_of") == {
        ("capacity", "null_states_bits"),
        ("capacity", "check_null_additive"),
        ("integrals", "psp_integral"),
        ("integrals", "induced_psp_capacity"),
        ("convergence", "divergence_bits"),
    }
    # and every subset-sum table is built by sets.subset_sums, by doubling
    assert _calls("subset_sums") == {
        ("capacity", "mass_table"),
        ("integrals", "verify_dual_certificate"),
        ("integrals", "balanced_cover"),
        ("sets", "generated_algebra"),
    }


def test_values_are_scaled_at_one_site_per_owner():
    # a table or a function is put over one common denominator by
    # capacity._scale once, where its owner keeps it; the Choquet integral,
    # the witness replays, the expectations and the table scans read that
    assert _calls("_scale") == {
        ("capacity", "__post_init__"),  # Capacity's
        ("capacity", "_scaled"),  # ProbabilityMeasure's
        ("integrals", "_scaled"),  # SimpleFunction's
        ("countable", "_scaled"),  # EventuallyConstantFunction's
    }


def test_only_the_closed_form_integrals_skip_the_witness_check():
    # Decomposition._built keeps a witness unchecked: only the two integrals
    # that build theirs from checked parts call it; a caller's terms, and
    # an LP's support (replayed by _lp_integral), go through Decomposition(...)
    # CountablePartition._built keeps a layout unchecked: only
    # dyadic_partitions, whose runs partition the window by construction,
    # calls it; a caller's blocks go through CountablePartition(...)
    assert _calls("_built") == {
        ("integrals", "choquet_integral"),
        ("integrals", "psa_integral"),
        ("countable", "dyadic_partitions"),
    }


def test_a_capacity_table_is_read_and_checked_in_its_constructor():
    # Capacity.__post_init__ is the one site that scales a table and
    # checks the axioms, whether its values come as Fractions or as a
    # file's strings; capacity_from_obj builds only through Capacity(...),
    # so no table reaches a scan unchecked
    # (ProbabilityMeasure._scaled scales a measure's weights, not a table)
    scales = {s for s in _calls("_scale") if s[0] == "capacity"} - {("capacity", "_scaled")}
    assert scales == {("capacity", "__post_init__")}
    text = "".join(p.read_text() for p in (ROOT / "src" / "nonadd").glob("*.py"))
    for message in (
        "capacity of the empty set must be 0",
        "negative value at mask",
        "not monotone: v(",
    ):
        assert text.count(message) == 1, message
    tree = ast.parse((ROOT / "src" / "nonadd" / "jsonio.py").read_text())
    (reader,) = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "capacity_from_obj"
    ]
    called = {_name(n) for n in ast.walk(reader) if isinstance(n, ast.Call)}
    assert "Capacity" in called
    assert not called & {"_scale", "_first_step", "exact_values", "__new__", "__setattr__"}


def test_finite_verdicts_share_one_covering_pair_scan():
    # monotonicity, null-additivity, P-null-additivity and strong a.e.
    # convergence are each decided state by state by capacity._first_step,
    # and convexity by it on each state's marginal
    assert _calls("_first_step") == {
        ("capacity", "__post_init__"),  # Capacity's
        ("capacity", "check_monotone"),
        ("capacity", "check_convex"),
        ("capacity", "check_null_additive"),
        ("capacity", "check_P_null_additive"),
        ("convergence", "converges_strong_ae"),
    }
    # and density in closed form, block by block, with no 2**n table
    for table in ("subset_sums", "max_member_table", "_scale"):
        assert ("capacity", "check_dense") not in _calls(table)


def test_induce_does_not_re_decide_convexity():
    # an induced capacity is convex by construction (its Möbius mass is P(B)
    # on each block B), which test_induced pins; nothing in induced checks it
    assert not {site for site in _calls("check_convex") if site[0] == "induced"}


def test_capacity_file_keys_are_built_in_one_cached_helper():
    # the 2**n subset keys are built per n by jsonio._subset_keys alone,
    # and the reader and the writer both take them from it: a reused key
    # keeps its hash, so neither rebuilds nor rehashes 2**n strings a file
    assert _calls("_subset_keys") == {
        ("jsonio", "capacity_from_obj"),
        ("jsonio", "capacity_to_obj"),
    }
    str_maps = _sites(
        lambda n: isinstance(n, ast.Call) and _name(n) == "map" and _name(n.args[0]) == "str"
    )
    assert {s for s in str_maps if s[0] == "jsonio"} == {("jsonio", "_subset_keys")}
    for function in ("capacity_from_obj", "capacity_to_obj"):
        assert ("jsonio", function) not in _calls("str")


def test_jsonio_writes_through_the_stdlib_encoder_alone():
    # a file's text is json.dumps's indent text, made in dump: jsonio keeps
    # no encoder of its own
    assert {s for s in _calls("dumps") if s[0] == "jsonio"} == {("jsonio", "dump")}


def test_each_exact_input_has_one_reader():
    # a rational's text has one rule, compiled once in sets, and read by
    # frac_from_str from the library's value reader, a capacity file's
    # table and jsonio.rationals, the one reader of a list of rationals
    assigned = _sites(
        lambda n: isinstance(n, ast.Assign)
        and any(getattr(t, "id", None) == "_RATIONAL" for t in n.targets)
    )
    assert assigned == {("sets", None)}
    assert _calls("frac_from_str") == {
        ("sets", "exact_values"),
        ("jsonio", "capacity_from_obj"),
    }
    assert _calls("rationals") == {
        ("jsonio", "measure_from_obj"),
        ("jsonio", "function_from_obj"),
        ("jsonio", "family_from_obj"),
        ("cli", "function"),
    }
    # a capacity reads its values through exact_values and its sign from
    # the scaled table, so it converts each value once
    assert _calls("exact_values") == {
        ("sets", "check_values"),
        ("capacity", "__post_init__"),
    }
    tree = ast.parse((ROOT / "src" / "nonadd" / "capacity.py").read_text())
    (capacity,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "Capacity"
    ]
    called = {_name(n) for n in ast.walk(capacity) if isinstance(n, ast.Call)}
    assert "exact_values" in called and "check_values" not in called
    # the CLI reads each input file at one site, which records its digest
    assert _calls("load") == {("cli", "_read")}
    assert _calls("_digest") == {("cli", "_read"), ("cli", "_cmd_gen")}
