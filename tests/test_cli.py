"""Command-line behaviour: exit codes, exact output, parsing."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from treeideals import (
    Monomial,
    ParseError,
    Polynomial,
    UnboundSymbol,
    build_tree,
    membership,
)
from treeideals.cli import (
    build_parser,
    parse_point,
    parse_polynomial,
    parse_tree_definition,
    parse_tree_document,
    render_tree_document,
    run_command,
)
from conftest import FIXTURE_DIR, FIXTURE_NAMES, GENERATED_TREES, fixture_text, load_fixture

FIG1_T1 = str(FIXTURE_DIR / "fig1_t1.json")
FIG1_T2 = str(FIXTURE_DIR / "fig1_t2.json")
FIG2_T1 = str(FIXTURE_DIR / "fig2_t1.json")
FIG2_T2 = str(FIXTURE_DIR / "fig2_t2.json")
FIG2_T3 = str(FIXTURE_DIR / "fig2_t3.json")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def member_point(tmp_path):
    path = tmp_path / "member.txt"
    path.write_text("1/12 1/6 1/4 1/12 1/6 1/4\n")
    return str(path)


@pytest.fixture
def outside_point(tmp_path):
    path = tmp_path / "outside.txt"
    path.write_text("1/2 1/10 1/10 1/10 1/10 1/10\n")
    return str(path)


@pytest.fixture
def leaf_root(tmp_path):
    """A tree whose root is its only vertex and so its only atom."""
    path = tmp_path / "leaf_root.json"
    path.write_text(json.dumps({"root": "r", "vertices": [{"id": "r"}]}))
    return str(path)


class TestExitCodes:
    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_broken_json_is_a_usage_error(self, capsys, tmp_path):
        doc = tmp_path / "broken.json"
        doc.write_text("{not json")
        code, _, err = run(capsys, "validate", str(doc))
        assert code == 2
        assert "line 1, column 2" in err

    def test_unknown_field_is_a_usage_error(self, capsys, tmp_path):
        doc = tmp_path / "extra.json"
        doc.write_text(json.dumps({"root": "r", "vertices": [], "colour": 3}))
        code, _, err = run(capsys, "validate", str(doc))
        assert code == 2
        assert "unknown field 'colour'" in err

    def test_invalid_tree_is_a_domain_failure(self, capsys, tmp_path):
        doc = tmp_path / "invalid.json"
        doc.write_text(json.dumps({
            "root": "r",
            "vertices": [{"id": "r", "edges": [
                {"to": "a", "label": "x"}, {"to": "b", "label": "x"},
            ]}],
        }))
        code, out, _ = run(capsys, "validate", str(doc))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "invalid"
        assert any(line.startswith("duplicate-edge-label:") for line in lines[1:])

    def test_invalid_tree_blocks_other_commands(self, capsys, tmp_path):
        doc = tmp_path / "invalid.json"
        doc.write_text(json.dumps({
            "root": "r",
            "vertices": [{"id": "r", "edges": [
                {"to": "a", "label": "x"}, {"to": "b", "label": "x"},
            ]}],
        }))
        code, _, err = run(capsys, "generators", str(doc))
        assert code == 1
        assert err.startswith("error:")

    def test_label_named_like_a_default_atom_is_invalid(self, capsys, tmp_path):
        doc = tmp_path / "p1.json"
        doc.write_text(json.dumps({
            "root": "r",
            "vertices": [{"id": "r", "edges": [
                {"to": "a", "label": "p1"}, {"to": "b", "label": "y"},
            ]}],
        }))
        code, out, _ = run(capsys, "validate", str(doc))
        assert code == 1
        assert out.splitlines() == [
            "invalid",
            "atom-names-collision: atom name 'p1' collides with an edge label",
        ]

    def test_non_utf8_tree_is_a_usage_error(self, capsys, tmp_path):
        doc = tmp_path / "utf16.json"
        doc.write_bytes(b'\xff\xfe{"root": "r"}')
        code, out, err = run(capsys, "validate", str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "utf16.json: not UTF-8" in err

    def test_deeply_nested_document_is_a_usage_error(self, capsys, tmp_path):
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "validate", str(doc))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: document is nested too deeply"]

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_command(["frobnicate", FIG1_T2])
        assert info.value.code == 2
        capsys.readouterr()


class TestValidate:
    def test_valid_summary(self, capsys):
        code, out, _ = run(capsys, "validate", FIG1_T2)
        assert code == 0
        assert out.splitlines() == [
            "valid",
            "vertices: 9",
            "atoms: 6",
            "stage classes: 2",
        ]

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "validate", FIG1_T2, "--json")
        assert code == 0
        assert json.loads(out) == {
            "valid": True, "vertices": 9, "atoms": 6, "stage_classes": 2,
        }


class TestAtoms:
    def test_depth_first_listing_with_name_override(self, capsys):
        code, out, _ = run(capsys, "atoms", FIG1_T1)
        assert code == 0
        assert out.splitlines() == [
            "1 p1 = tau0*theta0  [v0 v1 l1]",
            "2 p4 = tau0*theta1  [v0 v1 l4]",
            "3 p2 = tau1*theta0  [v0 v2 l2]",
            "4 p5 = tau1*theta1  [v0 v2 l5]",
            "5 p3 = tau2*theta0  [v0 v3 l3]",
            "6 p6 = tau2*theta1  [v0 v3 l6]",
        ]

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "atoms", FIG2_T3, "--json")
        assert code == 0
        data = json.loads(out)
        assert data[0] == {
            "index": 1, "name": "p1", "labels": "theta0^2",
            "path": ["v0", "v1", "l1"],
        }


class TestGenerators:
    def test_model_ideal_lines(self, capsys):
        code, out, _ = run(capsys, "generators", FIG1_T2, "--ideal", "model")
        assert code == 0
        assert out.splitlines() == [
            "p2*p4 + p3*p4 - p1*p5 - p1*p6",
            "p2*p4 - p1*p5 - p3*p5 + p2*p6",
            "p3*p4 + p3*p5 - p1*p6 - p2*p6",
        ]

    def test_default_ideal_is_the_model_ideal(self, capsys):
        _, with_flag, _ = run(capsys, "generators", FIG1_T2, "--ideal", "model")
        _, default, _ = run(capsys, "generators", FIG1_T2)
        assert default == with_flag

    def test_mpaths_with_provenance(self, capsys):
        code, out, _ = run(
            capsys, "generators", FIG1_T2, "--ideal", "mpaths", "--provenance"
        )
        assert code == 0
        assert out.splitlines() == [
            "p2*p4 - p1*p5",
            "  from: stage pair (v1, v2), labels (tau0, tau1), "
            "seed (l1->l5, l4->l2), maximal (l1->l5, l4->l2)",
            "p3*p4 - p1*p6",
            "  from: stage pair (v1, v2), labels (tau0, tau2), "
            "seed (l1->l6, l4->l3), maximal (l1->l6, l4->l3)",
            "p3*p5 - p2*p6",
            "  from: stage pair (v1, v2), labels (tau1, tau2), "
            "seed (l2->l6, l5->l3), maximal (l2->l6, l5->l3)",
        ]

    def test_paths_ideal_selectable(self, capsys):
        code, out, _ = run(capsys, "generators", FIG1_T2, "--ideal", "paths")
        assert code == 0
        assert out.splitlines() == [
            "p2*p4 - p1*p5",
            "p3*p4 - p1*p6",
            "p3*p5 - p2*p6",
        ]


class TestToric:
    def test_failure_report(self, capsys):
        code, out, _ = run(capsys, "toric", FIG2_T3)
        assert code == 0
        assert out.splitlines() == [
            "not toric",
            "all stages are positions: no",
            "checked pairs: 1",
            "failure: stage pair (v0, v1), aligned labels (theta0, theta1) "
            "[indices 1,2]: difference theta0 + theta1 - 1",
        ]

    def test_success_report_as_json(self, capsys):
        code, out, _ = run(capsys, "toric", FIG1_T1, "--json")
        assert code == 0
        assert json.loads(out) == {
            "toric": True,
            "all_same_position": True,
            "checked_pairs": 3,
            "failures": [],
        }


class TestDimAndPositions:
    def test_dimension_lines(self, capsys):
        code, out, _ = run(capsys, "dim", FIG2_T2)
        assert code == 0
        assert out.splitlines() == [
            "dimension: 6",
            "sum over stage classes of (arity - 1): 6",
            "edges - internal vertices - identification overlap: 6",
        ]

    def test_position_classes(self, capsys):
        code, out, _ = run(capsys, "positions", FIG2_T1)
        assert code == 0
        assert out.splitlines() == [
            "position: v0",
            "position: v1 v2",
            "position: v3 v5",
            "position: v4 v6",
        ]


class TestMembership:
    def test_member_point(self, capsys, member_point):
        code, out, _ = run(
            capsys, "membership", FIG1_T2, "--point", member_point
        )
        assert code == 0
        assert out.splitlines() == [
            "in simplex: yes",
            "invariants vanish: yes",
            "member: yes",
        ]

    def test_nonmember_point(self, capsys, outside_point):
        code, out, _ = run(
            capsys, "membership", FIG1_T2, "--point", outside_point
        )
        assert code == 1
        assert out.splitlines() == [
            "in simplex: yes",
            "invariants vanish: no",
            "member: no",
            "failure: p2*p4 + p3*p4 - p1*p5 - p1*p6 = -2/25",
            "failure: p2*p4 - p1*p5 - p3*p5 + p2*p6 = -1/25",
            "failure: p3*p4 + p3*p5 - p1*p6 - p2*p6 = -1/25",
        ]

    def test_one_atom_model_contains_its_sample(self, capsys, tmp_path, leaf_root):
        code, sampled, _ = run(capsys, "sample", leaf_root)
        assert code == 0
        assert sampled == "1\n"
        point = tmp_path / "one.txt"
        point.write_text(sampled)
        code, out, _ = run(capsys, "membership", leaf_root, "--point", str(point))
        assert code == 0
        assert out.splitlines() == [
            "in simplex: yes",
            "invariants vanish: yes",
            "member: yes",
        ]

    def test_bad_point_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1/2 oops")
        code, _, err = run(capsys, "membership", FIG1_T2, "--point", str(path))
        assert code == 2
        assert "bad rational 'oops'" in err

    def test_exponent_in_a_point_is_refused_at_once(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1/2 1e300000000")
        start = time.perf_counter()
        code, out, err = run(capsys, "membership", FIG1_T2, "--point", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "bad rational '1e300000000'" in err

    def test_non_utf8_point_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "point.txt"
        path.write_bytes(b"\xff\xfe1/2 1/2")
        code, out, err = run(capsys, "membership", FIG1_T2, "--point", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "point.txt: not UTF-8" in err


class TestSample:
    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "sample", FIG1_T2, "--seed", "5")
        _, second, _ = run(capsys, "sample", FIG1_T2, "--seed", "5")
        assert first == second

    def test_count_runs_consecutive_seeds(self, capsys):
        _, block, _ = run(capsys, "sample", FIG1_T2, "--seed", "5", "--count", "2")
        _, shifted, _ = run(capsys, "sample", FIG1_T2, "--seed", "6")
        assert block.splitlines()[1] == shifted.splitlines()[0]

    def test_negative_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_command(["sample", FIG1_T2, "--count", "-3"])
        assert info.value.code == 2
        assert "--count: must be nonnegative, got -3" in capsys.readouterr().err

    def test_samples_are_members(self, capsys):
        t = load_fixture("fig1_t2")
        _, out, _ = run(capsys, "sample", FIG1_T2, "--seed", "1", "--count", "3")
        for line in out.splitlines():
            point = [Fraction(tok) for tok in line.split()]
            assert sum(point) == 1
            assert membership(t, point).member


class TestExport:
    def test_m2_with_annotations(self, capsys):
        code, out, _ = run(
            capsys, "export", FIG1_T1, "--format", "m2",
            "--ideal", "model", "--annotate",
        )
        assert code == 0
        assert out.splitlines() == [
            "-- stage class 0: v0 (labels tau0 tau1 tau2)",
            "-- stage class 1: v1 v2 v3 (labels theta0 theta1)",
            "R = QQ[p1,p4,p2,p5,p3,p6];",
            "Imodel = ideal(",
            "  p4*p2 - p1*p5,",
            "  p4*p3 - p1*p6,",
            "  p5*p3 - p2*p6",
            ");",
        ]

    def test_m2_empty_ideal(self, capsys, tmp_path):
        doc = tmp_path / "tiny.json"
        doc.write_text(json.dumps({
            "root": "r",
            "vertices": [{"id": "r", "edges": [
                {"to": "a", "label": "u"}, {"to": "b", "label": "w"},
            ]}],
        }))
        code, out, _ = run(capsys, "export", str(doc), "--format", "m2")
        assert code == 0
        assert out.splitlines() == [
            "R = QQ[p1,p2];",
            "Imodel = ideal 0_R;",
        ]

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "export", FIG2_T3, "--format", "text", "--annotate"
        )
        assert code == 0
        assert out.splitlines() == [
            "# stage class 0: v0 v1 (labels theta0 theta1)",
            "ring: p1 p2 p3",
            "ideal model (1 generators):",
            "p1*p2 + p2^2 - p1*p3",
        ]

    def test_tree_format_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export", FIG2_T1, "--format", "tree")
        assert code == 0
        rewritten = tmp_path / "copy.json"
        rewritten.write_text(out)
        code, again, _ = run(capsys, "export", str(rewritten), "--format", "tree")
        assert code == 0
        assert again == out

    def test_tree_format_keeps_a_leaf_root(self, capsys, tmp_path, leaf_root):
        code, out, _ = run(capsys, "export", leaf_root, "--format", "tree")
        assert code == 0
        assert json.loads(out)["vertices"] == [{"id": "r", "edges": []}]
        rewritten = tmp_path / "copy.json"
        rewritten.write_text(out)
        code, valid, _ = run(capsys, "validate", str(rewritten))
        assert code == 0
        assert valid.splitlines()[0] == "valid"
        code, again, _ = run(capsys, "export", str(rewritten), "--format", "tree")
        assert code == 0
        assert again == out

    def test_render_parse_round_trip(self, any_tree):
        text = render_tree_document(any_tree)
        again = parse_tree_document(text)
        assert render_tree_document(again) == text
        assert again.signature == any_tree.signature


class TestLazyCompile:
    """Compiling a tree, the commands that need no generator set, the
    toricity test and the generator sets do no polynomial arithmetic."""

    @pytest.mark.parametrize("argv", [
        ["validate"], ["atoms"], ["dim"], ["sample"], ["positions"],
        ["export", "--format", "tree"], ["toric"],
        *(pytest.param(["generators", "--ideal", ideal], id=f"generators-{ideal}")
          for ideal in ("model", "paths", "mpaths")),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_no_polynomial_arithmetic(self, capsys, monkeypatch, name, argv):
        def forbidden(*args):
            raise AssertionError("polynomial arithmetic")

        for op in ("__add__", "__radd__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(Polynomial, op, forbidden)
        path = str(FIXTURE_DIR / f"{name}.json")
        code, _, _ = run(capsys, argv[0], path, *argv[1:])
        assert code == 0

    @pytest.mark.parametrize("name", FIXTURE_NAMES + sorted(GENERATED_TREES))
    def test_compile_builds_no_monomial(self, monkeypatch, name):
        def forbidden(*args):
            raise AssertionError("monomial built")

        definition = None
        if name not in GENERATED_TREES:
            definition = parse_tree_definition(fixture_text(name))
        monkeypatch.setattr(Monomial, "__init__", forbidden)
        t = build_tree(definition) if definition else GENERATED_TREES[name]()
        assert t.n_atoms == len(t.leaves)


def run_fresh(*argv):
    """Exit code, stdout and stderr of the CLI in a new interpreter.

    The package's src directory comes first on its path, so the module
    runs with or without an install.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "treeideals.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return result.returncode, result.stdout, result.stderr


class TestSharedParser:
    """run_command parses with one parser per process; no parsed value
    carries over from one call to the next."""

    def test_ideal_default_after_an_explicit_ideal(self, capsys):
        _, paths, _ = run(capsys, "generators", FIG1_T2, "--ideal", "paths")
        _, default, _ = run(capsys, "generators", FIG1_T2)
        _, model, _ = run(capsys, "generators", FIG1_T2, "--ideal", "model")
        assert default == model != paths

    def test_seed_default_after_an_explicit_seed(self, capsys):
        _, seven, _ = run(capsys, "sample", FIG1_T2, "--seed", "7")
        _, default, _ = run(capsys, "sample", FIG1_T2)
        _, one, _ = run(capsys, "sample", FIG1_T2, "--seed", "1")
        assert default == one != seven

    def test_usage_error_leaves_the_parser_intact(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_command(["sample", FIG1_T2, "--count", "-3"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ["sample", FIG1_T2, "--json"]
        assert run(capsys, *argv) == run_fresh(*argv)

    def test_parser_built_once(self, capsys, monkeypatch):
        run(capsys, "validate", FIG1_T2)
        built = 0
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (["validate"], ["atoms"], ["sample", "--seed", "3"]):
            code, _, _ = run(capsys, argv[0], FIG1_T2, *argv[1:])
            assert code == 0
        assert built == 0

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


class TestPolynomialText:
    def test_rejects_bad_characters(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(ParseError):
            parse_polynomial("p1 @ p2", t.table)

    def test_rejects_zero_denominator(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(ParseError):
            parse_polynomial("1/0 * p1", t.table)

    def test_rejects_bad_exponent(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(ParseError):
            parse_polynomial("p1^x", t.table)

    def test_rejects_trailing_operator(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(ParseError):
            parse_polynomial("p1 +", t.table)

    def test_unknown_symbol(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(UnboundSymbol):
            parse_polynomial("q7", t.table)

    def test_point_parsing(self):
        assert parse_point("1/2  1/3\n1/6") == [
            Fraction(1, 2), Fraction(1, 3), Fraction(1, 6),
        ]

    def test_point_forms(self):
        assert parse_point("3 -2 +1/4 0.25 .5 5. -0.125") == [
            3, -2, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), 5, Fraction(-1, 8),
        ]

    @pytest.mark.parametrize("tok", [
        "1e3", "1E-2", "2.5e1", "1/2e3", "1_000", "inf", "nan", "0x10", "1/-2", ".", "1/0",
        "\uff11",
    ])
    def test_point_rejects_other_forms(self, tok):
        with pytest.raises(ParseError, match="bad rational"):
            parse_point(f"1/2 {tok}")


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        code, out, _ = run_fresh("validate", FIG1_T2)
        assert code == 0
        assert out.splitlines()[0] == "valid"
