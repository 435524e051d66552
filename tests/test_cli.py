"""Command-line interface: verbs, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from rootspin import (
    RootSystem, build_preset, identify, root_system_to_json,
    signature, vec,
)
from rootspin import cli, induction, roots
from rootspin.classify import survey
from rootspin.cli import _COMMANDS, _build_parser, main
from rootspin.presets import get_preset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoots:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "roots", "--preset", "A1xA1xA1", "--format", "text")
        assert code == 0
        assert "# A1xA1xA1: 6 roots, dim 3, disc 1" in out
        assert "(0, 0, 1)" in out

    def test_json_output_loads(self, capsys):
        code, out, _ = run(capsys, "roots", "--preset", "a3", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 3

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "roots.json"
        code, out, _ = run(
            capsys, "roots", "--preset", "B3", "--format", "json", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["disc"] == 2

    def test_preset_names_case_insensitive(self, capsys):
        code, out, _ = run(capsys, "roots", "--preset", "i2-6", "--format", "text")
        assert code == 0 and "12 roots" in out


class TestInduce:
    def test_sixteen_cell_listing(self, capsys):
        code, out, _ = run(
            capsys, "induce", "--preset", "A1xA1xA1", "--format", "text"
        )
        assert code == 0
        body = [l for l in out.splitlines() if l.startswith("(")]
        assert len(body) == 8
        assert "(1, 0, 0, 0)" in body and "(0, 0, 0, -1)" in body

    def test_dim2_input_routes_to_planar_induction(self, capsys):
        code, out, _ = run(capsys, "induce", "--preset", "I2-3", "--format", "text")
        assert code == 0
        assert "6 roots, dim 2" in out

    def test_from_file(self, capsys, tmp_path):
        src = tmp_path / "h3.json"
        src.write_text(root_system_to_json(build_preset("H3")))
        code, out, _ = run(capsys, "induce", "--input", str(src), "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 121

    def test_simple_roots_from_file_induce_all_120(self, capsys, tmp_path):
        # three roots are not reflection-closed: the induction closes them first
        simple = RootSystem(get_preset("H3").simple_roots, disc=5, label="h3-simple")
        src = tmp_path / "h3-simple.json"
        src.write_text(root_system_to_json(simple))
        code, out, _ = run(capsys, "induce", "--input", str(src), "--format", "text")
        assert code == 0
        assert out.startswith("# induced(h3-simple): 120 roots, dim 4, disc 5\n")
        assert [l for l in out.splitlines() if l.startswith("(")] == [
            str(r) for r in build_preset("H4").roots
        ]


class TestVerify:
    def test_valid_system(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "H3")
        assert code == 0
        assert "axiom1 (scalar multiples): pass" in out
        assert "axiom2 (reflection closure): pass" in out

    def test_planted_defect_reports_failure_with_exit_zero(self, capsys, tmp_path):
        doc = json.loads(root_system_to_json(build_preset("A1xA1xA1")))
        # plant a scalar multiple of the first root
        doubled = [[[2 * an, ad, 2 * bn, bd] for an, ad, bn, bd in doc["roots"][0]]]
        doc["roots"] = doc["roots"] + doubled
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--input", str(bad))
        assert code == 0
        assert "axiom1 (scalar multiples): FAIL" in out


class TestClassify:
    def test_preset(self, capsys):
        code, out, _ = run(capsys, "classify", "--preset", "A3")
        assert code == 0
        assert "identified: A3" in out
        assert "coxeter order: 24" in out

    def test_round_trip_matches_in_process(self, capsys, tmp_path):
        rs = build_preset("B3")
        path = tmp_path / "b3.json"
        code, out, _ = run(
            capsys, "roots", "--preset", "B3", "--format", "json", "--output", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        assert f"identified: {identify(signature(rs))}" in out

    def test_a_non_reduced_input_counts_every_root(self, capsys, tmp_path):
        # (1, 0) and (2, 0) are two roots on one ray: an angle key keeps both
        rs = RootSystem([vec(s * a, 0) for s in (1, -1) for a in (1, 2)]
                        + [vec(0, 1), vec(0, -1)], disc=1)
        path = tmp_path / "non-reduced.json"
        path.write_text(root_system_to_json(rs))
        code, out, err = run(capsys, "classify", "--input", str(path))
        assert code == 0 and err == ""
        assert out.splitlines()[1:3] == [
            "signature: dim 2, 6 roots, 3 distinct inner products, components [4, 2]",
            "identified: unrecognized",
        ]

    def test_a_set_with_wide_squared_cosines_stops_at_the_coxeter_order(self, capsys, tmp_path):
        # its signature's keys pass 64 bits; a set that is not reflection-closed
        # has no Coxeter order, so classify prints the lines before it and stops there
        a, b = vec(100003, 99991, 0), vec(99989, 7, 0)
        path = tmp_path / "four.json"
        path.write_text(root_system_to_json(RootSystem([a, -a, b, -b], disc=1)))
        code, out, err = run(capsys, "classify", "--input", str(path))
        assert code == 2 and out.splitlines() == [
            "label: input",
            "signature: dim 3, 4 roots, 3 distinct inner products, components [4]",
            "identified: unrecognized",
        ]
        assert err == (
            "rootspin: RootspinError: RootSystem(?, dim=3, disc=1, |roots|=4) is not "
            "reflection-closed at root (-100003, -99991, 0); run verify_root_axioms\n"
        )

    def test_classify_reads_an_induced_file(self, capsys, tmp_path):
        # the H3 -> H4 path as two commands, the second reading the first's file
        path = tmp_path / "h4.json"
        code, out, _ = run(
            capsys, "induce", "--preset", "H3", "--format", "json", "--output", str(path)
        )
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        assert out.splitlines() == [
            "label: induced(H3)",
            "signature: dim 4, 120 roots, 8 distinct inner products, components [120]",
            "identified: H4",
            "coxeter order: 14400",
        ]

    def test_classify_reads_the_demo_file(self, capsys):
        # demos/f4_induced.json is written by the persistence demo, which runs first
        demos = Path(__file__).resolve().parent.parent / "demos"
        runpy.run_path(str(demos / "demo_persistence_and_classification.py"))
        capsys.readouterr()
        code, out, _ = run(capsys, "classify", "--input", str(demos / "f4_induced.json"))
        assert code == 0
        assert out.splitlines() == [
            "label: induced(B3)",
            "signature: dim 4, 48 roots, 6 distinct inner products, components [48]",
            "identified: F4",
            "coxeter order: 1152",
        ]

    @pytest.mark.parametrize("source", ["--preset", "--input"])
    def test_one_lattice_per_classify(self, capsys, monkeypatch, tmp_path, source, fresh_lattices):
        from rootspin.lattice import Lattice

        path = tmp_path / "h4.json"
        path.write_text(root_system_to_json(build_preset("H4")))
        argv = ["classify", source, "H4" if source == "--preset" else str(path)]
        assert run(capsys, *argv)[0] == 0  # warms the catalog and the preset
        built = []
        real = Lattice.__init__

        def counted(self, *args):
            built.append(len(args[0]))
            real(self, *args)

        monkeypatch.setattr(Lattice, "__init__", counted)
        assert run(capsys, *argv)[0] == 0
        # the cached preset keeps the Lattice its first run built; a file is read anew
        assert built == ([] if source == "--preset" else [120])


class TestSelfDual:
    def test_g2_instance(self, capsys):
        code, out, _ = run(capsys, "selfdual", "6")
        assert code == 0
        assert out == "I2-6: self-dual (12 roots <-> 12 spinors)\n"

    def test_one_lattice_per_set(self, capsys, monkeypatch, fresh_lattices):
        # the first run builds the preset's Lattice, for its reflection table, and the
        # induced set's, for its axiom check; the cached preset keeps both, and its
        # stored induced set, so a second run builds none
        from rootspin.lattice import Lattice

        assert run(capsys, "selfdual", "6")[0] == 0  # warms the preset
        built = []
        real = Lattice.__init__

        def counted(self, *args):
            built.append(len(args[0]))
            real(self, *args)

        monkeypatch.setattr(Lattice, "__init__", counted)
        assert run(capsys, "selfdual", "6")[0] == 0
        assert built == []

    def test_unrealizable_is_domain_error(self, capsys):
        code, _, err = run(capsys, "selfdual", "5")
        assert code == 2
        assert "NotRepresentable" in err

    @pytest.mark.parametrize("value", ["1_2", "+6", "\u0666", "6.0", "abc"])
    def test_index_must_be_ascii_digits(self, capsys, value):
        # int() reads all of these; "1_2" would be I2(12), "\u0666" (Arabic-Indic 6) I2(6)
        code, out, err = run(capsys, "selfdual", value)
        assert code == 1 and out == ""
        assert f"argument n: invalid integer value: {value!r}" in err

    def test_index_zero_is_domain_error(self, capsys):
        code, out, err = run(capsys, "selfdual", " 0 ")
        assert code == 2 and out == ""
        assert err == "rootspin: NotRepresentable: I2(0) needs n >= 2\n"

    def test_negative_index_is_domain_error(self, capsys):
        code, out, err = run(capsys, "selfdual", "-3")
        assert code == 2 and out == ""
        assert err == "rootspin: NotRepresentable: I2(-3) needs n >= 2\n"
        code, out, err = run(capsys, "roots", "--preset", "I2--3")
        assert code == 1 and out == ""
        assert err == "rootspin: error: unknown preset 'I2--3'\n"


class TestSurvey:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "survey")
        assert code == 0
        assert "H3" in out and "H4" in out and "absent" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "survey", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "input,dim,root_count,spinor_order,induced_name,axioms_ok"

    def test_off_rejected(self, capsys):
        code, _, err = run(capsys, "survey", "--format", "off")
        assert code == 1

    @pytest.mark.parametrize("fmt", ["json", "off"])
    def test_an_unsupported_format_is_refused_before_the_survey_runs(self, capsys, fmt):
        before = survey.cache_info()
        code, out, err = run(capsys, "survey", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("rootspin survey: error: argument --format: invalid choice: "
                       f"'{fmt}' (choose from 'text', 'csv')\n")
        assert survey.cache_info() == before  # neither a hit nor a miss: never called


class TestExitCodes:
    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "roots")
        assert code == 1

    def test_both_sources_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(root_system_to_json(build_preset("A3")))
        code, _, err = run(capsys, "roots", "--preset", "A3", "--input", str(path))
        assert code == 1

    def test_infinite_rotor_group_is_domain_error(self, capsys, tmp_path):
        mirrors = [vec(1, 0, 0), vec(Fraction(3, 5), Fraction(4, 5), 0), vec(0, 0, 1)]
        path = tmp_path / "infinite.json"
        path.write_text(root_system_to_json(RootSystem(mirrors + [-m for m in mirrors], disc=1)))
        code, out, err = run(capsys, "induce", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("rootspin: OverflowError: reflection closure overflowed")
        assert "likely generates an infinite group" in err

    def test_unknown_preset_is_usage_error(self, capsys):
        code, _, err = run(capsys, "roots", "--preset", "E8")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("roots", "--preset", "I2-x"),
            ("roots", "--preset", "I2-<n>"),
            ("classify", "--preset", "A1xI2-y"),
            # int() would read each of these as a number; only ASCII digits count
            ("roots", "--preset", "I2-1_2"),
            ("roots", "--preset", "I2-+6"),
            ("roots", "--preset", "I2- 6"),
            ("roots", "--preset", "A1xI2-\u0664"),
        ],
    )
    def test_non_integer_dihedral_index_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"rootspin: error: unknown preset '{argv[2]}'\n"

    @pytest.mark.parametrize("name,canon", [("I2-6", "I2-6"), ("i2(6)", "I2-6"),
                                            ("A1xI2-4", "A1xI2-4")])
    def test_dihedral_spellings_resolve(self, capsys, name, canon):
        code, out, _ = run(capsys, "roots", "--preset", name, "--format", "text")
        assert code == 0
        assert out.startswith(f"# {canon}: ")

    @pytest.mark.parametrize("name", ["I2-5", "I2-1"])
    def test_unrealizable_dihedral_is_domain_error(self, capsys, name):
        code, out, err = run(capsys, "roots", "--preset", name)
        assert code == 2 and out == ""
        assert err.startswith("rootspin: NotRepresentable: ")

    def test_unknown_verb_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "roots", "--input", "/nonexistent/file.json")
        assert code == 2

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("this is not json")
        code, _, err = run(capsys, "roots", "--input", str(garbage))
        assert code == 2

    def test_cap_override_trips_closure(self, capsys, preset_cap):
        preset_cap(7)
        code, _, err = run(capsys, "roots", "--preset", "H3")
        assert code == 2
        assert "ClosureCapExceeded" in err

    def test_cap_bounds_the_h4_preset(self, capsys, preset_cap):
        preset_cap(119)
        code, out, err = run(capsys, "roots", "--preset", "H4")
        assert code == 2 and out == ""
        assert err == "rootspin: ClosureCapExceeded: reflection closure exceeded cap of 119 roots\n"
        preset_cap(120)
        code, out, _ = run(capsys, "roots", "--preset", "H4")
        assert code == 0
        assert out.startswith("# H4: 120 roots")

    def test_rotor_cap_abort_is_domain_error(self, capsys, monkeypatch, fresh_lattices):
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 119)
        # a fresh H3 with an empty registry has no stored induced set, so the products run
        monkeypatch.setattr(cli, "build_preset", build_preset.__wrapped__)
        code, out, err = run(capsys, "induce", "--preset", "H3")
        assert code == 2 and out == ""
        assert err == "rootspin: ClosureCapExceeded: rotor group exceeded cap of 119 elements\n"


@pytest.fixture
def preset_cap(monkeypatch):
    """Sets the reflection cap of the preset builds the CLI runs, past build_preset's cache."""
    def set_cap(cap: int) -> None:
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", cap)
    monkeypatch.setattr(cli, "build_preset", build_preset.__wrapped__)
    return set_cap


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1_00", "+100", "\u0661\u0660\u0660"])
class TestCapValidation:
    def test_bad_cap_option_is_usage_error(self, capsys, value):
        # no verb takes --cap: any value, valid as a cap or not, is refused
        code, out, err = run(capsys, "roots", "--preset", "H4", "--cap", value)
        assert (code, out) == (1, "")
        assert err.endswith(f"rootspin: error: unrecognized arguments: --cap {value}\n")
        assert "Traceback" not in err


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "induce", "--preset", "H3", "--format", "json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_off_vertex_count_matches(self, capsys):
        code, out, _ = run(capsys, "roots", "--preset", "D4", "--format", "off")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "OFF" and lines[1] == "24 0 0"
        assert len(lines) == 26


class _Reads:
    """An args namespace that records the names a handler reads."""

    def __init__(self, values: dict):
        self._values, self.read = values, set()

    def __getattr__(self, name):
        self.read.add(name)
        return self._values[name]


@pytest.mark.parametrize("argv", [
    ["roots", "--preset", "A3"],
    ["export", "--preset", "A3"],
    ["induce", "--preset", "A3"],
    ["verify", "--preset", "A3"],
    ["classify", "--preset", "A3"],
    ["selfdual", "4"],
    ["survey"],
], ids=lambda argv: argv[0])
def test_a_verb_takes_exactly_the_options_its_handler_reads(capsys, argv):
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest for a in verbs.choices[argv[0]]._actions if a.dest != "help"}
    args = _Reads(vars(parser.parse_args(argv)))
    assert _COMMANDS[argv[0]](args) == 0
    capsys.readouterr()
    assert args.read == options


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "F4", "--format", "json"],
    ["classify", "--preset", "F4", "--format", "json"],
    ["selfdual", "4", "--format", "csv"],
    ["survey", "--cap", "3"],
], ids=" ".join)
def test_an_option_the_verb_does_not_read_is_refused(capsys, argv):
    err = f"rootspin: error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    assert run(capsys, *argv) == (1, "", err)


_QUAD = [1, 1, 0, 1]
_MALFORMED = {
    "top-level list": [1, 2],
    "top-level null": None,
    "roots not a list": {"version": 1, "dim": 3, "disc": 1, "roots": 5},
    "no version": {"dim": 1, "disc": 1, "roots": [[_QUAD]]},
    "dim as string": {"version": 1, "dim": "1", "disc": 1, "roots": [[_QUAD]]},
    "dim as bool": {"version": 1, "dim": True, "disc": 1, "roots": [[_QUAD]]},
    "dim too large": {"version": 1, "dim": 5, "disc": 1, "roots": [[_QUAD] * 5]},
    "dim zero": {"version": 1, "dim": 0, "disc": 1, "roots": [[]]},
    "disc not square-free": {"version": 1, "dim": 1, "disc": 4, "roots": [[_QUAD]]},
    "disc negative": {"version": 1, "dim": 1, "disc": -2, "roots": [[_QUAD]]},
    "disc float": {"version": 1, "dim": 1, "disc": 2.0, "roots": [[_QUAD]]},
    "disc too large": {"version": 1, "dim": 1, "disc": 10000000000037, "roots": [[_QUAD]]},
    "root not a list": {"version": 1, "dim": 1, "disc": 1, "roots": [7]},
    "wrong coordinate count": {"version": 1, "dim": 2, "disc": 1, "roots": [[_QUAD]]},
    "short quad": {"version": 1, "dim": 1, "disc": 1, "roots": [[[1, 1, 0]]]},
    "float in quad": {"version": 1, "dim": 1, "disc": 1, "roots": [[[1.5, 1, 0, 1]]]},
    "string in quad": {"version": 1, "dim": 1, "disc": 1, "roots": [[["1", 1, 0, 1]]]},
    "zero rational denominator": {"version": 1, "dim": 1, "disc": 1, "roots": [[[1, 0, 0, 1]]]},
    "zero surd denominator": {"version": 1, "dim": 1, "disc": 2, "roots": [[[1, 1, 1, 0]]]},
    "provenance not an object": {
        "version": 1, "dim": 1, "disc": 1, "provenance": 5, "roots": [[_QUAD]],
    },
    "no roots": {"version": 1, "dim": 1, "disc": 1, "roots": []},
    "label a number": {"version": 1, "dim": 1, "disc": 1, "label": 5, "roots": [[_QUAD]]},
    "label a list": {"version": 1, "dim": 1, "disc": 1, "label": ["x"], "roots": [[_QUAD]]},
    "provenance value a number": {
        "version": 1, "dim": 1, "disc": 1, "provenance": {"preset": 7}, "roots": [[_QUAD]],
    },
}


@pytest.mark.parametrize("verb", ["verify", "classify", "induce"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_document_is_domain_error(capsys, tmp_path, case, verb):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_MALFORMED[case]))
    code, out, err = run(capsys, verb, "--input", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and err.startswith("rootspin: ")


def test_deeply_nested_file_is_domain_error(capsys, tmp_path):
    # json.loads gives up on this with a RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "roots", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "rootspin: RootspinError: root-system file is nested too deeply to parse\n"


@pytest.mark.parametrize("content, message", [
    (b'{"version":1,"dim":1,"disc":' + b"9" * 5000 + b',"roots":[[[1,1,0,1]]]}',
     "root-system file has an integer of more than 4300 digits"),
    (b'{"version":1,"dim":1,"disc":1,"roots":[[[1,1,0',
     "root-system file is not valid JSON: Expecting ',' delimiter: line 1 column 47 (char 46)"),
    (b'{"version":1,"dim":1,"label":"\xe9","disc":1,"roots":[[[1,1,0,1]]]}',
     "root-system file is not UTF-8 text (invalid continuation byte at offset 30)"),
], ids=["long integer", "truncated", "latin-1"])
def test_an_unreadable_file_is_a_rootspin_error(capsys, tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "roots", "--input", str(path))
    assert (code, out, err) == (2, "", f"rootspin: RootspinError: {message}\n")


@pytest.mark.parametrize("fields", [
    # a root of 900 nested lists, inside json.loads' limit
    '"roots":[' + "[" * 900 + "]" * 900 + "]",
    '"roots":' + json.dumps([[_QUAD] * 3000]),  # a root with 3000 coordinates
    '"roots":[[[1,1,0,1]]],"provenance":{"' + "k" * 3000 + '":7}',  # a long provenance key
], ids=["nested", "long", "key"])
def test_a_long_offending_value_is_echoed_as_a_short_prefix(capsys, tmp_path, fields):
    path = tmp_path / "bad.json"
    path.write_text('{"version":1,"dim":1,"disc":1,' + fields + "}")
    code, out, err = run(capsys, "roots", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("rootspin: RootspinError: ") and "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 200
    assert "..." in err


def test_a_short_offending_value_is_echoed_whole(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_MALFORMED["short quad"]))
    code, _, err = run(capsys, "roots", "--input", str(path))
    assert code == 2
    assert err == ("rootspin: RootspinError: coordinate [1, 1, 0] is not four integers "
                   "[a_num, a_den, b_num, b_den]\n")


# -- no numpy, no dataclasses, only the verb's own modules ----------------------

ROOT = Path(__file__).resolve().parent.parent

# dataclasses and the modules it imports; a bare interpreter may load some of them
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# runs the CLI as `python -m rootspin` would (with the one argument `import`,
# only `import rootspin`; with none, nothing: a bare interpreter), then reports
# which of _HEAVY, whether numpy and which rootspin submodules were loaded
_PROBE = (
    "import runpy, sys\n"
    "sys.argv = ['rootspin'] + sys.argv[1:]\n"
    "try:\n"
    "    if sys.argv[1:] == ['import']:\n"
    "        import rootspin\n"
    "    elif sys.argv[1:]:\n"
    "        runpy.run_module('rootspin', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    f"    print('loaded:', sorted(m for m in {_HEAVY!r} if m in sys.modules), file=sys.stderr)\n"
    "    print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
    "    print(' '.join(sorted(m for m in sys.modules if m.startswith('rootspin.'))),\n"
    "          file=sys.stderr)\n"
)

_VERBS = pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--preset", "H4"],
        ["induce", "--preset", "H3"],
        ["verify", "--preset", "F4"],
        ["survey"],
    ],
    ids=" ".join,
)


@lru_cache(maxsize=None)
def _probe(*argv: str) -> tuple[str, str, set[str]]:
    """The probe's findings for a fresh process running the CLI on argv.

    The heavy-module line, the numpy line and the set of rootspin submodules.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    heavy, numpy, modules = proc.stderr.split("\n")[-4:-1]
    return heavy, numpy, set(modules.split())


@_VERBS
def test_fresh_cli_process_never_loads_numpy(argv):
    assert _probe(*argv)[1] == "numpy loaded: False"


@_VERBS
def test_fresh_cli_process_loads_no_dataclasses(argv):
    heavy = _probe(*argv)[0]
    assert heavy.startswith("loaded: [")
    assert heavy == _probe()[0]


def test_a_bare_import_loads_no_submodule():
    assert _probe("import")[2] == set()


_BASE = {"rootspin." + m for m in ("caps", "cli", "errors", "lattice", "presets", "qfield", "roots")}


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--preset", "F4"], _BASE),
    (["classify", "--preset", "B3"], _BASE | {"rootspin.classify"}),
    (["induce", "--preset", "A3"], _BASE | {"rootspin.induction", "rootspin.serialize"}),
    (["selfdual", "4"], _BASE | {"rootspin.induction"}),
    (["survey"], _BASE | {"rootspin.classify", "rootspin.induction"}),
], ids=["verify", "classify", "induce", "selfdual", "survey"])
def test_fresh_cli_process_loads_only_the_modules_its_verb_runs(argv, expected):
    assert _probe(*argv)[2] == expected


def test_classifying_a_file_loads_the_reader_but_not_the_induction(tmp_path):
    path = tmp_path / "b3.json"
    path.write_text(root_system_to_json(build_preset("B3")))
    loaded = _probe("classify", "--input", str(path))[2]
    assert "rootspin.serialize" in loaded
    assert not loaded & {"rootspin.clifford", "rootspin.induction"}


def _files_importing(module: str, *dirs: str) -> list[str]:
    pattern = re.compile(rf"^\s*(import|from)\s+{module}\b", re.MULTILINE)
    files = [f for d in dirs for f in sorted((ROOT / d).rglob("*.py"))]
    assert files
    return [str(f) for f in files if pattern.search(f.read_text())]


def test_no_source_or_test_file_imports_numpy():
    assert _files_importing("numpy", "src", "tests") == []


def test_no_source_file_imports_dataclasses():
    assert _files_importing("dataclasses", "src") == []
