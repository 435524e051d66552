"""Command-line interface: verbs, formats, exit codes, determinism."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from rootspin import RootSystem, build_preset, identify, root_system_to_json, signature, vec
from rootspin.classify import catalog
from rootspin.cli import main


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


class TestSelfDual:
    def test_g2_instance(self, capsys):
        code, out, _ = run(capsys, "selfdual", "6")
        assert code == 0
        assert out == "I2-6: self-dual (12 roots <-> 12 spinors)\n"

    def test_unrealizable_is_domain_error(self, capsys):
        code, _, err = run(capsys, "selfdual", "5")
        assert code == 2
        assert "NotRepresentable" in err


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
        assert err.startswith("rootspin: OverflowError: rotor closure overflowed")
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
        ],
    )
    def test_non_integer_dihedral_index_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"rootspin: error: \"unknown preset '{argv[2]}'\"\n"

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

    def test_cap_override_trips_closure(self, capsys):
        code, _, err = run(capsys, "roots", "--preset", "H3", "--cap", "7")
        assert code == 2
        assert "ClosureCapExceeded" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ROOTSPIN_CAP", "3")
        from rootspin import close_under_reflections, vec, ClosureCapExceeded

        with pytest.raises(ClosureCapExceeded):
            close_under_reflections([vec(1, -1, 0), vec(0, 1, -1), vec(0, 1, 1)], disc=2)


class TestClassifyUnderSmallCap:
    def test_only_the_candidates_are_closed(self, capsys, monkeypatch):
        # the 6-root input and its one catalog candidate fit under the cap
        monkeypatch.setenv("ROOTSPIN_CAP", "10")
        catalog.cache_clear()
        code, out, err = run(capsys, "classify", "--preset", "I2-3")
        assert code == 0 and err == ""
        assert "identified: I2-3\n" in out

    def test_a_candidate_over_the_cap_still_raises(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "a3.json"
        path.write_text(root_system_to_json(build_preset("A3")))
        monkeypatch.setenv("ROOTSPIN_CAP", "10")
        catalog.cache_clear()
        code, out, err = run(capsys, "classify", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("rootspin: ClosureCapExceeded: ")


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
class TestCapValidation:
    def test_bad_env_cap_is_domain_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ROOTSPIN_CAP", value)
        code, out, err = run(capsys, "roots", "--preset", "H4")
        assert code == 2 and out == ""
        assert err == (f"rootspin: DomainError: ROOTSPIN_CAP must be a positive integer, "
                       f"got {value!r}\n")

    def test_bad_cap_option_is_usage_error(self, capsys, value):
        code, out, err = run(capsys, "roots", "--preset", "H4", "--cap", value)
        assert code == 1 and out == ""
        assert f"argument --cap: invalid positive_int value: {value!r}" in err
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
