"""Exact JSON persistence and the float export formats."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootspin import (
    Provenance,
    QScalar,
    RootSystem,
    Vector,
    RootspinError,
    build_preset,
    induce_4d,
    load_root_system,
    root_system_from_json,
    root_system_to_json,
    save_root_system,
    signature,
    to_csv,
    to_off,
    to_text,
)

ALL_SYSTEMS = [
    "A1xA1xA1", "A3", "B3", "H3", "I2-3", "I2-4", "I2-6", "I2-8", "A1xI2-6",
    "D4", "F4", "H4",
]


class TestJson:
    @pytest.mark.parametrize("name", ALL_SYSTEMS)
    def test_round_trip_is_bit_identical(self, name):
        rs = build_preset(name)
        dumped = root_system_to_json(rs)
        again = root_system_from_json(dumped)
        assert again == rs
        assert again.label == rs.label
        assert root_system_to_json(again) == dumped

    def test_round_trip_of_induced_system(self):
        induced = induce_4d(build_preset("B3"))
        dumped = root_system_to_json(induced)
        again = root_system_from_json(dumped)
        assert root_system_to_json(again) == dumped
        assert again.provenance.induced_from == "B3"
        assert signature(again) == signature(induced)

    def test_schema_fields(self):
        doc = json.loads(root_system_to_json(build_preset("H3")))
        assert doc["version"] == 1
        assert doc["dim"] == 3
        assert doc["disc"] == 5
        assert len(doc["roots"]) == 30
        # each coordinate is the quadruple [a_num, a_den, b_num, b_den]
        assert all(len(c) == 4 for root in doc["roots"] for c in root)

    def test_version_guard(self):
        doc = json.loads(root_system_to_json(build_preset("A3")))
        doc["version"] = 99
        with pytest.raises(RootspinError):
            root_system_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field",
        [{"label": 5}, {"label": ["x"]}, {"label": None}, {"provenance": {"preset": 7}},
         {"provenance": {"induced-from": ["x"]}}],
        ids=["label-int", "label-list", "label-null", "preset-int", "induced-from-list"],
    )
    def test_label_and_provenance_values_must_be_strings(self, field):
        # the writer only ever writes strings there, and they are written back verbatim
        doc = json.loads(root_system_to_json(build_preset("A3")))
        doc.update(field)
        with pytest.raises(RootspinError, match="must be a string"):
            root_system_from_json(json.dumps(doc))

    def test_file_io(self, tmp_path):
        rs = build_preset("A3")
        path = tmp_path / "a3.json"
        save_root_system(rs, path)
        assert load_root_system(path) == rs


@st.composite
def named_systems(draw):
    """Random root sets over Q(sqrt(d)), d in {1, 2, 3, 5}, with a label and a Provenance."""
    disc = draw(st.sampled_from((1, 2, 3, 5)))
    dim = draw(st.integers(1, 4))
    part = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    coord = st.builds(lambda a, b: QScalar(a, b if disc > 1 else 0, disc), part, part)
    vectors = draw(st.lists(
        st.lists(coord, min_size=dim, max_size=dim).map(Vector).filter(lambda v: not v.is_zero()),
        min_size=1, max_size=8,
    ))
    # empty strings are not written, so a name is either absent or non-empty
    name = st.none() | st.text(min_size=1, max_size=12)
    provenance = draw(st.builds(Provenance, name, name, name))
    return RootSystem(vectors, disc=disc, label=draw(name), provenance=provenance)


@given(named_systems())
def test_json_round_trip_of_random_systems(rs):
    dumped = root_system_to_json(rs)
    again = root_system_from_json(dumped)
    assert again == rs
    assert (again.label, again.provenance) == (rs.label, rs.provenance)
    assert root_system_to_json(again) == dumped


class TestFloatExports:
    def test_off_header_and_count(self):
        rs = build_preset("H3")
        lines = to_off(rs).splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "30 0 0"
        assert len(lines) == 32
        assert all(len(line.split()) == 3 for line in lines[2:])

    def test_off_values_are_floats_of_exact_coords(self):
        rs = build_preset("A1xA1xA1")
        body = to_off(rs).splitlines()[2:]
        values = {tuple(float(x) for x in line.split()) for line in body}
        assert (1.0, 0.0, 0.0) in values

    def test_csv_shape(self):
        rs = build_preset("I2-4")
        lines = to_csv(rs).splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 9
        floats = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert (1.0, 0.0) in floats

    def test_csv_17_digit_rendering(self):
        rs = build_preset("H3")
        text = to_csv(rs)
        assert "0.80901699437494745" in text  # phi/2 as binary64

    def test_text_lists_every_root(self):
        rs = build_preset("A3")
        lines = to_text(rs).splitlines()
        assert lines[0].startswith("# A3:")
        assert len(lines) == 13
