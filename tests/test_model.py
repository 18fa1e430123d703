import math

import pytest

from sandgait.errors import ConfigurationError
from sandgait.model import (AnthropometricTable, Participant, SegmentRatios,
                            segment_parameters)


def test_participant_json_round_trip(participant):
    doc = participant.to_json()
    assert doc == {"id": "p01", "height_m": 1.75, "mass_kg": 74.5}
    assert Participant.from_json(doc) == participant


@pytest.mark.parametrize("kwargs", [
    dict(height=0.0, mass=70.0),
    dict(height=-1.7, mass=70.0),
    dict(height=1.7, mass=0.0),
    dict(height=1.7, mass=-5.0),
    dict(height=math.inf, mass=70.0),
    dict(height=1.7, mass=math.nan),
    dict(height=True, mass=70.0),
    dict(height=1.7, mass=10 ** 400),
])
def test_participant_validation(kwargs):
    with pytest.raises(ConfigurationError):
        Participant(id="x", **kwargs)


@pytest.mark.parametrize("pid", [None, True, 0, [1], ""])
def test_participant_id_is_a_non_empty_string(pid):
    # str() would make "None", "True", "0" and "[1]" ids, and two bundles
    # with a null id one participant
    with pytest.raises(ConfigurationError,
                       match="participant id must be a non-empty string"):
        Participant.from_json({"id": pid, "height_m": 1.7, "mass_kg": 70})


def test_participant_stores_floats():
    # a participant built in Python is held to the meta.json rules
    p = Participant(id="x", height="1.7", mass=70)
    assert (p.height, p.mass) == (1.7, 70.0)
    assert type(p.height) is float and type(p.mass) is float


def test_default_table_segments(table):
    assert set(table.ratios) >= {"foot", "shank", "thigh", "hat"}


def test_table_rejects_out_of_range_fraction():
    with pytest.raises(ConfigurationError, match="mass_fraction"):
        AnthropometricTable({"foot": SegmentRatios(1.5, 0.5, 0.5)})


def test_table_rejects_mass_sum_over_one():
    ratios = {f"s{i}": SegmentRatios(0.3, 0.5, 0.5) for i in range(4)}
    with pytest.raises(ConfigurationError, match="sum"):
        AnthropometricTable(ratios)


@pytest.mark.parametrize("rows, message", [
    ("foot 0.0145 0.50 0.475\nshank 0.0465 0.433 1.302\n",
     "gyration_fraction for segment 'shank' must lie in (0, 1), got 1.302"),
    ("foot 0.05 0.5 0.475\nshank 0.15 0.433 0.302\nthigh 0.35 0.433 0.323\n"
     "hat 0.40 0.626 0.496\n", "mass fractions sum to 1.5000 > 1 (foot, "
     "shank and thigh count twice, once per leg)"),
    ("foot 0.0145 0.50 0.475\nhat 0.678 0.626 0.496\n",
     "no row for segment(s) shank, thigh"),
], ids=["gyration_over_one", "two_leg_mass", "no_shank_or_thigh"])
def test_table_from_file_names_path(tmp_path, rows, message):
    path = tmp_path / "t.txt"
    path.write_text(rows)
    with pytest.raises(ConfigurationError) as exc:
        AnthropometricTable.from_file(path)
    assert str(exc.value) == f"{path}: anthropometric table: {message}"


def test_table_repeated_segment_names_both_lines(tmp_path):
    # a second row for a segment would replace the first
    path = tmp_path / "t.txt"
    path.write_text("foot 0.0145 0.50 0.475\nshank 0.0465 0.433 0.302\n"
                    "# again\nfoot 0.0145 0.40 0.475\n")
    with pytest.raises(ConfigurationError) as exc:
        AnthropometricTable.from_file(path)
    assert str(exc.value) == f"{path}:4: segment 'foot': already on line 1"


def test_table_missing_segment(table):
    with pytest.raises(ConfigurationError, match="torso"):
        table["torso"]


def test_table_from_file_errors(tmp_path):
    bad = tmp_path / "t.txt"
    bad.write_text("foot 0.0145 0.50\n")
    with pytest.raises(ConfigurationError, match=":1:"):
        AnthropometricTable.from_file(bad)
    bad.write_text("# only comments\n")
    with pytest.raises(ConfigurationError, match="no segment rows"):
        AnthropometricTable.from_file(bad)


def test_segment_parameters_arithmetic(participant, table):
    # hand-scaled against the table row for the shank:
    # fractions 0.0465 / 0.433 / 0.302
    params = segment_parameters(participant, table, {"shank": 0.4})
    p = params["shank"]
    assert p.mass == pytest.approx(0.0465 * 74.5, rel=1e-12)
    assert p.length == 0.4
    assert p.com_offset == pytest.approx(0.433 * 0.4, rel=1e-12)
    gyr = 0.302 * 0.4
    assert p.inertia == pytest.approx(0.0465 * 74.5 * gyr * gyr, rel=1e-12)


def test_segment_parameters_rejects_bad_length(participant, table):
    with pytest.raises(ConfigurationError):
        segment_parameters(participant, table, {"foot": 0.0})
    with pytest.raises(ConfigurationError):
        segment_parameters(participant, table, {"foot": math.nan})
