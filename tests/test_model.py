import math

import pytest

from sandgait.errors import ConfigurationError
from sandgait.model import (AnthropometricTable, Participant, SegmentRatios,
                            segment_parameters)


def test_participant_weight(participant):
    assert participant.weight == pytest.approx(74.5 * 9.81, rel=1e-12)


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
])
def test_participant_validation(kwargs):
    with pytest.raises(ConfigurationError):
        Participant(id="x", **kwargs)


def test_default_table_segments(table):
    for segment in ("foot", "shank", "thigh", "hat"):
        assert segment in table


def test_table_rejects_out_of_range_fraction():
    with pytest.raises(ConfigurationError, match="mass_fraction"):
        AnthropometricTable({"foot": SegmentRatios(1.5, 0.5, 0.5)})


def test_table_rejects_mass_sum_over_one():
    ratios = {f"s{i}": SegmentRatios(0.3, 0.5, 0.5) for i in range(4)}
    with pytest.raises(ConfigurationError, match="sum"):
        AnthropometricTable(ratios)


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
