import dataclasses
import logging

import numpy as np
import pytest

from sandgait import metrics
from sandgait.dynamics import JOINTS
from sandgait.errors import FitError
from sandgait.forces import default_calibration_curve
from sandgait.ingest import GrfData, TrialMeta, TrialRecord
from sandgait.pipeline import analyze_trial
from sandgait.synth import stride_profile, synthesize_gait


@pytest.fixture(scope="module")
def stride():
    return synthesize_gait(stride_profile())


def _trial(res, **kw):
    return TrialRecord(meta=res.meta, markers=res.markers, grf=res.grf, **kw)


def _stance_rms_errors(res, out):
    """Plate-side moment error over the trimmed stance windows, as a
    fraction of the truth RMS (the measure of acceptance criterion 2)."""
    t = res.marker_time
    inside = np.zeros(len(t), dtype=bool)
    for a, b in res.stance_windows:
        inside |= (t >= a + 0.05) & (t <= b - 0.05)
    mass = res.meta.participant.mass
    errs = {}
    for joint in JOINTS:
        est = out.moments[out.plate_side].normalized[joint][inside]
        tru = res.truth_moments[out.plate_side][joint][inside] / mass
        errs[joint] = (np.sqrt(np.mean((est - tru) ** 2))
                       / np.sqrt(np.mean(tru ** 2)))
    return errs


class TestSand:
    def test_buried_plate_moments_match_truth(self, stride):
        # a plate under 14 cm of sand reads F_z * zeta(14) with the same
        # COP, so its plate-origin moment is cop x F of the buried force
        depth = 14.0
        force = stride.grf.force.copy()
        force[:, 2] *= default_calibration_curve().zeta_at(depth)
        cop3 = np.column_stack([stride.grf.cop, np.zeros(len(stride.grf))])
        buried = GrfData(time=stride.grf.time, force=force,
                         moment=np.cross(cop3, force), cop=stride.grf.cop)
        meta = TrialMeta(participant=stride.meta.participant, terrain="sand",
                         sand_depth=depth)
        out = analyze_trial(TrialRecord(meta=meta, markers=stride.markers,
                                        grf=buried))
        for joint, err in _stance_rms_errors(stride, out).items():
            assert err < 0.01, f"{joint}: {100 * err:.2f}% RMS"


class TestMarkerGap:
    def test_unfilled_gap_stays_local(self):
        # a gap longer than max_gap_frames is left NaN; only the frames
        # whose filter windows reach it lose their moments
        res = synthesize_gait(dataclasses.replace(stride_profile(),
                                                  duration=6.0))
        markers = res.markers.copy()
        markers.pos["R-knee"][100:110] = np.nan
        out = analyze_trial(TrialRecord(meta=res.meta, markers=markers,
                                        grf=res.grf))
        nan = np.flatnonzero(np.isnan(out.moments["right"].moment_y["knee"]))
        np.testing.assert_array_equal(nan, np.arange(96, 114))
        assert out.stiffness is not None


class TestStiffnessCatch:
    def test_gait_error_becomes_warning(self, stride, monkeypatch):
        def fail(*args, **kwargs):
            raise FitError("degenerate fit")
        monkeypatch.setattr(metrics, "knee_stiffness", fail)
        out = analyze_trial(_trial(stride))
        assert out.stiffness is None
        assert "knee stiffness not computed: degenerate fit" in out.warnings

    def test_other_errors_propagate(self, stride, monkeypatch, caplog):
        def fail(*args, **kwargs):
            raise ZeroDivisionError("a bug, not bad data")
        monkeypatch.setattr(metrics, "knee_stiffness", fail)
        with caplog.at_level(logging.WARNING), \
                pytest.raises(ZeroDivisionError, match="a bug"):
            analyze_trial(_trial(stride))
        assert not any("stiffness" in r.getMessage() for r in caplog.records)
