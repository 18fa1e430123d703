import dataclasses
import json
import logging

import numpy as np
import pytest

from sandgait import kinematics, metrics
from sandgait.dynamics import JOINTS
from sandgait.errors import ConfigurationError, FitError
from sandgait.forces import default_calibration_curve
from sandgait.ingest import (GrfData, TrialMeta, TrialRecord, parse_trial,
                             write_grf_file, write_marker_file)
from sandgait.pipeline import RunConfig, analyze_trial, write_bundle
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

    def test_fx_flag_is_the_first_warning(self, stride):
        meta = TrialMeta(participant=stride.meta.participant, terrain="sand",
                         sand_depth=14.0)
        out = analyze_trial(TrialRecord(meta=meta, markers=stride.markers,
                                        grf=stride.grf))
        assert out.warnings[0].startswith("fx passed through uncalibrated")


class TestSmoothingPasses:
    def test_one_moving_average_call_per_window(self, stride, monkeypatch):
        # the leg chain and pelvis markers at filter_window, the heels and
        # toes at event_filter_window, the GRF at grf_smooth_window: a
        # stage that filters again adds a call
        windows = []
        original = kinematics.moving_average

        def counting(x, window):
            windows.append(window)
            return original(x, window)

        monkeypatch.setattr(kinematics, "moving_average", counting)
        analyze_trial(_trial(stride))
        cfg = RunConfig()
        assert sorted(windows) == sorted([cfg.filter_window,
                                          cfg.event_filter_window,
                                          cfg.grf_smooth_window])


class TestNoPlateStance:
    def test_zero_grf_skips_stance_outputs(self, stride, tmp_path):
        zero = dataclasses.replace(stride.grf,
                                   force=np.zeros_like(stride.grf.force),
                                   moment=np.zeros_like(stride.grf.moment))
        out = analyze_trial(TrialRecord(meta=stride.meta,
                                        markers=stride.markers, grf=zero))
        assert ("no plate-loaded stance found; GRF features skipped"
                in out.warnings)
        assert out.grf_stance == {} and out.moment_stance == {}
        assert out.grf_features is None
        write_bundle(out, tmp_path)
        assert not (tmp_path / "grf_stance.csv").exists()
        assert not (tmp_path / "moments_stance.csv").exists()
        assert (tmp_path / "moments.csv").exists()


class TestConfigFile:
    def test_accepted_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "calibration": "curve.csv", "anthropometry": None,
            "filter_window": 1, "max_gap_frames": 0,
            "plate_threshold_bw": 0, "gravity": 10}))
        cfg = RunConfig.from_file(path)
        assert (cfg.calibration, cfg.filter_window, cfg.gravity) == \
            ("curve.csv", 1, 10)

    @pytest.mark.parametrize("doc, message", [
        ({"marker_schema": 3}, "marker_schema must be a path string or null"),
        ({"gravity": "9.81"}, "gravity must be a number"),
        ({"min_swing_s": 0}, "min_swing_s must be > 0"),
        ({"hs_forward_speed": float("nan")}, "hs_forward_speed must be > 0"),
        ({"grf_smooth_window": -1}, "grf_smooth_window must be odd and >= 1"),
        ({"max_gap_frames": 2.0}, "max_gap_frames must be an integer"),
        ({"gravity": float("inf")}, "gravity must be finite"),
    ], ids=["path_number", "gravity_text", "zero_swing", "nan_speed",
            "negative_window", "float_gap", "infinite_gravity"])
    def test_rejected_values_name_path_and_key(self, tmp_path, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value).startswith(f"{path}: {message}, got ")


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


class TestDroppedMomentLog:
    MESSAGE = "dropped non-sagittal ground moment"

    def test_firm_trial_from_csv_logs_nothing(self, tmp_path, caplog):
        # a COP with more than 9 decimals leaves a rounding residue of
        # ~1e-7 N m in M - cop x F once the GRF file is read back
        res = synthesize_gait(dataclasses.replace(
            stride_profile(), hip_half_width=0.1 * 1.69 / 1.72))
        write_marker_file(tmp_path / "markers.csv", res.markers)
        write_grf_file(tmp_path / "grf.csv", res.grf)
        trial = parse_trial(tmp_path / "markers.csv", tmp_path / "grf.csv",
                            res.meta)
        with caplog.at_level(logging.INFO, logger="sandgait.pipeline"):
            analyze_trial(trial)
        assert self.MESSAGE not in caplog.text

    def test_off_plane_moment_logged(self, stride, caplog):
        moment = stride.grf.moment.copy()
        moment[:, 0] += 1.0
        grf = dataclasses.replace(stride.grf, moment=moment)
        with caplog.at_level(logging.INFO, logger="sandgait.pipeline"):
            analyze_trial(TrialRecord(meta=stride.meta, markers=stride.markers,
                                      grf=grf))
        assert "max |M_x|,|M_z| = 1.000 N m" in caplog.text


class TestBundleNumbers:
    def test_moments_cells_are_9g(self, stride, tmp_path):
        out = analyze_trial(_trial(stride))
        special = [np.nan, np.inf, -np.inf, -0.0, 1e-300]
        for side in ("left", "right"):
            for values in (out.moments[side].moment_y,
                           out.moments[side].normalized):
                for joint in JOINTS:
                    values[joint] = values[joint].copy()
                    values[joint][:len(special)] = special
        write_bundle(out, tmp_path)
        lines = (tmp_path / "moments.csv").read_text().splitlines()
        assert lines[1] == ("time,side,ankle_nm,knee_nm,hip_nm,"
                            "ankle_nmkg,knee_nmkg,hip_nmkg")
        rows = [line.split(",") for line in lines[2:]]
        # one row per frame and side, left first
        assert len(rows) == 2 * len(out.time)
        assert [r[1] for r in rows[:4]] == ["left", "right", "left", "right"]
        for k, row in enumerate(rows):
            side = row[1]
            m = out.moments[side]
            want = [out.time[k // 2]] \
                + [m.moment_y[j][k // 2] for j in JOINTS] \
                + [m.normalized[j][k // 2] for j in JOINTS]
            want = ["nan" if np.isnan(v) else f"{v:.9g}" for v in want]
            assert row[:1] + row[2:] == want
        assert rows[0][2:5] == ["nan", "nan", "nan"]
        assert rows[2][2] == "inf" and rows[4][2] == "-inf"
        assert rows[6][2] == "-0" and rows[8][2] == "1e-300"
