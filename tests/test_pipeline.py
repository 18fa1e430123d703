import dataclasses
import json
import logging

import numpy as np
import pytest

from sandgait import gaitseg, kinematics, metrics, pipeline
from sandgait.dynamics import JOINTS
from sandgait.errors import (ConfigurationError, FitError,
                             InsufficientDataError)
from sandgait.forces import default_calibration_curve, with_vertical_force
from sandgait.gaitseg import C_TO, HS, NEXT_HS, cycle_table, phase_normalize
from sandgait.ingest import TrialMeta, TrialRecord, align_streams
from sandgait.pipeline import (RunConfig, analyze_trial, bundle_scalars,
                               write_bundle)
from sandgait.schema import MarkerSchema
from sandgait.synth import standing_profile, stride_profile, synthesize_gait


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
        # COP and free couple
        depth = 14.0
        buried = with_vertical_force(
            stride.grf, stride.grf.force[:, 2]
            * default_calibration_curve().zeta_at(depth))
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

    def test_one_pitch_per_segment(self, stride, monkeypatch):
        # segment_states returns the pitches it differentiates and the
        # joint angles read those: one call per leg, for its three segments
        calls = []
        original = kinematics.pitch_angle

        def counting(e):
            calls.append(np.shape(e))
            return original(e)

        monkeypatch.setattr(kinematics, "pitch_angle", counting)
        analyze_trial(_trial(stride))
        assert calls == [(len(stride.markers), 3, 2)] * 2

    def test_one_segment_states_call_per_leg(self, stride, monkeypatch):
        # each leg's hip, knee, ankle and toe chain, as labelled
        calls = []
        original = kinematics.segment_states

        def counting(chain, time, params, labels):
            calls.append((chain.shape, [p.mass for p in params], labels))
            return original(chain, time, params, labels)

        monkeypatch.setattr(kinematics, "segment_states", counting)
        analyze_trial(_trial(stride))
        n = len(stride.markers)
        assert [(shape, labels) for shape, _, labels in calls] == [
            ((n, 4, 3), ["L-hip", "L-knee", "L-ankle", "L-toe"]),
            ((n, 4, 3), ["R-hip", "R-knee", "R-ankle", "R-toe"])]
        # thigh, shank, foot: the thigh is the heaviest segment
        masses = calls[0][1]
        assert masses == calls[1][1] and masses == sorted(masses, reverse=True)


def test_pelvis_midpoint_average(stride, monkeypatch):
    # the whole-body COM lumps the residual mass at the [x, z] mean of the
    # smoothed pelvis markers
    schema = MarkerSchema.default()
    pelvis = schema.pelvis_labels()
    n = len(stride.markers)
    pos = dict(stride.markers.pos)
    for label in pelvis:
        pos[label] = np.tile([1.0, 0.0, 1.0], (n, 1))
    pos[pelvis[0]] = np.tile([3.0, 0.0, 1.0], (n, 1))
    markers = dataclasses.replace(stride.markers, pos=pos)
    mids = []
    original = kinematics.com_trajectory

    def capture(coms, masses, body_mass, pelvis_mid):
        mids.append(pelvis_mid)
        return original(coms, masses, body_mass, pelvis_mid)

    monkeypatch.setattr(kinematics, "com_trajectory", capture)
    analyze_trial(TrialRecord(meta=stride.meta, markers=markers,
                              grf=stride.grf))
    (mid,) = mids
    k = len(pelvis)
    assert mid.shape == (n, 2)
    np.testing.assert_allclose(mid[:, 0], (3.0 + (k - 1) * 1.0) / k,
                               atol=1e-12)
    np.testing.assert_allclose(mid[:, 1], 1.0, atol=1e-12)


class TestNoPlateStance:
    def test_zero_grf_skips_stance_outputs(self, stride, tmp_path):
        zero = dataclasses.replace(stride.grf,
                                   force=np.zeros_like(stride.grf.force),
                                   moment=np.zeros_like(stride.grf.moment))
        out = analyze_trial(TrialRecord(meta=stride.meta,
                                        markers=stride.markers, grf=zero))
        assert ("no plate-loaded stance found; GRF features skipped"
                in out.warnings)
        assert ("no plate-loaded cycle; knee stiffness and loop skipped"
                in out.warnings)
        assert out.grf_stance == {} and out.moment_stance == {}
        assert out.grf_features is None
        assert out.stiffness is None and out.knee_loop == {}
        write_bundle(out, tmp_path)
        assert not (tmp_path / "grf_stance.csv").exists()
        assert not (tmp_path / "moments_stance.csv").exists()
        assert not (tmp_path / "knee_loop.csv").exists()
        assert (tmp_path / "moments.csv").exists()


class TestPlateSide:
    """The plate side is the side whose ankle x lies nearer the COP x, by
    the median over the plate-loaded frames where the ankle is seen."""

    @pytest.mark.parametrize("hidden", [["R-ankle"], ["R-ankle", "L-ankle"]],
                             ids=["plate_ankle", "both_ankles"])
    def test_ankle_gap_at_the_force_peak(self, stride, hidden):
        # the ankles hidden for 11 frames around the aligned F_z peak, too
        # long to fill: the other loaded frames still place the plate
        plate, _ = align_streams(stride.markers, stride.grf)
        t_peak = stride.markers.time[np.nanargmax(plate[:, 1])]
        markers = stride.markers.copy()
        near = np.abs(markers.time - t_peak) <= 0.05 + 1e-9
        for label in hidden:
            markers.pos[label][near] = np.nan
        out = analyze_trial(TrialRecord(meta=stride.meta, markers=markers,
                                        grf=stride.grf))
        assert out.plate_side == "right"

    def test_no_ankle_on_a_loaded_frame(self, stride):
        plate, covered = align_streams(stride.markers, stride.grf)
        markers = stride.markers.copy()
        loaded = covered & (plate[:, 1] > 0)
        for label in ("L-ankle", "R-ankle"):
            markers.pos[label][loaded] = np.nan
        with pytest.raises(InsufficientDataError,
                           match="neither L-ankle nor R-ankle is seen"):
            pipeline._plate_load(plate, covered, markers,
                                 MarkerSchema.default(), 1.0)

    def test_standing_tie_goes_left(self):
        # both ankles stand at one x: the left, as before
        res = synthesize_gait(standing_profile())
        side, _, _ = pipeline._plate_load(
            *align_streams(res.markers, res.grf), res.markers,
            MarkerSchema.default(), 1.0)
        assert side == "left"


class TestPlateCycle:
    def test_knee_loop_and_stiffness_from_the_loaded_cycle(self):
        # the plate loads only the second right stance: the knee loop and
        # the stiffness come from that cycle, not from the first (unloaded)
        # one, and the loop's moment matches the truth within criterion
        # 2's 1% RMS
        res = synthesize_gait(dataclasses.replace(
            stride_profile(), stance_windows=[(1.596, 2.402)]))
        out = analyze_trial(_trial(res))
        assert out.plate_side == "right"
        table = cycle_table(out.events.right, out.events.left)
        hs, next_hs, c_to = table[1, [HS, NEXT_HS, C_TO]]
        assert abs(hs - 1.596) <= 0.01
        truth = phase_normalize(
            res.marker_time,
            res.truth_moments["right"]["knee"] / res.meta.participant.mass,
            (hs, next_hs)).values
        err = out.knee_loop["moment_nmkg"] - truth
        assert np.sqrt(np.mean(err ** 2)) < 0.01 * np.sqrt(np.mean(truth ** 2))
        t = out.time
        assert out.stiffness.k_flexion.n == np.count_nonzero(
            (t >= hs) & (t <= c_to))


class TestOneCycleTablePerSide:
    def test_two_tables_and_two_alternation_checks(self, stride, monkeypatch):
        # each side's table is built once and read by every cycle output;
        # alternation is checked once per SideEvents, when it is built
        calls = {"cycle_table": 0, "_check_alternation": 0}
        for name in calls:
            original = getattr(gaitseg, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(gaitseg, name, counting)
        analyze_trial(_trial(stride))
        assert calls == {"cycle_table": 2, "_check_alternation": 2}


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

    #: (doc, message) of each rejected value, by test id
    _REJECTED = [pytest.param(doc, message, id=name) for name, doc, message in [
        ("path_number", {"marker_schema": 3},
         "marker_schema must be a path string or null"),
        ("gravity_text", {"gravity": "9.81"}, "gravity must be a number"),
        ("zero_swing", {"min_swing_s": 0}, "min_swing_s must be > 0"),
        ("nan_speed", {"hs_forward_speed": float("nan")},
         "hs_forward_speed must be > 0"),
        ("negative_window", {"grf_smooth_window": -1},
         "grf_smooth_window must be odd and >= 1"),
        ("float_gap", {"max_gap_frames": 2.0},
         "max_gap_frames must be an integer"),
        ("infinite_gravity", {"gravity": float("inf")},
         "gravity must be finite"),
        ("empty_schema_path", {"marker_schema": ""},
         "marker_schema must name a file"),
        ("empty_table_path", {"anthropometry": ""},
         "anthropometry must name a file"),
        ("empty_curve_path", {"calibration": ""},
         "calibration must name a file"),
        ("negative_gap", {"max_gap_frames": -3},
         "max_gap_frames must be >= 0"),
        ("nan_threshold", {"plate_threshold_bw": float("nan")},
         "plate_threshold_bw must be >= 0"),
        ("even_window", {"filter_window": 4},
         "filter_window must be odd and >= 1"),
        ("huge_gravity", {"gravity": 10 ** 400}, "gravity must be finite"),
    ]]

    @pytest.mark.parametrize("doc, message", _REJECTED)
    def test_rejected_values_name_path_and_key(self, tmp_path, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError) as exc:
            RunConfig.from_file(path)
        assert str(exc.value).startswith(f"{path}: {message}, got ")

    @pytest.mark.parametrize("doc, message", _REJECTED)
    def test_rejected_values_built_in_python(self, doc, message):
        # a config built in code is held to the rules a config file is
        with pytest.raises(ConfigurationError) as exc:
            RunConfig(**doc)
        assert str(exc.value).startswith(f"{message}, got ")


class TestInputsResolvedOnce:
    def test_one_resolution_per_config(self):
        # the hash and the schema come from one resolution, kept on the
        # frozen config; a replaced config resolves its own
        cfg = RunConfig()
        assert cfg.inputs is cfg.inputs
        assert cfg.config_hash() == cfg.inputs[0]
        assert cfg.load_schema() is cfg.inputs[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.calibration = "curve.csv"
        other = dataclasses.replace(cfg, filter_window=9)
        assert other.load_schema() is not cfg.load_schema()
        assert other.config_hash() != cfg.config_hash()


class TestMarkerGap:
    def test_tracking_markers_not_filled(self, stride, monkeypatch):
        # only the markers a stage reads reach the gap fill
        labels = []
        original = pipeline.fill_gaps

        def recording(markers, max_gap):
            labels.append(sorted(markers.pos))
            return original(markers, max_gap)

        monkeypatch.setattr(pipeline, "fill_gaps", recording)
        analyze_trial(_trial(stride))
        tracking = {"L-thigh", "R-thigh", "L-shank", "R-shank"}
        assert labels == [sorted(set(MarkerSchema.default().labels) - tracking)]

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

    def test_strides_without_com_named_once(self, stride, tmp_path):
        # L-asis hidden over frames 30-289, too long to fill: the pelvis
        # midpoint, so the COM, is NaN there and three strides hold no COM
        # frame.  Each reads NaN, with no numpy warning, and one meta.json
        # warning names them
        markers = stride.markers.copy()
        markers.pos["L-asis"][30:290] = np.nan
        out = analyze_trial(TrialRecord(meta=stride.meta, markers=markers,
                                        grf=stride.grf))
        no_com = [(row["side"], round(row["cycle_start_s"], 3))
                  for row in out.stride_rows
                  if np.isnan(row["com_variation"])]
        assert no_com == [("left", 1.0), ("right", 0.4), ("right", 1.6)]
        write_bundle(out, tmp_path / "b")
        warnings = json.loads((tmp_path / "b" / "meta.json").read_text())[
            "warnings"]
        assert [w for w in warnings if "COM" in w] == [
            "com_variation not computed for the strides with no finite COM "
            "frame: left from 1.000 s, right from 0.400 s, right from 1.600 s"]

    def test_curves_without_angle_named_once(self, stride, tmp_path):
        # R-knee hidden over frames 20-269, too long to fill: every right
        # angle curve of the first cycle is NaN, each peak reads NaN with
        # no numpy warning, and one meta.json warning names them
        markers = stride.markers.copy()
        markers.pos["R-knee"][20:270] = np.nan
        out = analyze_trial(TrialRecord(meta=stride.meta, markers=markers,
                                        grf=stride.grf))
        assert all(np.isnan(v) for v in out.peak_angles["right"].values())
        assert not any(np.isnan(v) for v in out.peak_angles["left"].values())
        # compare leaves the missing peaks out, naming them
        assert [k for k in bundle_scalars(out) if k.startswith("peak_")] == [
            f"peak_{joint}_left" for joint in ("hip", "knee", "ankle")]
        write_bundle(out, tmp_path / "b")
        warnings = json.loads((tmp_path / "b" / "meta.json").read_text())[
            "warnings"]
        assert [w for w in warnings if "peak" in w] == [
            "peak angle not computed for the cycle curves with no finite "
            "value: right hip, right knee, right ankle"]

    def test_strides_without_velocity_named_once(self, stride, tmp_path):
        # L-asis hidden over frames 150-169, too long to fill: the pelvis
        # midpoint is NaN at the right heel strike at 1.6 s, which ends one
        # right stride and starts the next, so both read NaN avg_velocity
        # and one meta.json warning names them
        markers = stride.markers.copy()
        markers.pos["L-asis"][150:170] = np.nan
        out = analyze_trial(TrialRecord(meta=stride.meta, markers=markers,
                                        grf=stride.grf))
        assert [(row["side"], round(row["cycle_start_s"], 3))
                for row in out.stride_rows
                if np.isnan(row["avg_velocity"])] == [("right", 0.4),
                                                      ("right", 1.6)]
        write_bundle(out, tmp_path / "b")
        warnings = json.loads((tmp_path / "b" / "meta.json").read_text())[
            "warnings"]
        assert [w for w in warnings if "stride" in w] == [
            "avg_velocity not computed for the strides whose first or last "
            "heel strike has no pelvis midpoint: right from 0.400 s, right "
            "from 1.600 s"]


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


class TestGroundWrench:
    """Inverse dynamics reads the plate's force and its moment about the
    plate origin; the COP is one description of that wrench among many."""

    @staticmethod
    def _bundle(stride, grf, out):
        write_bundle(analyze_trial(TrialRecord(
            meta=stride.meta, markers=stride.markers, grf=grf)), out)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_cop_moved_with_the_same_wrench(self, stride, tmp_path):
        cop = stride.grf.cop.copy()
        cop[:, 0] += 0.02
        moved = dataclasses.replace(stride.grf, cop=cop)
        assert (self._bundle(stride, moved, tmp_path / "moved")
                == self._bundle(stride, stride.grf, tmp_path / "recorded"))

    def test_off_plane_moment_reaches_no_output(self, stride, tmp_path):
        moment = stride.grf.moment.copy()
        moment[:, [0, 2]] += 1.0
        tilted = dataclasses.replace(stride.grf, moment=moment)
        assert (self._bundle(stride, tilted, tmp_path / "tilted")
                == self._bundle(stride, stride.grf, tmp_path / "recorded"))


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
