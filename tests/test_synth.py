import dataclasses
import math

import numpy as np
import pytest

from sandgait import synth
from sandgait.errors import ConfigurationError, GenerationError
from sandgait.model import (GRAVITY, AnthropometricTable, Participant,
                            segment_parameters)
from sandgait.schema import MarkerSchema
from sandgait.synth import (GaitProfile, LegAngles, Trig, standing_profile,
                            stride_profile, synthesize_gait)


class TestTrig:
    def test_derivatives_match_numeric(self):
        f = Trig(a0=0.3, rate=1.1, terms=((0.2, 1.5, 0.4), (0.05, 3.0, 1.0)))
        t = np.linspace(0.0, 2.0, 50)
        h = 1e-6
        d1_num = (f(t + h) - f(t - h)) / (2 * h)
        d2_num = (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
        np.testing.assert_allclose(f(t, order=1), d1_num, atol=1e-5)
        np.testing.assert_allclose(f(t, order=2), d2_num, atol=1e-3)

    def test_json_round_trip(self):
        f = Trig(a0=0.3, rate=1.1, terms=((0.2, 1.5, 0.4),))
        assert Trig.from_json(f.to_json()) == f

    @pytest.mark.parametrize("doc, message", [
        ({"terms": [[0.2, 1.5]]}, r"pelvis_x\.terms\[0\] must hold three"),
        ({"terms": [[0.2, math.nan, 0.4]]},
         r"pelvis_x\.terms\[0\]\[1\] must be finite, got nan"),
        ({"rate": math.inf}, r"pelvis_x\.rate must be finite, got inf"),
    ], ids=["two_values", "nan_frequency", "infinite_rate"])
    def test_from_json_names_the_key(self, doc, message):
        with pytest.raises(ConfigurationError, match=message):
            Trig.from_json(doc, "pelvis_x")


class TestProfile:
    def test_json_round_trip(self):
        p = stride_profile()
        assert GaitProfile.from_json(p.to_json()) == p

    def test_minimal_json_takes_dataclass_defaults(self):
        doc = {"participant": {"id": "p", "height_m": 1.7, "mass_kg": 70.0},
               "duration_s": 3.0,
               "legs": {"right": {"thigh_pitch": {"a0": 0.1},
                                  "knee_flexion": {}, "foot_pitch": {}}}}
        assert GaitProfile.from_json(doc) == GaitProfile(
            participant=Participant(id="p", height=1.7, mass=70.0),
            duration=3.0,
            legs={"right": LegAngles(Trig(a0=0.1), Trig(), Trig())})

    def test_save_load(self, tmp_path):
        p = standing_profile()
        p.save(tmp_path / "p.json")
        assert GaitProfile.load(tmp_path / "p.json") == p


class TestStanding:
    def test_static_markers_and_weight(self):
        res = synthesize_gait(standing_profile())
        for label, pos in res.markers.pos.items():
            np.testing.assert_allclose(pos - pos[0], 0.0, atol=1e-9,
                                       err_msg=label)
        W = res.meta.participant.mass * 9.81
        np.testing.assert_allclose(res.grf.force[:, 2], W, rtol=1e-9)
        np.testing.assert_allclose(res.grf.force[:, 0], 0.0, atol=1e-9)

    def test_constant_truth_moments(self):
        res = synthesize_gait(standing_profile())
        for side in ("left", "right"):
            for joint in ("ankle", "knee", "hip"):
                m = res.truth_moments[side][joint]
                np.testing.assert_allclose(m - m[0], 0.0, atol=1e-6)


class TestStride:
    @pytest.fixture(scope="class")
    @staticmethod
    def result():
        return synthesize_gait(stride_profile())

    def test_full_marker_set(self, result):
        assert set(result.markers.pos) == set(MarkerSchema.default().labels)

    def test_events_alternate(self, result):
        for side in ("left", "right"):
            ev = result.truth_events.side(side)
            merged = sorted([(t, "hs") for t in ev.heel_strikes]
                            + [(t, "to") for t in ev.toe_offs])
            kinds = [k for _, k in merged]
            for a, b in zip(kinds, kinds[1:]):
                assert a != b

    def test_grf_zero_outside_stance_windows(self, result):
        t = result.grf.time
        outside = np.ones(len(t), dtype=bool)
        for a, b in result.stance_windows:
            outside &= ~((t >= a) & (t <= b))
        assert outside.any()
        np.testing.assert_array_equal(result.grf.force[outside], 0.0)

    def test_truth_events_on_grf_grid(self, result):
        # events are detected on the 1 kHz grid that grf.csv writes
        for side in ("left", "right"):
            ev = result.truth_events.side(side)
            times = np.concatenate([ev.heel_strikes, ev.toe_offs])
            assert times.size
            assert np.isin(times, result.grf.time).all(), side

    def test_grf_impulse_sanity(self, result):
        # mean vertical force over a full mid-trial stride approximates
        # body weight (single-support model; loose bound)
        W = result.meta.participant.mass * 9.81
        assert 0.5 * W < result.grf.force[:, 2].max() < 2.0 * W

    def test_grf_force_is_one_fixed_float_sum(self, result):
        # weight plus HAT mass x hip acceleration, then the left thigh,
        # shank and foot terms, then the right ones, from both 1 kHz chains
        pr = stride_profile()
        params = segment_parameters(pr.participant, AnthropometricTable.default(),
                                    {"thigh": pr.thigh_len, "shank": pr.shank_len,
                                     "foot": pr.foot_len})
        t = result.grf.time
        kin = {side: synth._LegKinematics(pr, side, t, params)
               for side in ("left", "right")}
        hat = pr.participant.mass - 2 * sum(p.mass for p in params.values())
        f = hat * kin["left"].hip_acc
        for side in ("left", "right"):
            for seg in ("thigh", "shank", "foot"):
                f = f + params[seg].mass * kin[side].states[seg].acc
        f = f + pr.participant.mass * GRAVITY * np.array([0.0, 0.0, 1.0])
        w = synth._stance_weight(t, result.stance_windows, pr.ramp)
        np.testing.assert_array_equal(result.grf.force, w[:, None] * f)

    def test_cop_stays_within_foot(self, result):
        markers = result.markers
        heel_x = np.interp(result.grf.time, markers.time,
                           markers.pos["R-heel"][:, 0])
        toe_x = np.interp(result.grf.time, markers.time,
                          markers.pos["R-toe"][:, 0])
        loaded = result.grf.force[:, 2] > 1.0
        assert np.all(result.grf.cop[loaded, 0] >= heel_x[loaded] - 1e-3)
        assert np.all(result.grf.cop[loaded, 0] <= toe_x[loaded] + 1e-3)


def test_ground_penetration_rejected():
    profile = stride_profile()
    sunk = Trig(a0=profile.pelvis_z.a0 - 0.1, rate=profile.pelvis_z.rate,
                terms=profile.pelvis_z.terms)
    profile = dataclasses.replace(profile, pelvis_z=sunk)
    with pytest.raises(GenerationError, match="penetrates"):
        synthesize_gait(profile)


def test_leg_kinematics_built_once_per_side_and_rate(monkeypatch):
    # markers and truth moments share the marker-rate chain; GRF and truth
    # events share the GRF-rate chain
    built = []
    init = synth._LegKinematics.__init__

    def counting(self, profile, side, t, *args):
        built.append((side, len(t)))
        init(self, profile, side, t, *args)

    monkeypatch.setattr(synth._LegKinematics, "__init__", counting)
    synthesize_gait(stride_profile())
    assert sorted(built) == [("left", 301), ("left", 3001),
                             ("right", 301), ("right", 3001)]
