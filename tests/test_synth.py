import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandgait import synth
from sandgait.errors import ConfigurationError, GenerationError, check_number
from sandgait.ingest import TrialMeta
from sandgait.model import (GRAVITY, AnthropometricTable, Participant,
                            segment_parameters)
from sandgait.pipeline import RunConfig
from sandgait.schema import MarkerSchema
from sandgait.synth import (GaitProfile, LegAngles, Trig, standing_profile,
                            stride_profile, synthesize_gait)


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_series = st.builds(
    Trig, a0=_unit(-2.0, 2.0), rate=_unit(-2.0, 2.0),
    terms=st.lists(st.tuples(_unit(-1.0, 1.0), _unit(0.0, 3.0),
                             _unit(-math.pi, math.pi)),
                   max_size=3).map(tuple))


class TestTrig:
    @settings(max_examples=100, deadline=None)
    @given(f=_series, t0=_unit(0.0, 20.0))
    def test_derivatives_match_numeric(self, f, t0):
        # each derivative against a central difference of the one below it
        t = t0 + np.linspace(0.0, 2.0, 50)
        h = 1e-6
        (_, x1, x2), (up, up1, _), (down, down1, _) = (
            f.at(t), f.at(t + h), f.at(t - h))
        step = (t + h) - (t - h)
        # a bound on |x|, |x'|, |x''| and |x'''| over every t
        scale = 1.0 + abs(f.a0) + abs(f.rate) + sum(
            abs(amp) * (1.0 + 2 * math.pi * freq) ** 3
            for amp, freq, _ in f.terms)
        np.testing.assert_allclose(x1, (up - down) / step,
                                   rtol=0, atol=1e-7 * scale)
        np.testing.assert_allclose(x2, (up1 - down1) / step,
                                   rtol=0, atol=1e-7 * scale)

    @settings(max_examples=100, deadline=None)
    @given(f=_series, n=st.integers(1, 300), data=st.data())
    def test_split_grid_equals_whole_grid(self, f, n, data):
        # the series on a grid split anywhere, or one sample at a time, is
        # the series on the whole grid bit for bit: what synthesize_gait's
        # _CHAIN_BLOCK blocks rely on
        t = np.round(np.arange(n) * 0.001, 9)
        k = data.draw(st.integers(0, n), label="split")
        i = data.draw(st.integers(0, n - 1), label="sample")
        for whole, head, tail, one in zip(f.at(t), f.at(t[:k]), f.at(t[k:]),
                                          f.at(t[i:i + 1])):
            assert np.concatenate([head, tail]).tobytes() == whole.tobytes()
            assert one.tobytes() == whole[i:i + 1].tobytes()

    def test_json_round_trip(self):
        f = Trig(a0=0.3, rate=1.1, terms=((0.2, 1.5, 0.4),))
        assert Trig.from_json(f.to_json()) == f

    @pytest.mark.parametrize("doc, message", [
        ({"terms": [[0.2, 1.5]]}, r"pelvis_x\.terms\[0\] must hold three"),
        ({"terms": [5]},
         r"pelvis_x\.terms\[0\] must hold three numbers, got 5$"),
        ({"terms": [[0.2, math.nan, 0.4]]},
         r"pelvis_x\.terms\[0\]\[1\] must be finite, got nan"),
        ({"rate": math.inf}, r"pelvis_x\.rate must be finite, got inf"),
        ({"terms": None}, r"pelvis_x\.terms must be a list of \[amp, freq, "
                          r"phase\] terms, got None$"),
    ], ids=["two_values", "number_term", "nan_frequency", "infinite_rate",
            "null_terms"])
    def test_from_json_names_the_key(self, doc, message):
        with pytest.raises(ConfigurationError, match=message):
            Trig.from_json(doc, "pelvis_x")


_NUMBER = "a number"
_TERMS = "a list of [amp, freq, phase] terms"

#: how each input type is built from a bad value, the key that names the
#: value, and what the value must be
_BUILT_IN_PYTHON = {
    "participant": (lambda v: Participant("x", v, 70.0),
                    "participant 'x': height", _NUMBER),
    "trial_meta": (lambda v: TrialMeta(Participant("x", 1.7, 70.0), "solid",
                                       sync_offset=v), "sync_offset_s", _NUMBER),
    "profile": (lambda v: dataclasses.replace(stride_profile(), thigh_len=v),
                "geometry.thigh_len", _NUMBER),
    "series": (lambda v: Trig(rate=v), "rate", _NUMBER),
    "series_term": (lambda v: Trig(terms=((0.2, v, 0.4),)), "terms[0][1]",
                    _NUMBER),
    "series_terms": (lambda v: Trig(terms=v), "terms", _TERMS),
    "profile_series": (lambda v: dataclasses.replace(
        stride_profile(), pelvis_z=Trig(a0=v)), "a0", _NUMBER),
    "profile_series_terms": (lambda v: dataclasses.replace(
        stride_profile(), pelvis_z=Trig(terms=v)), "terms", _TERMS),
    "run_config": (lambda v: RunConfig(gravity=v), "gravity", _NUMBER),
}


@pytest.mark.parametrize("value", ["tall", None, math.nan, True],
                         ids=["string", "null", "nan", "bool"])
@pytest.mark.parametrize("built", _BUILT_IN_PYTHON)
def test_bad_number_rejected_where_built(built, value):
    # every input type checks each of its numbers when it is built, and
    # names it by its file key
    build, key, kind = _BUILT_IN_PYTHON[built]
    with pytest.raises(ConfigurationError) as exc:
        build(value)
    if isinstance(value, float) and kind == _NUMBER:
        # NaN fails the key's rule or finiteness
        assert str(exc.value).startswith(f"{key} must be ")
        assert str(exc.value).endswith(", got nan")
    else:
        assert str(exc.value) == f"{key} must be {kind}, got {value!r}"


class TestProfile:
    def test_json_round_trip(self):
        p = stride_profile()
        assert GaitProfile.from_json(p.to_json()) == p

    def test_each_series_number_checked_once(self, tmp_path, monkeypatch):
        # a series' numbers are checked where the Trig is built, and
        # from_json only names the key of one that fails
        path = tmp_path / "profile.json"
        stride_profile().save(path)
        keys = []

        def recording(key, value, rule=None):
            keys.append(key)
            return check_number(key, value, rule)

        monkeypatch.setattr(synth, "check_number", recording)
        GaitProfile.load(path)
        series = ["a0", "rate", "terms[0][0]", "terms[0][1]", "terms[0][2]"]
        assert sorted(keys) == sorted(
            [synth._KEYS[name] for name in synth._RULES] + series * 8)

    @pytest.mark.parametrize("window", [["0.2", 0.8], [True, 0.8], [None, 0.8]],
                             ids=["string", "boolean", "null"])
    def test_stance_window_must_be_a_number(self, window):
        doc = stride_profile().to_json()
        doc["stance_windows_s"] = [window]
        with pytest.raises(ConfigurationError,
                           match=r"stance_windows_s\[0\]\[0\] must be a number"):
            GaitProfile.from_json(doc)

    def test_stance_windows_kept_as_given(self):
        doc = stride_profile().to_json()
        doc["stance_windows_s"] = [[0, 2], [2.5, 3]]
        back = GaitProfile.from_json(doc).to_json()["stance_windows_s"]
        assert json.dumps(back) == "[[0, 2], [2.5, 3]]"

    def test_minimal_json_takes_dataclass_defaults(self):
        leg = {"thigh_pitch": {"a0": 0.1}, "knee_flexion": {},
               "foot_pitch": {}}
        doc = {"participant": {"id": "p", "height_m": 1.7, "mass_kg": 70.0},
               "duration_s": 3.0, "legs": {"left": leg, "right": leg}}
        angles = LegAngles(Trig(a0=0.1), Trig(), Trig())
        assert GaitProfile.from_json(doc) == GaitProfile(
            participant=Participant(id="p", height=1.7, mass=70.0),
            duration=3.0, legs={"left": angles, "right": angles})

    @pytest.mark.parametrize("change, message", [
        (dict(marker_dt=0), "marker_dt_s must be > 0, got 0"),
        (dict(duration=-1), "duration_s must be > 0, got -1"),
        (dict(ramp=math.nan), "ramp_s must be >= 0, got nan"),
        (dict(grf_side="middle"),
         "grf_side must be one of ('left', 'right'), got 'middle'"),
        (dict(terrain="mud"), "unknown terrain 'mud'"),
        (dict(hip_half_width=True),
         "geometry.hip_half_width must be a number, got True"),
        (dict(stance_windows=[[0.1, 0.5, 0.9]]),
         "stance_windows_s[0] must be a [start, end] pair, "
         "got [0.1, 0.5, 0.9]"),
        (dict(stance_windows=[0.3]),
         "stance_windows_s[0] must be a [start, end] pair, got 0.3"),
        (dict(stance_windows=[[0.2, 0.8], [0.1]]),
         "stance_windows_s[1] must be a [start, end] pair, got [0.1]"),
        (dict(stance_windows=0.3),
         "stance_windows_s must be a list of [start, end] pairs, got 0.3"),
        (dict(legs={"right": stride_profile().legs["right"]}),
         "legs must script left and right, got ['right']"),
    ], ids=["zero_marker_dt", "negative_duration", "nan_ramp", "middle_side",
            "unknown_terrain", "boolean_width", "three_value_window",
            "bare_number_window", "one_value_window", "windows_not_a_list",
            "one_leg"])
    def test_rejected_values_built_in_python(self, change, message):
        # a profile built in code is held to the profile.json rules, and
        # named by its keys, when it is built
        with pytest.raises(ConfigurationError) as exc:
            dataclasses.replace(stride_profile(), **change)
        assert str(exc.value) == message

    def test_numbers_stored_as_floats(self):
        p = dataclasses.replace(stride_profile(), duration=3, ramp=0,
                                terrain="sand", sand_depth=6,
                                cop_fixed=(0, 1))
        assert (p.duration, p.ramp, p.sand_depth, p.cop_fixed) == \
            (3.0, 0.0, 6.0, (0.0, 1.0))
        assert all(type(v) is float for v in (p.duration, p.ramp,
                                              p.sand_depth, *p.cop_fixed))

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


def _full_chain_force(pr, result):
    """The GRF force of ``result``, generated from ``pr``, rebuilt from one
    1 kHz walk of both legs over the whole trial at once, as (N, 3) rows
    with y 0: weight plus HAT mass x hip acceleration, then the left thigh,
    shank and foot terms, then the right ones, times the plate's share of
    the balance."""
    params = segment_parameters(pr.participant, AnthropometricTable.default(),
                                {"thigh": pr.thigh_len, "shank": pr.shank_len,
                                 "foot": pr.foot_len})
    t = result.grf.time
    hat = pr.participant.mass - 2 * sum(p.mass for p in params.values())
    fx, fz = (hat * pelvis.at(t)[2] for pelvis in (pr.pelvis_x, pr.pelvis_z))
    walked = []
    for side, seg, _ in synth._walk(pr, t, params, hat):
        walked.append((side, seg.name))
        (ax, az), m = seg.acc, params[seg.name].mass
        fx, fz = fx + m * ax, fz + m * az
    assert walked == [(side, name) for side in ("left", "right")
                      for name in ("thigh", "shank", "foot")]
    f = np.stack([fx, np.zeros_like(t), fz], axis=-1)
    f = f + pr.participant.mass * GRAVITY * np.array([0.0, 0.0, 1.0])
    # the plate's share of the balance; heel and toe x only place the COP
    w, _, _ = synth._plate(pr, t, result.stance_windows, (fx, fz), t, t)
    return w[:, None] * f


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
        force = _full_chain_force(stride_profile(), result)
        np.testing.assert_array_equal(result.grf.force, force)

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


@pytest.mark.parametrize("duration, grf_blocks", [(3.0, [3001]),
                                                   (5.0, [4096, 905])],
                         ids=["one_block", "two_blocks"])
def test_leg_chain_built_once_per_side_and_rate(monkeypatch, duration,
                                                grf_blocks):
    # markers and truth moments share the marker-rate walk; GRF and truth
    # events share the GRF-rate walk, one per _CHAIN_BLOCK block
    walked, walk = [], synth._walk

    def counting(profile, t, *args):
        for side, seg, f in walk(profile, t, *args):
            if seg.name == "thigh":
                walked.append((side, len(t)))
            yield side, seg, f

    monkeypatch.setattr(synth, "_walk", counting)
    res = synthesize_gait(dataclasses.replace(stride_profile(),
                                              duration=duration))
    rates = [len(res.marker_time)] + grf_blocks
    assert sorted(walked) == sorted((side, n) for side in ("left", "right")
                                    for n in rates)


@pytest.mark.parametrize("n", [synth._CHAIN_BLOCK - 1, synth._CHAIN_BLOCK,
                               synth._CHAIN_BLOCK + 1, 5 * synth._CHAIN_BLOCK],
                         ids=["block_less_one", "block", "block_and_one",
                              "five_blocks"])
def test_chain_blocks_equal_one_full_chain(monkeypatch, n):
    # the GRF-rate walk in blocks gives the floats of one walk over all n
    # GRF samples, bit for bit
    pr = dataclasses.replace(stride_profile(), duration=(n - 1) * 0.001)
    res = synthesize_gait(pr)
    assert len(res.grf.time) == n
    np.testing.assert_array_equal(res.grf.force, _full_chain_force(pr, res))
    monkeypatch.setattr(synth, "_CHAIN_BLOCK", n)
    whole = synthesize_gait(pr)
    assert res.truth_events.rows() == whole.truth_events.rows()
    for name in ("time", "force", "moment", "cop"):
        np.testing.assert_array_equal(getattr(res.grf, name),
                                      getattr(whole.grf, name))
    assert res.truth_moments.keys() == whole.truth_moments.keys()
    for side, joints in whole.truth_moments.items():
        for joint, moment in joints.items():
            np.testing.assert_array_equal(res.truth_moments[side][joint],
                                          moment)
