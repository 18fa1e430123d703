import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sandgait.dynamics import (JOINTS, ExternalLoad, FrameState, _cross_y,
                               ankle_dynamics, hip_closed_form,
                               hip_thigh_mass_term, knee_closed_form,
                               leg_inverse_dynamics, leg_moment_series,
                               recursive_leg)
from sandgait.errors import ContractError
from sandgait.model import GRAVITY, SegmentParams

PARAMS = {
    "foot": SegmentParams(mass=1.08, length=0.20, com_offset=0.095,
                          inertia=0.0039),
    "shank": SegmentParams(mass=3.46, length=0.43, com_offset=0.186,
                           inertia=0.0584),
    "thigh": SegmentParams(mass=7.45, length=0.42, com_offset=0.182,
                           inertia=0.1371),
}


def _static(e):
    """A motionless segment along the ``[x, z]`` direction ``e``."""
    return FrameState(e=np.asarray(e, dtype=float), acc=np.zeros(2),
                      omega_dot=np.zeros(()))


def _random_state(rng):
    """The sagittal part of a random 3-D state: its ``[x, z]`` vectors and
    the y of its angular acceleration."""
    e = rng.normal(size=3)
    e /= np.linalg.norm(e)
    return FrameState(e=e[[0, 2]], acc=rng.normal(size=3)[[0, 2]],
                      omega_dot=rng.normal(size=3)[1])


def _random_load(rng):
    """The sagittal part of a random 3-D wrench."""
    return ExternalLoad(force=rng.normal(size=3)[[0, 2]],
                        moment=rng.normal(size=3)[1],
                        r=rng.normal(size=3)[[0, 2]])


class TestAnkle:
    def test_all_zero(self):
        zero = ExternalLoad(np.zeros(2), np.zeros(()), np.zeros(2))
        M = ankle_dynamics(zero, _static([0.0, -1.0]), PARAMS["foot"], g=0.0)
        np.testing.assert_allclose(M, 0.0, atol=1e-15)

    def test_static_weight_under_ankle(self):
        # horizontal foot, vertical load applied so the force lever from
        # COP to the ankle vanishes: only the foot-weight term remains,
        # M_y = -l_p^f * m_f * g
        p = PARAMS["foot"]
        foot = _static([1.0, 0.0])  # ankle -> toe points forward
        W = 700.0
        # r + l_f*u_f = 0  =>  r = l_f * e_f
        load = ExternalLoad(force=np.array([0.0, W]), moment=np.zeros(()),
                            r=np.array([p.length, 0.0]))
        M = ankle_dynamics(load, foot, p)
        assert M == pytest.approx(-p.com_offset * p.mass * GRAVITY,
                                     rel=1e-12)


class TestDualFormulation:
    def test_ankle_knee_match_recursive(self, rng):
        for _ in range(200):
            load = _random_load(rng)
            states = {s: _random_state(rng) for s in ("foot", "shank",
                                                      "thigh")}
            rec = recursive_leg(load, states, PARAMS)
            ankle_closed = ankle_dynamics(load, states["foot"],
                                          PARAMS["foot"])
            knee_closed = knee_closed_form(load, states["foot"],
                                           states["shank"], PARAMS)
            scale = max(1.0, abs(ankle_closed))
            assert abs(rec["ankle"] - ankle_closed) / scale < 1e-12
            scale = max(1.0, abs(knee_closed))
            assert abs(rec["knee"] - knee_closed) / scale < 1e-12

    def test_hip_discrepancy_is_thigh_mass_term(self, rng):
        for _ in range(200):
            load = _random_load(rng)
            states = {s: _random_state(rng) for s in ("foot", "shank",
                                                      "thigh")}
            rec = recursive_leg(load, states, PARAMS)
            closed = hip_closed_form(load, states["foot"], states["shank"],
                                     states["thigh"], PARAMS)
            term = hip_thigh_mass_term(states["thigh"], PARAMS["thigh"])
            scale = max(1.0, abs(rec["hip"]))
            assert abs(rec["hip"] - (closed + term)) / scale < 1e-12

    def test_divergence_reported_near_zero(self, rng):
        load = _random_load(rng)
        sample = leg_inverse_dynamics(
            load, {s: _random_state(rng) for s in ("foot", "shank", "thigh")},
            PARAMS)
        for joint in JOINTS:
            assert sample.divergence[joint] < 1e-10


class TestProperties:
    def test_swing_zero_dynamics(self):
        # zero gravity, zero accelerations, zero load -> exactly zero
        sample = leg_inverse_dynamics(
            ExternalLoad(np.zeros(2), np.zeros(()), np.zeros(2)),
            {s: _static([0, -1.0]) for s in ("foot", "shank", "thigh")},
            PARAMS, g=0.0)
        for joint in JOINTS:
            np.testing.assert_array_equal(sample.moments[joint], 0.0)

    def test_linearity_in_load(self, rng):
        states = {s: _random_state(rng) for s in ("foot", "shank", "thigh")}
        F1, M1, r = (rng.normal(size=3)[[0, 2]], rng.normal(size=3)[1],
                     rng.normal(size=3)[[0, 2]])
        F2, M2 = rng.normal(size=3)[[0, 2]], rng.normal(size=3)[1]

        def moments(F, M):
            return recursive_leg(ExternalLoad(force=F, moment=M, r=r),
                                 states, PARAMS, g=0.0)

        a, b = moments(F1, M1), moments(F2, M2)
        both = moments(F1 + F2, M1 + M2)
        zero = moments(np.zeros(2), 0.0)
        for j in JOINTS:
            np.testing.assert_allclose(both[j], a[j] + b[j] - zero[j],
                                       atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_translation_invariance(self, data):
        # one wrench described about two points: moving the reference point
        # by d changes the moment to M - (d x F)_y and the lever to r - d,
        # and leaves every joint moment of both formulations unchanged
        def vec(bound):
            return data.draw(arrays(np.float64, 2,
                                    elements=st.floats(-bound, bound)))

        def y(bound):
            return data.draw(st.floats(-bound, bound))

        load = ExternalLoad(force=vec(1e3), moment=y(1e3), r=vec(2.0))
        states = {s: FrameState(e=vec(1.0), acc=vec(50.0), omega_dot=y(50.0))
                  for s in ("foot", "shank", "thigh")}
        d = vec(2.0)
        F = load.force
        moved = ExternalLoad(force=F,
                             moment=load.moment - (d[1] * F[0] - d[0] * F[1]),
                             r=load.r - d)
        a = leg_inverse_dynamics(load, states, PARAMS)
        b = leg_inverse_dynamics(moved, states, PARAMS)
        for j in JOINTS:
            np.testing.assert_allclose(b.moments[j], a.moments[j], atol=1e-8)
            np.testing.assert_allclose(b.closed_form[j], a.closed_form[j],
                                       atol=1e-8)

    def test_mass_normalization_scale_invariance(self, rng):
        # doubling body mass, segment masses/inertias, and the ground load
        # leaves mass-normalized moments unchanged
        states = {s: _random_state(rng) for s in ("foot", "shank", "thigh")}
        load = _random_load(rng)
        heavy = {k: SegmentParams(mass=2 * p.mass, length=p.length,
                                  com_offset=p.com_offset,
                                  inertia=2 * p.inertia)
                 for k, p in PARAMS.items()}
        heavy_load = ExternalLoad(force=2 * load.force,
                                  moment=2 * load.moment, r=load.r)
        rec1 = recursive_leg(load, states, PARAMS)
        rec2 = recursive_leg(heavy_load, states, heavy)
        for j in JOINTS:
            np.testing.assert_allclose(rec2[j] / 2.0, rec1[j], atol=1e-9)


_vec = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cross_y_is_y_of_3d_cross(data):
    # the planar pass drops the y of every vector: the y of a 3-D cross
    # product reads only the x and z of its factors, with the same floats
    n = data.draw(st.integers(1, 8))
    wide = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
    a, b = (data.draw(arrays(np.float64, (n, 3), elements=wide))
            for _ in range(2))
    got = _cross_y(a[..., [0, 2]], b[..., [0, 2]])
    want = np.cross(a, b)[..., 1]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def _stacked_frames(draw):
    """A random load and leg state, each vector an (N, 2) array and each
    moment and angular acceleration an (N,) one."""
    n = draw(st.integers(1, 12))

    def field(*shape):
        return draw(arrays(np.float64, (n,) + shape, elements=_vec))

    load = ExternalLoad(force=field(2), moment=field(), r=field(2))
    states = {s: FrameState(e=field(2), acc=field(2), omega_dot=field())
              for s in ("foot", "shank", "thigh")}
    return n, load, states


class TestBatched:
    @settings(max_examples=60, deadline=None)
    @given(_stacked_frames())
    def test_stacked_equals_single_frames(self, frames):
        # one pass over (N, 2) and (N,) arrays is bit-identical to N
        # single-frame passes
        n, load, states = frames
        batch = recursive_leg(load, states, PARAMS)
        rows = [recursive_leg(
            ExternalLoad(force=load.force[i], moment=load.moment[i],
                         r=load.r[i]),
            {s: FrameState(e=v.e[i], acc=v.acc[i], omega_dot=v.omega_dot[i])
             for s, v in states.items()}, PARAMS) for i in range(n)]
        for j in JOINTS:
            assert np.array_equal(batch[j], np.stack([r[j] for r in rows]))

    def test_oracle_on_arrays(self, rng):
        n = 50
        load = ExternalLoad(force=rng.normal(size=(n, 3))[:, [0, 2]],
                            moment=rng.normal(size=(n, 3))[:, 1],
                            r=rng.normal(size=(n, 3))[:, [0, 2]])
        states = {}
        for seg in ("foot", "shank", "thigh"):
            e = rng.normal(size=(n, 3))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            states[seg] = FrameState(
                e=e[:, [0, 2]], acc=rng.normal(size=(n, 3))[:, [0, 2]],
                omega_dot=rng.normal(size=(n, 3))[:, 1])
        sample = leg_inverse_dynamics(load, states, PARAMS)
        for joint in JOINTS:
            assert sample.divergence[joint].shape == (n,)
            assert np.all(sample.divergence[joint] < 1e-10)


class TestSeries:
    def _series(self, n, e):
        return FrameState(e=np.tile(e, (n, 1)).astype(float),
                          acc=np.zeros((n, 2)), omega_dot=np.zeros(n))

    def _leg(self, n, n_thigh=None):
        return {"foot": self._series(n, [1.0, 0.0]),
                "shank": self._series(n, [0.0, -1.0]),
                "thigh": self._series(n_thigh or n, [0.0, -1.0])}

    def _time(self, n):
        return np.arange(n) * 0.01

    def _no_load(self, n):
        return ExternalLoad(force=np.zeros((n, 2)), moment=np.zeros(n),
                            r=np.zeros((n, 2)))

    def test_state_frame_count_mismatch(self):
        with pytest.raises(ContractError, match="thigh state"):
            leg_moment_series(self._time(10), self._no_load(10),
                              self._leg(10, n_thigh=9), PARAMS, body_mass=74.5)

    def test_load_count_mismatch(self):
        with pytest.raises(ContractError, match="loads"):
            leg_moment_series(self._time(10), self._no_load(9),
                              self._leg(10), PARAMS, body_mass=74.5)

    @pytest.mark.parametrize("arg, field, shape, message", [
        ("load", "r", (9, 2), "loads r of shape (9, 2), expected (10, 2)"),
        ("foot", "acc", (10, 3),
         "foot state acc of shape (10, 3), expected (10, 2)"),
    ])
    def test_bad_field_named_with_its_shape(self, arg, field, shape,
                                            message):
        load, states = self._no_load(10), self._leg(10)
        if arg == "load":
            load = replace(load, **{field: np.zeros(shape)})
        else:
            states[arg] = replace(states[arg], **{field: np.zeros(shape)})
        with pytest.raises(ContractError, match=re.escape(message)):
            leg_moment_series(self._time(10), load, states, PARAMS,
                              body_mass=74.5)

    @pytest.mark.parametrize("keep, missing", [
        (("foot", "shank"), "thigh"), (("foot",), "shank, thigh")],
        ids=["no_thigh", "foot_only"])
    @pytest.mark.parametrize("run", [
        lambda time, load, states: recursive_leg(load, states, PARAMS),
        lambda time, load, states: leg_inverse_dynamics(load, states, PARAMS),
        lambda time, load, states: leg_moment_series(time, load, states,
                                                     PARAMS, body_mass=74.5),
    ], ids=["recursive_leg", "leg_inverse_dynamics", "leg_moment_series"])
    def test_missing_segment_named(self, run, keep, missing):
        # a leg without every segment is a contract error that names what
        # it lacks, not a KeyError
        states = {k: s for k, s in self._leg(10).items() if k in keep}
        with pytest.raises(ContractError,
                           match=re.escape(f"lack segment(s) {missing}")):
            run(self._time(10), self._no_load(10), states)

    def test_nan_frames_skipped(self):
        states = self._leg(10)
        states["foot"].e[4] = np.nan
        out = leg_moment_series(self._time(10), self._no_load(10), states,
                                PARAMS, body_mass=74.5)
        assert np.isnan(out.moment_y["ankle"][4])
        assert np.isnan(out.moment_y["hip"][4])
        assert np.isfinite(out.moment_y["ankle"][5])

    def test_normalization(self):
        out = leg_moment_series(self._time(5), self._no_load(5), self._leg(5),
                                PARAMS, body_mass=74.5)
        np.testing.assert_allclose(out.normalized["knee"] * 74.5,
                                   out.moment_y["knee"], atol=1e-12)
