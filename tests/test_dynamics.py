import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sandgait.dynamics import (JOINTS, ExternalLoad, FrameState,
                               ankle_dynamics, hip_closed_form,
                               hip_thigh_mass_term, knee_closed_form,
                               leg_inverse_dynamics, leg_moment_series,
                               recursive_leg, transfer_to_distal)
from sandgait.errors import ContractError
from sandgait.kinematics import SegmentStateSeries
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
    z = np.zeros(3)
    return FrameState(e=np.asarray(e, dtype=float), acc=z, omega_dot=z)


def _random_state(rng):
    e = rng.normal(size=3)
    e /= np.linalg.norm(e)
    return FrameState(e=e, acc=rng.normal(size=3),
                      omega_dot=rng.normal(size=3))


def _random_load(rng):
    return ExternalLoad(force=rng.normal(size=3), moment=rng.normal(size=3),
                        r=rng.normal(size=3))


class TestTransfer:
    def test_zero(self):
        F, M = transfer_to_distal(np.zeros(3), np.zeros(3),
                                  np.array([0.1, 0.0, 0.0]))
        np.testing.assert_array_equal(F, 0.0)
        np.testing.assert_array_equal(M, 0.0)

    def test_hand_cross_product(self):
        # -(0.1,0,0) x (0,0,100) = (0,10,0)
        F, M = transfer_to_distal(np.array([0.0, 0.0, 100.0]), np.zeros(3),
                                  np.array([0.1, 0.0, 0.0]))
        np.testing.assert_allclose(M, [0.0, 10.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(F, [0.0, 0.0, 100.0])

    def test_coincident_points(self):
        M_G = np.array([1.0, 2.0, 3.0])
        _, M = transfer_to_distal(np.array([5.0, 6.0, 7.0]), M_G, np.zeros(3))
        np.testing.assert_array_equal(M, M_G)


class TestAnkle:
    def test_all_zero(self):
        F, M = ankle_dynamics(ExternalLoad.zero(),
                              _static([0.0, 0.0, -1.0]), PARAMS["foot"], g=0.0)
        np.testing.assert_allclose(F, 0.0, atol=1e-15)
        np.testing.assert_allclose(M, 0.0, atol=1e-15)

    def test_static_weight_under_ankle(self):
        # horizontal foot, vertical load applied so the force lever from
        # COP to the ankle vanishes: only the foot-weight term remains,
        # M_y = -l_p^f * m_f * g
        p = PARAMS["foot"]
        foot = _static([1.0, 0.0, 0.0])  # ankle -> toe points forward
        W = 700.0
        # r + l_f*u_f = 0  =>  r = l_f * e_f
        load = ExternalLoad(force=np.array([0.0, 0.0, W]),
                            moment=np.zeros(3),
                            r=np.array([p.length, 0.0, 0.0]))
        _, M = ankle_dynamics(load, foot, p)
        assert M[1] == pytest.approx(-p.com_offset * p.mass * GRAVITY,
                                     rel=1e-12)

    def test_proximal_force_balance(self, rng):
        # the ankle force satisfies F_P = -F_D + m*a - m*g*e_z, i.e.
        # m*a = F_P + F_G + m*g*e_z under the chain's sign convention
        load = _random_load(rng)
        foot = _random_state(rng)
        F_P, _ = ankle_dynamics(load, foot, PARAMS["foot"])
        m = PARAMS["foot"].mass
        lhs = m * foot.acc
        rhs = F_P + load.force + m * GRAVITY * np.array([0, 0, 1.0])
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestDualFormulation:
    def test_ankle_knee_match_recursive(self, rng):
        for _ in range(200):
            load = _random_load(rng)
            states = {s: _random_state(rng) for s in ("foot", "shank",
                                                      "thigh")}
            rec = recursive_leg(load, states, PARAMS)
            ankle_closed = ankle_dynamics(load, states["foot"],
                                          PARAMS["foot"])[1]
            knee_closed = knee_closed_form(load, states["foot"],
                                           states["shank"], PARAMS)
            scale = max(1.0, np.linalg.norm(ankle_closed))
            assert np.linalg.norm(rec["ankle"][1] - ankle_closed) / scale < 1e-12
            scale = max(1.0, np.linalg.norm(knee_closed))
            assert np.linalg.norm(rec["knee"][1] - knee_closed) / scale < 1e-12

    def test_hip_discrepancy_is_thigh_mass_term(self, rng):
        for _ in range(200):
            load = _random_load(rng)
            states = {s: _random_state(rng) for s in ("foot", "shank",
                                                      "thigh")}
            rec = recursive_leg(load, states, PARAMS)
            closed = hip_closed_form(load, states["foot"], states["shank"],
                                     states["thigh"], PARAMS)
            term = hip_thigh_mass_term(states["thigh"], PARAMS["thigh"])
            scale = max(1.0, np.linalg.norm(rec["hip"][1]))
            assert np.linalg.norm(rec["hip"][1] - (closed + term)) / scale \
                < 1e-12

    def test_divergence_reported_near_zero(self, rng):
        load = _random_load(rng)
        sample = leg_inverse_dynamics(load, _random_state(rng),
                                      _random_state(rng), _random_state(rng),
                                      PARAMS)
        for joint in JOINTS:
            assert sample.divergence[joint] < 1e-10


class TestProperties:
    def test_swing_zero_dynamics(self):
        # zero gravity, zero accelerations, zero load -> exactly zero
        sample = leg_inverse_dynamics(
            ExternalLoad.zero(), _static([0, 0, -1.0]), _static([0, 0, -1.0]),
            _static([0, 0, -1.0]), PARAMS, g=0.0)
        for joint in JOINTS:
            np.testing.assert_array_equal(sample.moments[joint], 0.0)
            np.testing.assert_array_equal(sample.forces[joint], 0.0)

    def test_linearity_in_load(self, rng):
        states = {s: _random_state(rng) for s in ("foot", "shank", "thigh")}
        F1, M1, r = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        F2, M2 = rng.normal(size=3), rng.normal(size=3)

        def moments(F, M):
            rec = recursive_leg(ExternalLoad(force=F, moment=M, r=r),
                                states, PARAMS, g=0.0)
            return {j: rec[j][1] for j in JOINTS}

        a, b = moments(F1, M1), moments(F2, M2)
        both = moments(F1 + F2, M1 + M2)
        zero = moments(np.zeros(3), np.zeros(3))
        for j in JOINTS:
            np.testing.assert_allclose(both[j], a[j] + b[j] - zero[j],
                                       atol=1e-9)

    def test_translation_invariance(self, rng):
        # the load is parameterized by the relative lever r, so a rigid
        # scene translation leaves every moment unchanged by construction;
        # verify through the series API where positions enter
        load = _random_load(rng)
        states = {s: _random_state(rng) for s in ("foot", "shank", "thigh")}
        rec1 = recursive_leg(load, states, PARAMS)
        rec2 = recursive_leg(load, states, PARAMS)
        for j in JOINTS:
            np.testing.assert_array_equal(rec1[j][1], rec2[j][1])

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
            np.testing.assert_allclose(rec2[j][1] / 2.0, rec1[j][1],
                                       atol=1e-9)


_vec = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _stacked_frames(draw):
    """A random load and leg state, each field an (N, 3) array."""
    n = draw(st.integers(1, 12))

    def field():
        return draw(arrays(np.float64, (n, 3), elements=_vec))

    load = ExternalLoad(force=field(), moment=field(), r=field())
    states = {s: FrameState(e=field(), acc=field(), omega_dot=field())
              for s in ("foot", "shank", "thigh")}
    return n, load, states


class TestBatched:
    @settings(max_examples=60, deadline=None)
    @given(_stacked_frames())
    def test_stacked_equals_single_frames(self, frames):
        # one pass over (N, 3) arrays is bit-identical to N (3,) passes
        n, load, states = frames
        batch = recursive_leg(load, states, PARAMS)
        rows = [recursive_leg(
            ExternalLoad(force=load.force[i], moment=load.moment[i],
                         r=load.r[i]),
            {s: FrameState(e=v.e[i], acc=v.acc[i], omega_dot=v.omega_dot[i])
             for s, v in states.items()}, PARAMS) for i in range(n)]
        for j in JOINTS:
            for k in (0, 1):
                assert np.array_equal(batch[j][k],
                                      np.stack([r[j][k] for r in rows]))

    def test_oracle_on_arrays(self, rng):
        n = 50
        load = ExternalLoad(force=rng.normal(size=(n, 3)),
                            moment=rng.normal(size=(n, 3)),
                            r=rng.normal(size=(n, 3)))
        states = []
        for _ in range(3):
            e = rng.normal(size=(n, 3))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            states.append(FrameState(e=e, acc=rng.normal(size=(n, 3)),
                                     omega_dot=rng.normal(size=(n, 3))))
        sample = leg_inverse_dynamics(load, *states, PARAMS)
        for joint in JOINTS:
            assert sample.divergence[joint].shape == (n,)
            assert np.all(sample.divergence[joint] < 1e-10)


class TestSeries:
    def _series(self, n, e, dt=0.01):
        z = np.zeros((n, 3))
        return SegmentStateSeries(time=np.arange(n) * dt,
                                  e=np.tile(e, (n, 1)).astype(float),
                                  com_pos=z, com_vel=z, com_acc=z.copy(),
                                  omega_dot=z.copy())

    def _no_load(self, n):
        return ExternalLoad(force=np.zeros((n, 3)), moment=np.zeros((n, 3)),
                            r=np.zeros((n, 3)))

    def test_timestamp_mismatch(self):
        foot = self._series(10, [1.0, 0, 0])
        shank = self._series(10, [0, 0, -1.0])
        thigh = self._series(10, [0, 0, -1.0], dt=0.02)
        with pytest.raises(ContractError, match="thigh"):
            leg_moment_series(foot.time, self._no_load(10), foot, shank,
                              thigh, PARAMS, body_mass=74.5)

    def test_load_count_mismatch(self):
        foot = self._series(10, [1.0, 0, 0])
        shank = self._series(10, [0, 0, -1.0])
        thigh = self._series(10, [0, 0, -1.0])
        with pytest.raises(ContractError, match="loads"):
            leg_moment_series(foot.time, self._no_load(9),
                              foot, shank, thigh, PARAMS, body_mass=74.5)

    def test_nan_frames_skipped(self):
        foot = self._series(10, [1.0, 0, 0])
        shank = self._series(10, [0, 0, -1.0])
        thigh = self._series(10, [0, 0, -1.0])
        foot.e[4] = np.nan
        out = leg_moment_series(foot.time, self._no_load(10),
                                foot, shank, thigh, PARAMS, body_mass=74.5)
        assert np.isnan(out.moment_y["ankle"][4])
        assert np.all(np.isnan(out.proximal_force["hip"][4]))
        assert np.isfinite(out.moment_y["ankle"][5])

    def test_normalization(self):
        foot = self._series(5, [1.0, 0, 0])
        shank = self._series(5, [0, 0, -1.0])
        thigh = self._series(5, [0, 0, -1.0])
        out = leg_moment_series(foot.time, self._no_load(5),
                                foot, shank, thigh, PARAMS, body_mass=74.5)
        np.testing.assert_allclose(out.normalized["knee"] * 74.5,
                                   out.moment_y["knee"], atol=1e-12)
