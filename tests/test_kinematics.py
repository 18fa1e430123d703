import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sandgait.errors import (ConfigurationError, ParameterError,
                             SingularSegmentError)
from sandgait.ingest import MarkerData
from sandgait.kinematics import (com_trajectory, differentiate, joint_angles,
                                 moving_average, pelvis_midpoint, pitch_angle,
                                 segment_states)
from sandgait.model import SegmentParams, segment_parameters
from sandgait.schema import MarkerSchema


def _per_sample_moving_average(x, window):
    """Reference: one running-sum window per sample, NaN wherever the
    window holds a NaN."""
    n, half = len(x), window // 2
    csum = np.cumsum(np.where(np.isnan(x), 0.0, x))
    out = np.empty(n)
    for i in range(n):
        k = min(half, i, n - 1 - i)
        lo, hi = i - k, i + k + 1
        s = csum[hi - 1] - (csum[lo - 1] if lo > 0 else 0)
        out[i] = np.nan if np.isnan(x[lo:hi]).any() else s / (hi - lo)
    return out


class TestMovingAverage:
    def test_constant_identity(self):
        x = np.full(20, 3.5)
        np.testing.assert_allclose(moving_average(x, 7), x, atol=0)

    def test_impulse_kernel(self):
        x = np.zeros(21)
        x[10] = 1.0
        y = moving_average(x, 5)
        np.testing.assert_allclose(y[8:13], 0.2, atol=1e-12)
        assert y[7] == 0.0 and y[13] == 0.0

    def test_affine_interior_exact(self):
        x = 2.0 + 0.3 * np.arange(50)
        y = moving_average(x, 7)
        np.testing.assert_allclose(y[3:-3], x[3:-3], atol=1e-9)

    def test_edges_shrink_symmetric(self):
        # first output is just x[0]; second averages three samples
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = moving_average(x, 5)
        assert y[0] == 1.0
        assert y[1] == pytest.approx((1 + 2 + 4) / 3)

    def test_commutes_with_offset(self, rng):
        x = rng.normal(size=40)
        np.testing.assert_allclose(moving_average(x + 5.0, 7),
                                   moving_average(x, 7) + 5.0, atol=1e-9)

    def test_even_window_rejected(self):
        with pytest.raises(ParameterError):
            moving_average(np.zeros(10), 4)

    def test_oversize_window_rejected(self):
        with pytest.raises(ParameterError):
            moving_average(np.zeros(5), 7)

    def test_nan_propagates(self):
        x = np.ones(20)
        x[10] = np.nan
        y = moving_average(x, 5)
        assert np.isnan(y[10])

    def test_nan_stays_local(self):
        # only the outputs whose windows hold the NaN (or infinity) are NaN
        for value in (np.nan, np.inf, -np.inf):
            x = np.ones((30, 2))
            x[10, 0] = value
            y = moving_average(x, 5)
            assert np.flatnonzero(np.isnan(y[:, 0])).tolist() == [8, 9, 10, 11, 12]
            np.testing.assert_array_equal(np.delete(y[:, 0], range(8, 13)), 1.0)
            np.testing.assert_array_equal(y[:, 1], 1.0)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-1e6, 1e6) | st.just(np.nan)),
           st.integers(0, 6))
    def test_matches_per_sample_loop(self, x, half):
        window = 2 * half + 1
        if window > x.size:
            return
        np.testing.assert_array_equal(moving_average(x, window),
                                      _per_sample_moving_average(x, window))

    def test_leading_negative_zero_sums_to_positive_zero(self):
        # the running sums start from +0.0, so a leading run of -0.0 gives
        # +0.0, which a bundle writes as "0", not "-0"
        y = moving_average(np.array([-0.0, -0.0, -0.0, 1.0]), 1)
        assert not np.signbit(y).any()

    def test_multicolumn(self, rng):
        x = rng.normal(size=(30, 3))
        y = moving_average(x, 5)
        np.testing.assert_allclose(y[:, 1], moving_average(x[:, 1], 5),
                                   atol=1e-12)


class TestDifferentiate:
    def test_constant_zero(self):
        np.testing.assert_allclose(differentiate(np.full(10, 2.0), 0.01, 1),
                                   0.0, atol=1e-12)

    def test_quadratic_second_derivative_exact(self):
        t = np.arange(50) * 0.01
        x = 3.0 * t * t + t - 2.0
        d2 = differentiate(x, 0.01, order=2)
        np.testing.assert_allclose(d2, 6.0, atol=1e-9)

    def test_affine_first_derivative_exact(self):
        t = np.arange(50) * 0.01
        d1 = differentiate(5.0 * t + 1.0, 0.01, order=1)
        np.testing.assert_allclose(d1, 5.0, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.integers(-1000, 1000).map(lambda k: k / 100)] * 3),
           st.floats(1e-3, 0.1), st.integers(3, 60))
    def test_quadratic_exact_to_round_off(self, abc, dt, n):
        # central differences are exact on quadratics, so only the rounding
        # of x (and of the grid times), amplified by 1/dt^order, is left
        a, b, c = abc
        t = np.arange(n) * dt
        x = (a * t + b) * t + c
        scale = np.abs(a) * t[-1] ** 2 + np.abs(b) * t[-1] + np.abs(c)
        for order, exact in ((1, 2 * a * t + b), (2, np.full(n, 2 * a))):
            tol = 64 * np.finfo(float).eps * scale / dt ** order
            np.testing.assert_allclose(differentiate(x, dt, order)[1:-1],
                                       exact[1:-1], rtol=0, atol=tol)

    def test_sine_first_derivative(self):
        dt = 0.01
        t = np.arange(200) * dt
        d1 = differentiate(np.sin(t), dt, order=1)
        # central differences are second order: error ~ dt^2/6
        np.testing.assert_allclose(d1[1:-1], np.cos(t)[1:-1], atol=2e-5)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            differentiate(np.zeros(2), 0.01, 1)

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            differentiate(np.zeros(10), 0.01, order=3)


class TestPitchAngle:
    def test_cardinal_directions(self):
        e = np.array([[0.0, 0.0, -1.0],   # straight down
                      [1.0, 0.0, 0.0],    # horizontal forward
                      [-1.0, 0.0, 0.0]])  # horizontal backward
        a = pitch_angle(e)
        assert a[0] == pytest.approx(0.0, abs=1e-12)
        assert a[1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert a[2] == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_unwrap_continuity(self):
        theta = np.linspace(0, 3 * np.pi, 200)
        e = np.column_stack([np.sin(theta), np.zeros_like(theta),
                             -np.cos(theta)])
        a = pitch_angle(e)
        np.testing.assert_allclose(a, theta, atol=1e-9)

    def test_nan_does_not_poison_unwrap(self):
        theta = np.linspace(0, 3 * np.pi, 200)
        e = np.column_stack([np.sin(theta), np.zeros_like(theta),
                             -np.cos(theta)])
        e[60] = np.nan
        a = pitch_angle(e)
        assert np.isnan(a[60])
        np.testing.assert_allclose(a[61:], theta[61:], atol=1e-9)


def _markers_for(schema, side, segment, prox, dist, n, dt=0.01):
    time = np.arange(n) * dt
    pos = {label: np.zeros((n, 3)) for label in schema.labels}
    p_label, d_label = schema.segment_endpoints(side, segment)
    pos[p_label] = np.asarray(prox, dtype=float)
    pos[d_label] = np.asarray(dist, dtype=float)
    return MarkerData(time=time, pos=pos)


class TestSegmentStates:
    params = SegmentParams(mass=3.0, length=0.4, com_offset=0.17,
                           inertia=0.05)

    def test_static_vertical_shank(self):
        schema = MarkerSchema.default()
        n = 30
        prox = np.tile([0.0, 0.0, 0.5], (n, 1))
        dist = np.tile([0.0, 0.0, 0.1], (n, 1))
        m = _markers_for(schema, "left", "shank", prox, dist, n)
        s = segment_states(m, schema, "left", "shank", self.params)
        np.testing.assert_allclose(s.e, [[0.0, 0.0, -1.0]] * n, atol=1e-12)
        np.testing.assert_allclose(s.com_acc, 0.0, atol=1e-9)
        np.testing.assert_allclose(s.omega_dot, 0.0, atol=1e-9)
        np.testing.assert_allclose(s.com_pos,
                                   [[0.0, 0.0, 0.5 - 0.17]] * n, atol=1e-12)

    def test_constant_rotation_circular_motion(self):
        # proximal pinned, distal sweeping at constant omega: the COM
        # acceleration is centripetal, omega_dot ~ 0 (analytic circular
        # motion oracle, interior frames)
        schema = MarkerSchema.default()
        omega, L, dt, n = 2.0, 0.4, 0.002, 400
        t = np.arange(n) * dt
        theta = 0.3 + omega * t
        prox = np.zeros((n, 3))
        dist = np.column_stack([L * np.sin(theta), np.zeros(n),
                                -L * np.cos(theta)])
        m = _markers_for(schema, "left", "shank", prox, dist, n, dt=dt)
        s = segment_states(m, schema, "left", "shank", self.params,
                           filter_window=1)
        mid = slice(50, -50)
        np.testing.assert_allclose(
            np.linalg.norm(s.com_acc[mid], axis=1),
            omega * omega * self.params.com_offset, rtol=1e-4)
        np.testing.assert_allclose(s.omega_dot[mid], 0.0, atol=1e-6)
        np.testing.assert_allclose(np.linalg.norm(s.e, axis=1), 1.0,
                                   atol=1e-9)

    def test_coincident_markers_error(self):
        schema = MarkerSchema.default()
        n = 10
        prox = np.tile([0.0, 0.0, 0.5], (n, 1))
        dist = prox.copy()
        dist[:4] += [0.0, 0.0, -0.4]  # degenerate from frame 4 onward
        m = _markers_for(schema, "left", "shank", prox, dist, n)
        with pytest.raises(SingularSegmentError, match="frame"):
            segment_states(m, schema, "left", "shank", self.params,
                           filter_window=1)


class TestJointAngles:
    def _states(self, e_t, e_s, e_f, n=5):
        def series(e):
            arr = np.tile(e, (n, 1)).astype(float)
            z = np.zeros((n, 3))
            from sandgait.kinematics import SegmentStateSeries
            return SegmentStateSeries(time=np.arange(n) * 0.01, e=arr,
                                      com_pos=z, com_acc=z, omega_dot=z)
        return joint_angles(series(e_t), series(e_s), series(e_f))

    def test_straight_vertical_leg(self):
        down = [0.0, 0.0, -1.0]
        fwd = [1.0, 0.0, 0.0]
        a = self._states(down, down, fwd)
        assert a["hip"][0] == pytest.approx(0.0, abs=1e-9)
        assert a["knee"][0] == pytest.approx(0.0, abs=1e-9)   # full extension
        assert a["ankle"][0] == pytest.approx(0.0, abs=1e-9)  # neutral

    def test_shank_tilt_horizontal_foot_plantarflexed(self):
        # shank tilted 10 deg forward with the foot kept horizontal reads
        # as 10 deg of plantarflexion
        tilt = np.radians(10.0)
        shank = [np.sin(tilt), 0.0, -np.cos(tilt)]
        a = self._states([0.0, 0.0, -1.0], shank, [1.0, 0.0, 0.0])
        assert a["ankle"][0] == pytest.approx(-10.0, abs=1e-9)

    def test_knee_flexion_sign(self):
        tilt = np.radians(30.0)
        thigh = [np.sin(tilt), 0.0, -np.cos(tilt)]
        shank = [0.0, 0.0, -1.0]
        a = self._states(thigh, shank, [1.0, 0.0, 0.0])
        assert a["knee"][0] == pytest.approx(30.0, abs=1e-9)
        assert a["hip"][0] == pytest.approx(30.0, abs=1e-9)

    def test_relative_angles_invariant_under_shared_rotation(self):
        tilt = np.radians(20.0)
        rot = np.radians(7.0)

        def tilted(angle):
            return [np.sin(angle), 0.0, -np.cos(angle)]

        a0 = self._states(tilted(tilt), tilted(0.0), tilted(np.pi / 2))
        a1 = self._states(tilted(tilt + rot), tilted(rot),
                          tilted(np.pi / 2 + rot))
        assert a1["knee"][0] == pytest.approx(a0["knee"][0], abs=1e-9)
        assert a1["ankle"][0] == pytest.approx(a0["ankle"][0], abs=1e-9)


class TestComTrajectory:
    def test_two_segment_toy_mean(self, participant, table):
        from sandgait.kinematics import SegmentStateSeries
        n = 4
        z = np.zeros((n, 3))

        def series(pos):
            return SegmentStateSeries(time=np.arange(n) * 0.01,
                                      e=np.tile([0, 0, -1.0], (n, 1)),
                                      com_pos=np.tile(pos, (n, 1)).astype(float),
                                      com_acc=z, omega_dot=z)

        params = {"shank": SegmentParams(10.0, 0.4, 0.2, 0.1)}
        states = {("left", "shank"): series([1.0, 0.0, 0.0]),
                  ("right", "shank"): series([3.0, 0.0, 0.0])}
        pelvis = np.tile([2.0, 0.0, 1.0], (n, 1))
        # residual 80-20=60 kg at the pelvis; hand-weighted mean
        com = com_trajectory(states, params, 80.0, pelvis)
        expected_x = (10 * 1.0 + 10 * 3.0 + 60 * 2.0) / 80.0
        np.testing.assert_allclose(com[:, 0], expected_x, atol=1e-12)
        np.testing.assert_allclose(com[:, 2], 60.0 * 1.0 / 80.0, atol=1e-12)

    def test_all_mass_on_hat_equals_pelvis(self):
        from sandgait.kinematics import SegmentStateSeries
        n = 3
        z = np.zeros((n, 3))
        s = SegmentStateSeries(time=np.arange(n) * 0.01,
                               e=np.tile([0, 0, -1.0], (n, 1)),
                               com_pos=np.ones((n, 3)), com_acc=z,
                               omega_dot=z)
        params = {"shank": SegmentParams(1e-9, 0.4, 0.2, 0.1)}
        pelvis = np.tile([4.0, 5.0, 6.0], (n, 1))
        com = com_trajectory({("left", "shank"): s}, params, 70.0, pelvis)
        np.testing.assert_allclose(com, pelvis, atol=1e-9)

    def test_overweight_segments_rejected(self):
        from sandgait.kinematics import SegmentStateSeries
        n = 3
        z = np.zeros((n, 3))
        s = SegmentStateSeries(time=np.arange(n) * 0.01,
                               e=np.tile([0, 0, -1.0], (n, 1)),
                               com_pos=np.ones((n, 3)), com_acc=z,
                               omega_dot=z)
        params = {"shank": SegmentParams(100.0, 0.4, 0.2, 0.1)}
        with pytest.raises(ConfigurationError, match="exceed"):
            com_trajectory({("left", "shank"): s}, params, 70.0,
                           np.zeros((n, 3)))


def test_pelvis_midpoint_average():
    schema = MarkerSchema.default()
    n = 6
    time = np.arange(n) * 0.01
    pos = {label: np.zeros((n, 3)) for label in schema.labels}
    for label in schema.pelvis_labels():
        pos[label] = np.tile([1.0, 0.0, 1.0], (n, 1))
    pos[schema.pelvis_labels()[0]] = np.tile([3.0, 0.0, 1.0], (n, 1))
    m = MarkerData(time=time, pos=pos)
    mid = pelvis_midpoint(m, schema, filter_window=1)
    k = len(schema.pelvis_labels())
    expected = (3.0 + (k - 1) * 1.0) / k
    np.testing.assert_allclose(mid[:, 0], expected, atol=1e-12)
