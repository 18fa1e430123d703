import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sandgait.errors import (ConfigurationError, ParameterError,
                             SingularSegmentError)
from sandgait.kinematics import (com_trajectory, differentiate, joint_angles,
                                 moving_average, pitch_angle, segment_states)
from sandgait.model import SegmentParams


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

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e4, 1e4), st.integers(1, 80),
           st.integers(0, 10))
    def test_affine_exact_everywhere(self, a, b, n, half):
        # every window, the shrinking edge ones included, is centred on its
        # sample, so an affine input comes back up to cumsum rounding
        window = 2 * half + 1
        if window > n:
            return
        x = a + b * np.arange(n)
        bound = n * np.abs(x).max() * np.finfo(float).eps
        np.testing.assert_allclose(moving_average(x, window), x,
                                   rtol=0, atol=bound)

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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 30), st.integers(1, 6),
           st.data())
    def test_marker_stack_equals_one_marker_at_a_time(self, half, extra, k,
                                                      data):
        # the analysis smooths every marker of a stage in one (N, k, 3)
        # call; each marker must come out byte for byte as if alone
        window = 2 * half + 1
        n = window + extra
        x = data.draw(arrays(np.float64, (n, k, 3),
                             elements=st.floats(-1e3, 1e3)))
        for _ in range(data.draw(st.integers(0, 8))):
            at = tuple(data.draw(st.integers(0, d - 1)) for d in x.shape)
            x[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        stacked = moving_average(x, window)
        for j in range(k):
            assert (stacked[:, j].tobytes()
                    == moving_average(x[:, j], window).tobytes())


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
        e = np.array([[0.0, -1.0],   # straight down
                      [1.0, 0.0],    # horizontal forward
                      [-1.0, 0.0]])  # horizontal backward
        a = pitch_angle(e)
        assert a[0] == pytest.approx(0.0, abs=1e-12)
        assert a[1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert a[2] == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_unwrap_continuity(self):
        theta = np.linspace(0, 3 * np.pi, 200)
        e = np.column_stack([np.sin(theta), -np.cos(theta)])
        a = pitch_angle(e)
        np.testing.assert_allclose(a, theta, atol=1e-9)

    def test_nan_does_not_poison_unwrap(self):
        theta = np.linspace(0, 3 * np.pi, 200)
        e = np.column_stack([np.sin(theta), -np.cos(theta)])
        e[60] = np.nan
        a = pitch_angle(e)
        assert np.isnan(a[60])
        np.testing.assert_allclose(a[61:], theta[61:], atol=1e-9)


def _segment(prox, dist):
    """A one-segment chain: ``(N, 2, 3)`` from the two marker tracks."""
    return np.stack([np.asarray(prox, dtype=float),
                     np.asarray(dist, dtype=float)], axis=1)


class TestSegmentStates:
    params = SegmentParams(mass=3.0, length=0.4, com_offset=0.17,
                           inertia=0.05)
    labels = ["L-knee", "L-ankle"]

    def test_static_vertical_shank(self):
        n = 30
        prox = np.tile([0.0, 0.0, 0.5], (n, 1))
        dist = np.tile([0.0, 0.0, 0.1], (n, 1))
        (s,), com, pitch = segment_states(_segment(prox, dist),
                                          np.arange(n) * 0.01, [self.params],
                                          self.labels)
        assert com.shape == (n, 1, 2) and pitch.shape == (n, 1)
        np.testing.assert_allclose(s.e, [[0.0, -1.0]] * n, atol=1e-12)
        np.testing.assert_allclose(pitch, 0.0, atol=1e-12)
        np.testing.assert_allclose(s.acc, 0.0, atol=1e-9)
        np.testing.assert_allclose(s.omega_dot, 0.0, atol=1e-9)
        np.testing.assert_allclose(com[:, 0], [[0.0, 0.5 - 0.17]] * n,
                                   atol=1e-12)

    def test_constant_rotation_circular_motion(self):
        # proximal pinned, distal sweeping at constant omega: the COM
        # acceleration is centripetal, omega_dot ~ 0 (analytic circular
        # motion oracle, interior frames)
        omega, L, dt, n = 2.0, 0.4, 0.002, 400
        t = np.arange(n) * dt
        theta = 0.3 + omega * t
        prox = np.zeros((n, 3))
        dist = np.column_stack([L * np.sin(theta), np.zeros(n),
                                -L * np.cos(theta)])
        (s,), _, pitch = segment_states(_segment(prox, dist), t,
                                        [self.params], self.labels)
        mid = slice(50, -50)
        np.testing.assert_allclose(
            np.linalg.norm(s.acc[mid], axis=1),
            omega * omega * self.params.com_offset, rtol=1e-4)
        np.testing.assert_allclose(s.omega_dot[mid], 0.0, atol=1e-6)
        np.testing.assert_allclose(pitch[:, 0], theta, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(s.e, axis=1), 1.0,
                                   atol=1e-9)

    def test_coincident_markers_error(self):
        n = 10
        prox = np.tile([0.0, 0.0, 0.5], (n, 1))
        dist = prox.copy()
        dist[:4] += [0.0, 0.0, -0.4]  # degenerate from frame 4 onward
        with pytest.raises(SingularSegmentError,
                           match=r"^markers 'L-knee'/'L-ankle' are coincident "
                                 r"at frame 4 \(t=0\.040 s\)$"):
            segment_states(_segment(prox, dist), np.arange(n) * 0.01,
                           [self.params], self.labels)

    def test_first_coincident_frame_named_along_the_chain(self):
        # the earliest degenerate frame, and at that frame the most
        # proximal segment, whichever segment degenerates first
        n = 10
        chain = np.zeros((n, 4, 3))
        chain[:, :, 2] = [0.9, 0.5, 0.1, 0.0]
        chain[:, 3, 0] = 0.2
        chain[6:, 1] = chain[6:, 0]  # hip meets knee from frame 6
        chain[3:, 3] = chain[3:, 2]  # ankle meets toe from frame 3
        with pytest.raises(SingularSegmentError,
                           match="'ankle'/'toe' are coincident at frame 3 "):
            segment_states(chain, np.arange(n) * 0.01, [self.params] * 3,
                           ["hip", "knee", "ankle", "toe"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(2, 5),
           st.one_of(st.none(), st.tuples(st.integers(0, 4),
                                          st.integers(0, 39),
                                          st.integers(1, 10))))
    def test_whole_chain_equals_each_segment_alone(self, seed, n, m, gap):
        # column j of a chain's states, COMs and pitches is, bit for bit,
        # column 0 of the chain's markers j and j + 1 alone: the NaN mask
        # and the unwrap of each column are its own
        rng = np.random.default_rng(seed)
        chain = np.cumsum(rng.normal(0.0, 0.3, (n, m, 3)), axis=1)
        chain += rng.normal(0.0, 0.05, (n, 1, 3)).cumsum(axis=0)
        if gap is not None:
            marker, start, length = gap
            chain[start:start + length, marker % m] = np.nan
        time = np.arange(n) * 0.01
        params = [SegmentParams(1.0 + j, 0.4, 0.1 + 0.05 * j, 0.05)
                  for j in range(m - 1)]
        labels = [f"m{k}" for k in range(m)]
        try:
            states, com, pitch = segment_states(chain, time, params, labels)
        except SingularSegmentError:
            return  # a random segment shorter than 1 mm
        assert com.shape == (n, m - 1, 2) and pitch.shape == (n, m - 1)
        for j in range(m - 1):
            (one,), com_j, pitch_j = segment_states(
                chain[:, j:j + 2], time, params[j:j + 1], labels[j:j + 2])
            for f in ("e", "acc", "omega_dot"):
                got, want = getattr(states[j], f), getattr(one, f)
                assert got.tobytes() == want.tobytes(), f
                assert got.flags.c_contiguous and got.base is None, f
            assert com[:, j].tobytes() == com_j[:, 0].tobytes()
            assert pitch[:, j].tobytes() == pitch_j[:, 0].tobytes()


class TestJointAngles:
    def _states(self, e_t, e_s, e_f, n=5):
        # the (n, 3) thigh, shank and foot pitches from one pitch_angle call
        return joint_angles(pitch_angle(
            np.tile([e_t, e_s, e_f], (n, 1, 1)).astype(float)))

    def test_straight_vertical_leg(self):
        down = [0.0, -1.0]
        fwd = [1.0, 0.0]
        a = self._states(down, down, fwd)
        assert a["hip"][0] == pytest.approx(0.0, abs=1e-9)
        assert a["knee"][0] == pytest.approx(0.0, abs=1e-9)   # full extension
        assert a["ankle"][0] == pytest.approx(0.0, abs=1e-9)  # neutral

    def test_shank_tilt_horizontal_foot_plantarflexed(self):
        # shank tilted 10 deg forward with the foot kept horizontal reads
        # as 10 deg of plantarflexion
        tilt = np.radians(10.0)
        shank = [np.sin(tilt), -np.cos(tilt)]
        a = self._states([0.0, -1.0], shank, [1.0, 0.0])
        assert a["ankle"][0] == pytest.approx(-10.0, abs=1e-9)

    def test_knee_flexion_sign(self):
        tilt = np.radians(30.0)
        thigh = [np.sin(tilt), -np.cos(tilt)]
        shank = [0.0, -1.0]
        a = self._states(thigh, shank, [1.0, 0.0])
        assert a["knee"][0] == pytest.approx(30.0, abs=1e-9)
        assert a["hip"][0] == pytest.approx(30.0, abs=1e-9)

    def test_relative_angles_invariant_under_shared_rotation(self):
        tilt = np.radians(20.0)
        rot = np.radians(7.0)

        def tilted(angle):
            return [np.sin(angle), -np.cos(angle)]

        a0 = self._states(tilted(tilt), tilted(0.0), tilted(np.pi / 2))
        a1 = self._states(tilted(tilt + rot), tilted(rot),
                          tilted(np.pi / 2 + rot))
        assert a1["knee"][0] == pytest.approx(a0["knee"][0], abs=1e-9)
        assert a1["ankle"][0] == pytest.approx(a0["ankle"][0], abs=1e-9)


class TestComTrajectory:
    def test_two_segment_toy_mean(self):
        n = 4

        def series(pos):
            return np.tile(pos, (n, 1)).astype(float)

        coms = np.stack([series([1.0, 0.0, 0.0]), series([3.0, 0.0, 0.0])],
                        axis=1)
        pelvis = np.tile([2.0, 0.0, 1.0], (n, 1))
        # residual 80-20=60 kg at the pelvis; hand-weighted mean
        com = com_trajectory(coms, [10.0, 10.0], 80.0, pelvis)
        expected_x = (10 * 1.0 + 10 * 3.0 + 60 * 2.0) / 80.0
        np.testing.assert_allclose(com[:, 0], expected_x, atol=1e-12)
        np.testing.assert_allclose(com[:, 2], 60.0 * 1.0 / 80.0, atol=1e-12)

    def test_columns_summed_in_order(self):
        # the float sum runs over the columns left to right
        coms = np.array([[[1e16], [1.0], [-1e16]]])
        com = com_trajectory(coms, [1.0, 1.0, 1.0], 3.0, np.zeros((1, 1)))
        assert com[0, 0] == ((1e16 + 1.0) - 1e16) / 3.0

    def test_all_mass_on_hat_equals_pelvis(self):
        n = 3
        pelvis = np.tile([4.0, 5.0, 6.0], (n, 1))
        com = com_trajectory(np.ones((n, 1, 3)), [1e-9], 70.0, pelvis)
        np.testing.assert_allclose(com, pelvis, atol=1e-9)

    def test_overweight_segments_rejected(self):
        n = 3
        with pytest.raises(ConfigurationError, match="exceed"):
            com_trajectory(np.ones((n, 1, 3)), [100.0], 70.0,
                           np.zeros((n, 3)))
