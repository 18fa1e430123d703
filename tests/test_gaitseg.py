import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sandgait.errors import (InsufficientDataError, ParameterError,
                             SegmentationError)
from sandgait.gaitseg import (PHASE_GRID, EventThresholds, GaitEvents,
                              SideEvents, _local_extrema, detect_side_events,
                              grf_stance_check, phase_normalize,
                              stance_swing_durations)


def _scripted_side(n_strides=3, dt=0.01, period=1.2, stance_frac=0.6):
    """Heel/toe series with heel-strike minima at k*period and toe-off
    vertical-velocity onsets at k*period + stance_frac*period."""
    t = np.arange(int(n_strides * period / dt) + 1) * dt
    phase = (t / period) % 1.0
    swing = phase >= stance_frac
    bump = np.where(swing, np.sin(np.pi * (phase - stance_frac)
                                  / (1 - stance_frac)) ** 2, 0.0)
    # heel: flat and still through stance, arcs through swing; strikes
    # land at k*period where the arc returns to the floor
    heel_z = 0.02 + 0.10 * bump
    heel_vx = np.where(swing, 1.5, 0.0)
    toe_z = 0.02 + 0.12 * bump
    return t, heel_z, toe_z, heel_vx


def _local_minima_loop(x):
    """Reference: strict local minima by a walk over the samples; a flat
    plateau counts once, at its first sample."""
    out = []
    n = len(x)
    i = 1
    while i < n - 1:
        if x[i] < x[i - 1]:
            j = i
            while j + 1 < n and x[j + 1] == x[j]:
                j += 1
            if j < n - 1 and x[j + 1] > x[j]:
                out.append(i)
            i = j + 1
        else:
            i += 1
    return out


def _local_maxima_loop(x):
    """Reference: the mirror of ``_local_minima_loop``."""
    out = []
    n = len(x)
    i = 1
    while i < n - 1:
        if x[i] > x[i - 1]:
            j = i
            while j + 1 < n and x[j + 1] == x[j]:
                j += 1
            if j < n - 1 and x[j + 1] < x[j]:
                out.append(i)
            i = j + 1
        else:
            i += 1
    return out


class TestLocalExtrema:
    # few levels, so plateaus are common; NaN and inf compare as in the loops
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, np.nan,
                                            np.inf, -np.inf])))
    def test_matches_sample_walks(self, x):
        assert _local_extrema(x, 1).tolist() == _local_minima_loop(x)
        assert _local_extrema(x, -1).tolist() == _local_maxima_loop(x)

    @pytest.mark.parametrize("x, minima", [
        ([3, 1, 1, 1, 2], [1]),        # flat minimum: its first sample
        ([3, 1, 1], []),               # flat to the end: no minimum
        ([3, 1, np.nan, 2], []),       # a NaN ends the run, never higher
        ([3, np.nan, 1, 2], []),       # nor lower
        ([2, 1, 2, 1, 2], [1, 3]),
        ([1, 2], []),
    ])
    def test_cases(self, x, minima):
        x = np.array(x, dtype=float)
        assert _local_extrema(x, 1).tolist() == minima
        assert _local_extrema(-x, -1).tolist() == minima


class TestDetect:
    def test_scripted_events_within_one_frame(self):
        t, heel_z, toe_z, heel_vx = _scripted_side()
        ev = detect_side_events(t, heel_z, toe_z, heel_vx, EventThresholds())
        for hs in ev.heel_strikes:
            k = round(hs / 1.2)
            assert abs(hs - k * 1.2) <= 0.011
        for to in ev.toe_offs:
            k = round((to - 0.72) / 1.2)
            assert abs(to - (k * 1.2 + 0.72)) <= 0.011

    def test_alternation(self):
        t, heel_z, toe_z, heel_vx = _scripted_side(4)
        ev = detect_side_events(t, heel_z, toe_z, heel_vx, EventThresholds())
        merged = sorted([(x, "hs") for x in ev.heel_strikes]
                        + [(x, "to") for x in ev.toe_offs])
        kinds = [k for _, k in merged]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b

    def test_flat_trial_errors(self):
        t = np.arange(300) * 0.01
        flat = np.full_like(t, 0.05)
        with pytest.raises(SegmentationError, match="no heel strikes"):
            detect_side_events(t, flat, flat, np.zeros_like(t),
                               EventThresholds())

    def test_flat_minimum_and_nan_samples(self):
        # the heel rests flat through stance, so each strike is the first
        # sample of a plateau; NaN samples in mid-swing change nothing
        t, heel_z, toe_z, heel_vx = _scripted_side()
        clean = detect_side_events(t, heel_z, toe_z, heel_vx,
                                   EventThresholds())
        i = np.searchsorted(t, clean.heel_strikes)
        assert np.all(heel_z[i] == heel_z[i + 1])
        assert np.all(heel_z[i - 1] > heel_z[i])
        for arr in (heel_z, toe_z, heel_vx):
            arr[[96, 216, 217]] = np.nan
        ev = detect_side_events(t, heel_z, toe_z, heel_vx, EventThresholds())
        np.testing.assert_array_equal(ev.heel_strikes, clean.heel_strikes)
        np.testing.assert_array_equal(ev.toe_offs, clean.toe_offs)

    def test_fast_heel_minimum_rejected(self):
        # a mid-swing dip with high forward speed must not become a strike
        t, heel_z, toe_z, heel_vx = _scripted_side()
        dip = np.exp(-((t - 0.95) / 0.02) ** 2) * 0.08
        ev = detect_side_events(t, heel_z - dip, toe_z, heel_vx,
                                EventThresholds())
        assert not np.any(np.abs(ev.heel_strikes - 0.95) < 0.05)

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            EventThresholds(hs_forward_speed=-0.1)


class TestPhaseNormalize:
    def test_grid_is_101_points_zero_to_one(self):
        assert len(PHASE_GRID) == 101
        assert PHASE_GRID[0] == 0.0 and PHASE_GRID[-1] == 1.0
        assert np.all(np.diff(PHASE_GRID) > 0)

    def test_constant_series(self):
        t = np.arange(100) * 0.01
        c = phase_normalize(t, np.full_like(t, 7.5), (0.1, 0.8))
        np.testing.assert_allclose(c.values, 7.5, atol=1e-12)

    def test_identity_ramp(self):
        t = np.arange(100) * 0.01
        c = phase_normalize(t, t.copy(), (0.2, 0.7))
        np.testing.assert_allclose(c.values, 0.2 + 0.5 * PHASE_GRID,
                                   atol=1e-12)

    def test_sine_against_analytic(self):
        t = np.arange(101) * 0.01  # one second at 100 Hz
        c = phase_normalize(t, np.sin(2 * np.pi * t), (0.0, 1.0))
        np.testing.assert_allclose(c.values, np.sin(2 * np.pi * PHASE_GRID),
                                   atol=1e-3)

    def test_shift_invariance(self):
        t = np.arange(200) * 0.01
        v = np.sin(3 * t) + t
        a = phase_normalize(t, v, (0.3, 1.1))
        b = phase_normalize(t + 5.0, v, (5.3, 6.1))
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_window_outside_series(self):
        t = np.arange(50) * 0.01
        with pytest.raises(ParameterError, match="outside"):
            phase_normalize(t, t, (0.3, 2.0))

    def test_empty_window(self):
        t = np.arange(50) * 0.01
        with pytest.raises(ParameterError):
            phase_normalize(t, t, (0.3, 0.3))


class TestDurations:
    def test_constructed_example(self):
        # HS 0 s, TO 0.67 s, HS 1.15 s -> stance 0.67 s, swing 0.48 s
        ev = SideEvents(heel_strikes=np.array([0.0, 1.15]),
                        toe_offs=np.array([0.67]))
        out = stance_swing_durations(ev)
        assert out[0]["stance_s"] == pytest.approx(0.67)
        assert out[0]["swing_s"] == pytest.approx(0.48)

    def test_half_fraction(self):
        ev = SideEvents(heel_strikes=np.array([0.0, 1.0]),
                        toe_offs=np.array([0.5]))
        assert stance_swing_durations(ev)[0]["stance_fraction"] == \
            pytest.approx(0.5)

    def test_needs_two_strikes(self):
        ev = SideEvents(heel_strikes=np.array([0.0]),
                        toe_offs=np.array([0.5]))
        with pytest.raises(InsufficientDataError):
            stance_swing_durations(ev)

    def test_missing_toe_off_in_cycle(self):
        ev = SideEvents(heel_strikes=np.array([0.0, 1.0]),
                        toe_offs=np.array([1.5]))
        with pytest.raises(SegmentationError):
            stance_swing_durations(ev)


class TestGrfCheck:
    def test_agreement_silent(self):
        t = np.arange(2000) * 0.001
        fz = np.where((t > 0.5) & (t < 1.2), 700.0, 0.0)
        ev = SideEvents(heel_strikes=np.array([0.501]),
                        toe_offs=np.array([1.2]))
        assert grf_stance_check(ev, t, fz, 700.0) == []

    def test_disagreement_warns(self):
        t = np.arange(2000) * 0.001
        fz = np.where((t > 0.5) & (t < 1.2), 700.0, 0.0)
        ev = SideEvents(heel_strikes=np.array([0.65]),
                        toe_offs=np.array([1.2]))
        warnings = grf_stance_check(ev, t, fz, 700.0)
        assert len(warnings) == 1 and "0.650" in warnings[0]


def test_gait_events_side_lookup():
    left = SideEvents(heel_strikes=np.array([0.0]), toe_offs=np.array([]))
    right = SideEvents(heel_strikes=np.array([0.5]), toe_offs=np.array([]))
    ev = GaitEvents(left=left, right=right)
    assert ev.side("left") is left
    with pytest.raises(SegmentationError):
        GaitEvents(left=left).side("right")
