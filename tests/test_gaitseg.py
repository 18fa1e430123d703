import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sandgait import metrics, pipeline
from sandgait.errors import (GaitError, InsufficientDataError, ParameterError,
                             SegmentationError)
from sandgait.gaitseg import (C_HS, C_HS_AFTER_TO, C_TO, HS, NEXT_HS,
                              PHASE_GRID, TO, EventThresholds, GaitEvents,
                              SideEvents, _local_extrema, cycle_table,
                              detect_side_events, grf_stance_check,
                              phase_normalize, stance_swing_durations,
                              stance_windows)
from sandgait.model import Participant


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


# The per-cycle loops that paired heel strikes and toe-offs before the cycle
# table, each with its own toe-off rule, kept as the oracle of
# ``TestCycleTable.test_matches_pairing_loops``.

def _at(time, series, t):
    if series.ndim == 1:
        return np.interp(t, time, series)
    return np.array([np.interp(t, time, series[:, k])
                     for k in range(series.shape[1])])


def _stride_metrics_loop(events, heel_pos, com, pelvis_mid, time, participant):
    """Stance is the first toe-off inside the stride, or NaN."""
    h = participant.height
    rows = []
    any_complete = False
    for side in ("left", "right"):
        ev = getattr(events, side)
        if ev is None or len(ev.heel_strikes) < 2:
            continue
        other = "right" if side == "left" else "left"
        ev_o = getattr(events, other)
        for hs0, hs1 in zip(ev.heel_strikes, ev.heel_strikes[1:]):
            any_complete = True
            tos = ev.toe_offs[(ev.toe_offs > hs0) & (ev.toe_offs < hs1)]
            stance = float(tos[0] - hs0) if tos.size else math.nan
            swing = float(hs1 - tos[0]) if tos.size else math.nan
            p0 = _at(time, heel_pos[side], hs0)
            p1 = _at(time, heel_pos[side], hs1)
            length = float(abs(p1[0] - p0[0]))
            width = math.nan
            if ev_o is not None:
                mid = ev_o.heel_strikes[(ev_o.heel_strikes > hs0)
                                        & (ev_o.heel_strikes < hs1)]
                if mid.size:
                    po = _at(time, heel_pos[other], float(mid[0]))
                    width = float(abs(po[1] - p0[1]))
            sel = (time >= hs0) & (time <= hs1)
            com_z = com[sel, 2]
            com_var = float(np.nanmax(com_z) - np.nanmin(com_z)) if sel.any() else math.nan
            vel = float((_at(time, pelvis_mid, hs1)[0]
                         - _at(time, pelvis_mid, hs0)[0]) / (hs1 - hs0))
            rows.append({
                "side": side, "cycle_start_s": float(hs0),
                "stride_length": length, "stride_length_norm": length / h,
                "stride_width": width, "stride_width_norm": width / h,
                "stance_time": stance, "swing_time": swing,
                "com_variation": com_var, "com_variation_norm": com_var / h,
                "avg_velocity": vel, "avg_velocity_norm": vel / h,
            })
    if not any_complete:
        raise InsufficientDataError("no complete ipsilateral gait cycle")
    return rows


def _stance_swing_loop(ev):
    """Exactly one toe-off between two heel strikes, else an error."""
    if len(ev.heel_strikes) < 2:
        raise InsufficientDataError(
            f"need at least 2 heel strikes, got {len(ev.heel_strikes)}")
    out = []
    for hs0, hs1 in zip(ev.heel_strikes, ev.heel_strikes[1:]):
        tos = ev.toe_offs[(ev.toe_offs > hs0) & (ev.toe_offs < hs1)]
        if tos.size != 1:
            raise SegmentationError(
                f"expected one toe-off in cycle [{hs0:.3f}, {hs1:.3f}] s, "
                f"found {tos.size}")
        to = float(tos[0])
        stance = to - hs0
        swing = hs1 - to
        out.append({"stance_s": stance, "swing_s": swing,
                    "stance_fraction": stance / (hs1 - hs0)})
    return out


def _knee_stiffness_loop(time, knee_angle, knee_moment_norm, events,
                         side="right"):
    """A chain of first-event-after filters over the first cycle."""
    ips = events.side(side)
    con = events.side("left" if side == "right" else "right")
    if len(ips.heel_strikes) < 1:
        raise InsufficientDataError(f"no {side} heel strike")
    hs_i = float(ips.heel_strikes[0])
    con_to = con.toe_offs[con.toe_offs > hs_i]
    if con_to.size == 0:
        raise InsufficientDataError("no contralateral toe-off after heel strike")
    to_c = float(con_to[0])
    con_hs = con.heel_strikes[con.heel_strikes > to_c]
    if con_hs.size == 0:
        raise InsufficientDataError("no contralateral heel strike after toe-off")
    hs_c = float(con_hs[0])
    ips_to = ips.toe_offs[ips.toe_offs > hs_i]
    if ips_to.size == 0:
        raise InsufficientDataError(f"no {side} toe-off after heel strike")
    to_i = float(ips_to[0])
    ips_hs2 = ips.heel_strikes[ips.heel_strikes > to_i]
    if ips_hs2.size == 0:
        raise InsufficientDataError(f"no {side} heel strike after toe-off")
    hs_i2 = float(ips_hs2[0])

    def window(t0, t1, label):
        sel = (time >= t0) & (time <= t1)
        return metrics._ols_slope(knee_angle[sel], knee_moment_norm[sel], label)

    return metrics.StiffnessResult(
        k_flexion=window(hs_i, to_c, "flexion (HS -> contralateral TO)"),
        k_extension=window(to_c, hs_c, "extension (contralateral TO -> HS)"),
        k_swing=window(to_i, hs_i2, "swing (TO -> next HS)"),
        side=side)


def _plate_stance_loop(ev, time, on_plate):
    """The first toe-off after each heel strike."""
    for hs in ev.heel_strikes:
        tos = ev.toe_offs[ev.toe_offs > hs]
        if tos.size and np.any(on_plate & (time >= hs) & (time <= tos[0])):
            return float(hs), float(tos[0])
    return None


def _stance_windows_loop(ev):
    """The synthetic generator's stance windows."""
    windows = []
    for hs in ev.heel_strikes:
        later = ev.toe_offs[ev.toe_offs > hs]
        if later.size:
            windows.append((float(hs), float(later[0])))
    return windows


def _outcome(f, *args, **kwargs):
    """What ``f`` returns as exact JSON (floats by repr, NaN included), or
    the error it raises."""
    try:
        return json.dumps(f(*args, **kwargs), default=asdict)
    except GaitError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _alternating_side(draw):
    """Alternating events on a 10 ms grid, 10 to 600 ms apart, starting with
    a heel strike or a toe-off; the two sides are drawn independently, so
    either side's next event after the other's heel strike may be a heel
    strike or a toe-off, or the two may coincide."""
    frames = np.cumsum(draw(st.lists(st.integers(1, 60), max_size=9)),
                       dtype=np.int64)
    first = draw(st.integers(0, 1))
    return SideEvents(heel_strikes=frames[first::2] * 0.01,
                      toe_offs=frames[1 - first::2] * 0.01)


def _side(hs, to):
    return SideEvents(heel_strikes=np.array(hs), toe_offs=np.array(to))


class TestCycleTable:
    def test_columns(self):
        # right HS 0.1 s; the left's first event after it is a heel strike
        # (0.6 s), so the width and stiffness columns differ
        right = _side([0.1, 1.3], [0.8])
        left = _side([0.6, 1.4], [0.75])
        table = cycle_table(right, left)
        assert table.shape == (2, 6)
        np.testing.assert_array_equal(table[0, [HS, TO, NEXT_HS, C_HS, C_TO,
                                                C_HS_AFTER_TO]],
                                      [0.1, 0.8, 1.3, 0.6, 0.75, 1.4])
        np.testing.assert_array_equal(table[1],
                                      [1.3, np.nan, np.nan, 1.4, np.nan, np.nan])

    def test_without_contralateral_side(self):
        table = cycle_table(_side([0.1, 1.3], [0.8]))
        assert np.isnan(table[:, [C_HS, C_TO, C_HS_AFTER_TO]]).all()

    def test_no_heel_strikes(self):
        assert cycle_table(_side([], [0.4])).shape == (0, 6)

    @pytest.mark.parametrize("ipsi, contra", [
        (_side([0.0, 1.0], [1.5]), None),           # two strikes in a row
        (_side([0.0, 1.0], [0.5]), _side([0.2], [0.3, 0.4])),
        (_side([0.0, 0.5], [0.5]), None),           # coincident events
        (_side([1.2, 0.0], [0.6]), None),           # out of time order
    ])
    def test_non_alternating_raises(self, ipsi, contra):
        with pytest.raises(SegmentationError, match="do not alternate"):
            cycle_table(ipsi, contra)

    @settings(max_examples=300, deadline=None)
    @given(*[st.lists(st.integers(0, 8).map(float), max_size=5)
             .flatmap(lambda x: st.sampled_from([x, sorted(x)]))] * 2)
    @example(hs=[0.0, 1.0], to=[1.0])  # ties between the two kinds
    @example(hs=[1.0], to=[0.0, 1.0])
    def test_alternation_check_matches_merge_walk(self, hs, to):
        # the check before the cycle table walked the time-sorted merge of
        # both kinds; it now also needs each kind listed in time order
        merged = sorted([(t, "hs") for t in hs] + [(t, "to") for t in to])
        walk = all(k0 != k1 and t1 > t0
                   for (t0, k0), (t1, k1) in zip(merged, merged[1:]))
        expected = walk and hs == sorted(hs) and to == sorted(to)
        try:
            cycle_table(_side(hs, to))
        except SegmentationError:
            assert not expected
        else:
            assert expected

    @pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(right=_alternating_side(), left=st.none() | _alternating_side(),
           seed=st.integers(0, 2 ** 32 - 1),
           plate=st.sampled_from([0.0, 0.01, 0.3]))
    @example(right=_side([0.1, 1.3], [0.8]), left=_side([0.6, 1.4], [0.75]),
             seed=0, plate=0.01)
    def test_matches_pairing_loops(self, right, left, seed, plate):
        rng = np.random.default_rng(seed)
        time = np.arange(600) * 0.01
        events = GaitEvents(left=left, right=right)
        heel = {side: rng.normal(size=(600, 3)) for side in ("left", "right")}
        com = rng.normal(size=(600, 3))
        com[rng.random(600) < 0.2, 2] = np.nan
        pelvis = rng.normal(size=(600, 3))
        who = Participant(id="p", height=1.7, mass=70.0)
        assert _outcome(metrics.stride_metrics, events, heel, com, pelvis,
                        time, who) == \
            _outcome(_stride_metrics_loop, events, heel, com, pelvis, time, who)
        angle, moment = rng.normal(size=(2, 600))
        for side in ("left", "right"):
            assert _outcome(metrics.knee_stiffness, time, angle, moment,
                            events, side=side) == \
                _outcome(_knee_stiffness_loop, time, angle, moment, events,
                         side=side)
        on_plate = rng.random(600) < plate
        for ev in filter(None, (left, right)):
            assert _outcome(stance_swing_durations, ev) == \
                _outcome(_stance_swing_loop, ev)
            assert _outcome(pipeline._plate_stance, ev, time, on_plate) == \
                _outcome(_plate_stance_loop, ev, time, on_plate)
            assert stance_windows(ev).tolist() == \
                [list(w) for w in _stance_windows_loop(ev)]
