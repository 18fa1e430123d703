import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import t as student_t

from sandgait.errors import (FitError, InsufficientDataError, ParameterError)
from sandgait.gaitseg import SideEvents, cycle_table
from sandgait.metrics import (knee_stiffness, paired_compare, peak_angles,
                              stride_metrics)
from sandgait.model import Participant


def _cycles(hs_r, to_r, hs_l, to_l):
    """Each side's cycle table, the other side contralateral."""
    right = SideEvents(heel_strikes=np.array(hs_r, dtype=float),
                       toe_offs=np.array(to_r, dtype=float))
    left = SideEvents(heel_strikes=np.array(hs_l, dtype=float),
                      toe_offs=np.array(to_l, dtype=float))
    return {"left": cycle_table(left, right), "right": cycle_table(right, left)}


class TestStrideMetrics:
    participant = Participant(id="x", height=1.717, mass=70.0)

    def _inputs(self, n=300, dt=0.01, vx=1.27 / 1.15):
        time = np.arange(n) * dt
        heel = {side: np.column_stack([vx * time,
                                       np.full(n, 0.06 if side == "right"
                                               else -0.06),
                                       np.zeros(n)])
                for side in ("left", "right")}
        com = np.column_stack([vx * time, np.full(n, 0.95)])
        pelvis = com.copy()
        return time, heel, com, pelvis

    def test_paper_normalized_stride_length(self):
        # heel advances 1.27 m over one cycle; height 1.717 m
        time, heel, com, pelvis = self._inputs()
        cycles = _cycles([0.0, 1.15], [0.67], [0.55], [1.2])
        rows = stride_metrics(cycles, heel, com, pelvis, time,
                              self.participant)
        r = [row for row in rows if row["side"] == "right"][0]
        assert r["stride_length"] == pytest.approx(1.27, abs=1e-9)
        assert r["stride_length_norm"] == pytest.approx(0.7397, abs=1e-4)

    def test_stride_width_from_lateral_offsets(self):
        time, heel, com, pelvis = self._inputs()
        cycles = _cycles([0.0, 1.15], [0.67], [0.55], [1.2])
        r = [row for row in stride_metrics(cycles, heel, com, pelvis, time,
                                           self.participant)
             if row["side"] == "right"][0]
        assert r["stride_width"] == pytest.approx(0.12, abs=1e-9)

    def test_flat_com_zero_variation(self):
        time, heel, com, pelvis = self._inputs()
        cycles = _cycles([0.0, 1.15], [0.67], [0.55], [1.2])
        r = stride_metrics(cycles, heel, com, pelvis, time,
                           self.participant)[0]
        assert r["com_variation"] == pytest.approx(0.0, abs=1e-12)

    def test_stride_without_com_frame(self):
        # no finite COM frame in the stride: NaN, and no numpy warning
        time, heel, com, pelvis = self._inputs()
        com[time <= 1.15, 1] = np.nan
        cycles = _cycles([0.0, 1.15], [0.67], [0.55], [1.2])
        r = stride_metrics(cycles, heel, com, pelvis, time,
                           self.participant)[0]
        assert math.isnan(r["com_variation"])
        assert r["stride_length"] == pytest.approx(1.27, abs=1e-9)

    def test_durations_and_velocity(self):
        time, heel, com, pelvis = self._inputs()
        cycles = _cycles([0.0, 1.15], [0.67], [0.55], [1.2])
        r = [row for row in stride_metrics(cycles, heel, com, pelvis, time,
                                           self.participant)
             if row["side"] == "right"][0]
        assert r["stance_time"] == pytest.approx(0.67)
        assert r["swing_time"] == pytest.approx(0.48)
        assert r["avg_velocity"] == pytest.approx(1.27 / 1.15, rel=1e-9)

    def test_normalized_times_height(self):
        time, heel, com, pelvis = self._inputs()
        cycles = _cycles([0.0, 1.15], [0.67], [0.55], [1.2])
        r = stride_metrics(cycles, heel, com, pelvis, time,
                           self.participant)[0]
        for key in ("stride_length", "stride_width", "com_variation",
                    "avg_velocity"):
            assert r[key + "_norm"] * 1.717 == pytest.approx(r[key],
                                                             rel=1e-12)

    def test_no_complete_cycle(self):
        time, heel, com, pelvis = self._inputs()
        cycles = _cycles([0.0], [0.67], [0.55], [])
        with pytest.raises(InsufficientDataError):
            stride_metrics(cycles, heel, com, pelvis, time, self.participant)


class TestPeakAngles:
    def test_constant(self):
        assert peak_angles({"hip": np.full(101, 10.0)})["hip"] == 10.0

    def test_scripted_knee_peak(self):
        phase = np.linspace(0, 1, 101)
        curve = 75.21 * np.sin(np.pi * phase) ** 2
        assert peak_angles({"knee": curve})["knee"] == \
            pytest.approx(75.21, abs=1e-9)

    def test_sine_amplitude(self):
        phase = np.linspace(0, 1, 101)
        # a whole period lands on the grid, so the peak equals A exactly
        curve = 3.0 * np.sin(2 * np.pi * phase * 25)
        assert peak_angles({"ankle": curve})["ankle"] == \
            pytest.approx(3.0, abs=1e-9)

    def test_all_nan_curve(self):
        # NaN, with no numpy warning (an error under the test settings)
        peaks = peak_angles({"knee": np.full(101, np.nan),
                             "hip": np.r_[np.nan, 5.0, np.nan]})
        assert math.isnan(peaks["knee"]) and peaks["hip"] == 5.0

    def test_phase_shift_invariance(self):
        phase = np.linspace(0, 1, 101)
        a = peak_angles({"hip": np.sin(2 * np.pi * phase)})["hip"]
        b = peak_angles({"hip": np.sin(2 * np.pi * phase + 1.3)})["hip"]
        assert b == pytest.approx(a, abs=2e-3)


class TestStiffness:
    def _cycles(self):
        # right stance 0.0 -> 0.7; left TO 0.15, left HS 0.6; next right
        # HS 1.2
        return _cycles([0.0, 1.2], [0.7], [0.6, 1.8], [0.15, 1.35])["right"]

    def test_exact_linear_flexion_slope(self):
        time = np.arange(0, 1.3, 0.01)
        angle = 5.0 + 30.0 * time
        moment = 0.15 * angle  # exactly linear in angle
        res = knee_stiffness(time, angle, moment, self._cycles(), "right")
        assert res.k_flexion.slope == pytest.approx(0.15, rel=1e-9)
        assert res.k_extension.slope == pytest.approx(0.15, rel=1e-9)

    def test_constant_angle_degenerate(self):
        time = np.arange(0, 1.3, 0.01)
        angle = np.full_like(time, 20.0)
        with pytest.raises(FitError, match="constant"):
            knee_stiffness(time, angle, 0.15 * angle, self._cycles(),
                           "right")

    def test_matches_independent_ols(self, rng):
        time = np.arange(0, 1.3, 0.01)
        angle = 5.0 + 30.0 * time + rng.normal(0, 0.5, size=time.size)
        moment = 0.15 * angle + rng.normal(0, 0.05, size=time.size)
        res = knee_stiffness(time, angle, moment, self._cycles(), "right")
        sel = (time >= 0.0) & (time <= 0.15)
        slope = np.polyfit(angle[sel], moment[sel], 1)[0]
        assert res.k_flexion.slope == pytest.approx(slope, rel=1e-9)

    def test_intercept_absorbed(self):
        time = np.arange(0, 1.3, 0.01)
        angle = 5.0 + 30.0 * time
        res1 = knee_stiffness(time, angle, 0.15 * angle, self._cycles(),
                              "right")
        res2 = knee_stiffness(time, angle, 0.15 * angle + 2.0,
                              self._cycles(), "right")
        assert res2.k_flexion.slope == pytest.approx(res1.k_flexion.slope,
                                                     rel=1e-12)


def _t_sf_by_quadrature(t_stat, dof):
    """Independent two-sided p: numerically integrate the t density."""
    def pdf(x):
        c = math.exp(gammaln((dof + 1) / 2) - gammaln(dof / 2)) \
            / math.sqrt(dof * math.pi)
        return c * (1 + x * x / dof) ** (-(dof + 1) / 2)
    tail, _ = quad(pdf, abs(t_stat), np.inf)
    return 2.0 * tail


class TestPairedCompare:
    def test_identical_inputs(self):
        out = paired_compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out["t"] == 0.0 and out["p"] == 1.0 and out["cohens_d"] == 0.0
        assert not out["significant"]

    @pytest.mark.parametrize("shift, t", [(1.0, math.inf), (-1.0, -math.inf)])
    def test_zero_variance_nonzero_mean(self, shift, t):
        # every difference the same nonzero amount: a certain difference,
        # t infinite with its sign, p = 0
        out = paired_compare([1.0, 2.0, 3.0], [1.0 - shift, 2.0 - shift,
                                               3.0 - shift])
        assert (out["t"], out["p"], out["significant"]) == (t, 0.0, True)
        assert out["cohens_d"] == pytest.approx(shift)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_equal_round_off_differences_are_none(self, sign):
        # the 1.16e-13 BW that a zeta round trip leaves on a 1.03 BW peak,
        # alike in both pairs, is no difference; 1e-9 of the values, as
        # %.9g text can differ, is one
        a = [1.0344915467679] * 2
        out = paired_compare(a, [a[0] + sign * 1.16e-13] * 2)
        assert (out["t"], out["p"], out["cohens_d"], out["significant"]) == \
            (0.0, 1.0, 0.0, False)
        out = paired_compare(a, [a[0] + sign * 1.03e-9] * 2)
        assert (out["t"], out["p"], out["significant"]) == \
            (-sign * math.inf, 0.0, True)

    def test_five_pair_worked_example(self):
        # hand-derived: d = a-b = [0.5, 0.9, 0.1, 0.7, 0.3]
        a = [10.5, 11.9, 10.1, 11.7, 10.3]
        b = [10.0, 11.0, 10.0, 11.0, 10.0]
        out = paired_compare(a, b)
        d = np.array(a) - np.array(b)
        t_expected = d.mean() / (d.std(ddof=1) / math.sqrt(5))
        assert out["t"] == pytest.approx(t_expected, abs=1e-12)
        assert out["p"] == pytest.approx(_t_sf_by_quadrature(t_expected, 4),
                                         abs=1e-6)
        s_a, s_b = np.std(a, ddof=1), np.std(b, ddof=1)
        pooled = math.sqrt((s_a ** 2 + s_b ** 2) / 2)
        d_expected = (np.mean(a) - np.mean(b)) / pooled
        assert out["cohens_d"] == pytest.approx(d_expected, abs=1e-12)

    def test_antisymmetry(self, rng):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        ab = paired_compare(a, b)
        ba = paired_compare(b, a)
        assert ab["t"] == pytest.approx(-ba["t"], abs=1e-12)
        assert ab["cohens_d"] == pytest.approx(-ba["cohens_d"], abs=1e-12)
        assert ab["p"] == pytest.approx(ba["p"], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 20).flatmap(lambda n: st.tuples(*[arrays(
        np.float64, n, elements=st.floats(-1e6, 1e6))] * 2)))
    def test_swapping_conditions_negates_t_and_d(self, ab):
        # b - a is exactly -(a - b), so t and d negate and p repeats exactly
        a, b = ab
        fwd = paired_compare(a, b)
        rev = paired_compare(b, a)
        assert rev["t"] == -fwd["t"]
        assert rev["cohens_d"] == -fwd["cohens_d"]
        assert rev["p"] == fwd["p"]

    def test_known_shift_significant(self):
        a = [1.0, 1.1, 0.9, 1.05, 0.95]
        b = [2.0, 2.1, 1.95, 2.02, 1.9]
        out = paired_compare(a, b)
        assert out["significant"] and out["p"] < 0.001

    def test_p_of_a_large_t_without_cancellation(self, rng):
        # 1 - cdf rounds to 0 (or 2.2e-16) long before the tail does
        z = rng.normal(size=20)
        z = (z - z.mean()) / z.std(ddof=1)
        b = rng.normal(size=20)
        out = paired_compare(b + 1.0 + z * math.sqrt(20) / 40.0, b)
        assert abs(out["t"]) == pytest.approx(40.0, rel=1e-6)
        assert out["p"] > 0.0
        assert out["p"] == pytest.approx(
            2.0 * student_t.sf(abs(out["t"]), 19), rel=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            paired_compare([1.0, 2.0], [1.0])
        with pytest.raises(ParameterError):
            paired_compare([1.0], [2.0])
