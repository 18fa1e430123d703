import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sandgait.errors import (ExtrapolationError, FitError, FormatError,
                             GaitError, GaitInputError, ParameterError)
from sandgait.forces import (CalibrationCurve, calibrate_grf, cop_moment,
                             default_calibration_curve, extract_grf_features,
                             fit_calibration, normalize_grf,
                             read_calibration_curve, read_calibration_samples,
                             write_calibration_curve)
from sandgait.model import Participant


def _stepped_samples(depth, zeta, noise=0.0, rng=None):
    """Loading/unloading ramp 0..200 N in 25 N steps, like a deadweight
    calibration run."""
    loads = list(np.arange(0.0, 201.0, 25.0)) + \
        list(np.arange(200.0, -1.0, -25.0))
    out = []
    for fs in loads:
        fb = zeta * fs
        if noise and rng is not None:
            fb *= 1.0 + noise * rng.standard_normal()
        out.append((depth, fs, fb))
    return out


class TestFit:
    def test_exact_ratio_recovered(self):
        curve = fit_calibration(_stepped_samples(14.0, 0.81))
        assert curve.zeta_at(14.0) == pytest.approx(0.81, abs=1e-12)

    def test_depth_zero_identity(self):
        curve = fit_calibration(_stepped_samples(0.0, 1.0))
        assert curve.zeta_at(0.0) == 1.0
        assert len(curve.depths) == 1

    def test_matches_independent_least_squares(self, rng):
        # oracle: through-origin slope via lstsq on the design column
        samples = _stepped_samples(10.0, 0.9, noise=0.02, rng=rng)
        fs = np.array([s[1] for s in samples])
        fb = np.array([s[2] for s in samples])
        slope = np.linalg.lstsq(fs[:, None], fb, rcond=None)[0][0]
        curve = fit_calibration(samples)
        assert curve.zeta_at(10.0) == pytest.approx(slope, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([4.0, 8.0, 14.0, 20.0]),
                              st.floats(1.0, 1000.0), st.floats(0.5, 1.0),
                              st.floats(-0.01, 0.01)), min_size=1, max_size=30),
           st.integers(-20, 20))
    def test_zeta_invariant_under_force_scale(self, draws, log2_scale):
        # a power-of-two scale multiplies exactly, so zeta is unchanged to
        # the bit and the residual scales with the forces
        k = 2.0 ** log2_scale
        samples = [(d, fs, z * fs * (1 + e)) for d, fs, z, e in draws]
        curve = fit_calibration(samples)
        scaled = fit_calibration([(d, k * fs, k * fb) for d, fs, fb in samples])
        np.testing.assert_array_equal(scaled.depths, curve.depths)
        np.testing.assert_array_equal(scaled.zeta, curve.zeta)
        np.testing.assert_array_equal(scaled.residual, k * curve.residual)

    def test_no_samples(self):
        with pytest.raises(FitError, match="no calibration samples"):
            fit_calibration([])

    def test_all_zero_surface_forces(self):
        with pytest.raises(FitError, match="zero"):
            fit_calibration([(5.0, 0.0, 0.0), (5.0, 0.0, 0.0)])

    def test_slightly_over_one_clamped(self):
        samples = [(3.0, fs, 1.005 * fs) for fs in (50.0, 100.0, 150.0)]
        curve = fit_calibration(samples)
        assert curve.zeta_at(3.0) == 1.0

    def test_far_over_one_rejected(self):
        samples = [(3.0, fs, 1.2 * fs) for fs in (50.0, 100.0, 150.0)]
        with pytest.raises(FitError, match="exceeds 1"):
            fit_calibration(samples)

    def test_negative_depth_named(self):
        # rejected before the depth-0 anchor is put in front of it
        with pytest.raises(ParameterError, match=r"negative depth_cm -3$"):
            fit_calibration([(-3, 100, 81), (14, 100, 81)])

    def test_depth_zero_anchor_added(self):
        curve = fit_calibration(_stepped_samples(14.0, 0.81))
        assert curve.depths[0] == 0.0 and curve.zeta[0] == 1.0


class TestCurve:
    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):  # zeta beyond 1
            CalibrationCurve(np.array([0.0, 5.0]), np.array([1.0, 1.5]),
                             np.zeros(2), np.zeros(2))
        with pytest.raises(ParameterError):  # depths not increasing from 0
            CalibrationCurve(np.array([5.0, 0.0]), np.array([0.9, 1.0]),
                             np.zeros(2), np.zeros(2))
        with pytest.raises(ParameterError):  # zeta(0) != 1
            CalibrationCurve(np.array([0.0, 5.0]), np.array([0.9, 0.8]),
                             np.zeros(2), np.zeros(2))

    def test_interpolation_by_hand(self):
        curve = CalibrationCurve(np.array([0.0, 7.0, 8.0]),
                                 np.array([1.0, 0.95, 0.85]),
                                 np.zeros(3), np.zeros(3))
        assert curve.zeta_at(7.5) == pytest.approx(0.90, abs=1e-12)

    def test_extrapolation_refused(self):
        curve = default_calibration_curve()
        with pytest.raises(ExtrapolationError):
            curve.zeta_at(15.0)
        with pytest.raises(ExtrapolationError):
            curve.zeta_at(-1.0)


class TestCalibrate:
    def test_paper_arithmetic(self):
        curve = default_calibration_curve()
        out = calibrate_grf(np.array([100.0]), 14.0, curve)
        assert out[0] == pytest.approx(123.4568, abs=5e-5)

    def test_depth_zero_identity(self):
        curve = default_calibration_curve()
        fz = np.array([0.0, 50.0, 700.0])
        np.testing.assert_allclose(calibrate_grf(fz, 0.0, curve), fz,
                                   atol=1e-12)

    def test_round_trip_identity(self, rng):
        curve = default_calibration_curve()
        fz = rng.uniform(0, 800, size=500)
        depth = 9.0
        zeta = curve.zeta_at(depth)
        recovered = calibrate_grf(fz * zeta, depth, curve)
        np.testing.assert_allclose(recovered, fz, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cop_moment_is_the_3d_cross(data):
    # the moment of a force at the COP on z = 0: the floats, signed zeros
    # included, of the 3-D cross product of (cop_x, cop_y, 0) with it
    n = data.draw(st.integers(1, 8))
    wide = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
    cop = data.draw(arrays(np.float64, (n, 2), elements=wide))
    force = data.draw(arrays(np.float64, (n, 3), elements=wide))
    want = np.cross(np.column_stack([cop, np.zeros(n)]), force)
    assert np.array_equal(cop_moment(cop, force).view(np.uint64),
                          want.view(np.uint64))


class TestNormalize:
    def test_zero(self, participant):
        assert normalize_grf(np.array([0.0]), participant)[0] == 0.0

    def test_body_weight_is_one(self, participant):
        out = normalize_grf(np.array([74.5 * 9.81]), participant)
        assert out[0] == pytest.approx(1.0, rel=1e-12)

    def test_forward_peak_scale(self):
        p = Participant(id="x", height=1.8, mass=100.0)
        assert normalize_grf(np.array([147.15]), p)[0] == \
            pytest.approx(0.15, rel=1e-12)


class TestFeatures:
    def _double_hump(self, h1=1.03, h2=1.03, valley=0.75):
        phase = np.linspace(0, 1, 101)
        fz = (h1 * np.exp(-((phase - 0.25) / 0.12) ** 2)
              + h2 * np.exp(-((phase - 0.75) / 0.12) ** 2))
        fz = np.maximum(fz, 0)
        return fz

    def test_equal_humps(self):
        fz = self._double_hump(1.03, 1.03)
        fx = 0.15 * np.sin(2 * np.pi * np.linspace(0, 1, 101))
        feats = extract_grf_features(fx, fz)
        assert feats.fz_hump1 == pytest.approx(1.03, abs=1e-3)
        assert feats.fz_hump2 == pytest.approx(1.03, abs=1e-3)
        assert not feats.hump2_missing
        assert feats.fz_hs_peak == pytest.approx(feats.fz_hump1, abs=1e-9)

    def test_fx_peaks(self):
        phase = np.linspace(0, 1, 101)
        fx = -0.2 * np.exp(-((phase - 0.2) / 0.1) ** 2) \
            + 0.15 * np.exp(-((phase - 0.8) / 0.1) ** 2)
        feats = extract_grf_features(fx, self._double_hump())
        assert feats.fx_bwd_peak == pytest.approx(-0.2, abs=1e-3)
        assert feats.fx_fwd_peak == pytest.approx(0.15, abs=1e-3)

    def test_single_hump_flagged(self):
        phase = np.linspace(0, 1, 101)
        fz = 1.2 * np.exp(-((phase - 0.5) / 0.2) ** 2)
        feats = extract_grf_features(np.zeros(101), fz)
        assert feats.hump2_missing
        assert feats.fz_hump2 is None
        assert feats.fz_hump1 == pytest.approx(1.2, abs=1e-3)

    def test_fx_sign_invariant(self):
        # a processing failure (exit 2), not an input error: the record
        # itself is valid
        with pytest.raises(GaitError, match="straddle") as exc:
            extract_grf_features(np.full(101, 0.1) + 0.1,
                                 self._double_hump())
        assert not isinstance(exc.value, GaitInputError)


class TestIo:
    def test_samples_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("depth_cm,f_surface_n,f_buried_n\n"
                        "14,100,81\n14,200,162\n")
        samples = read_calibration_samples(path)
        assert samples == [(14.0, 100.0, 81.0), (14.0, 200.0, 162.0)]

    def test_empty_samples(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="no samples"):
            read_calibration_samples(path)
        path.write_text("depth_cm,f_surface_n,f_buried_n\n")
        with pytest.raises(FormatError, match="no samples"):
            read_calibration_samples(path)

    def test_samples_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# rig 2\n\ndepth_cm,f_surface_n,f_buried_n\n"
                        "14,100,81\n  # second load\n\n14,200,162")
        assert read_calibration_samples(path) == [(14.0, 100.0, 81.0),
                                                  (14.0, 200.0, 162.0)]

    @pytest.mark.parametrize("row, message", [
        ("14,200,lots", r":7: non-numeric field 'lots' in column f_buried_n"),
        ("14,200", r":7: expected 3 fields, got 2"),
        ("14,200,-inf", r":7: non-finite value -inf in column f_buried_n"),
    ], ids=["non_numeric", "short_row", "non_finite"])
    def test_samples_bad_row_names_line(self, tmp_path, row, message):
        path = tmp_path / "s.csv"
        path.write_text("# rig 2\n\ndepth_cm,f_surface_n,f_buried_n\n"
                        f"14,100,81\n# second load\n\n{row}\n")
        with pytest.raises(FormatError, match=message):
            read_calibration_samples(path)

    def test_curve_non_numeric_zeta_names_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# fitted\ndepth_cm,zeta,residual,n\n"
                        "0,1.0,0,0\n14,high,0.1,8\n")
        with pytest.raises(FormatError, match=r"c\.csv:4: non-numeric field "
                                              r"'high' in column zeta"):
            read_calibration_curve(path)

    def test_curve_round_trip(self, tmp_path):
        curve = fit_calibration(_stepped_samples(14.0, 0.81))
        path = tmp_path / "c.csv"
        write_calibration_curve(path, curve)
        back = read_calibration_curve(path)
        np.testing.assert_allclose(back.depths, curve.depths)
        np.testing.assert_allclose(back.zeta, curve.zeta, atol=1e-9)

    @pytest.mark.parametrize("depths", [(10.0, 10.0000000001),
                                        (12.3456789,), (12.3456449,)],
                             ids=["close_pair", "rounds_up", "rounds_down"])
    def test_curve_depths_read_back_exactly(self, tmp_path, depths):
        # at six significant digits the close pair would be two "10" rows,
        # which do not read back, 12.3456789 would reach past the calibrated
        # range and 12.3456449 fall short of it
        curve = fit_calibration([(d, 100.0, 81.0) for d in depths])
        path = tmp_path / "c.csv"
        write_calibration_curve(path, curve)
        back = read_calibration_curve(path)
        assert back.depths.tolist() == curve.depths.tolist()
        assert back.zeta_at(depths[-1]) == 0.81
        with pytest.raises(ExtrapolationError):
            back.zeta_at(depths[-1] + 5e-6)
