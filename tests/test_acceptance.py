"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v``.
"""
import json
import math
import os
import sys
import time as _time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from sandgait.cli import main as cli_main
from sandgait.dynamics import (JOINTS, ExternalLoad, FrameState,
                               ankle_dynamics, hip_closed_form,
                               hip_thigh_mass_term, knee_closed_form,
                               recursive_leg)
from sandgait.forces import calibrate_grf, fit_calibration
from sandgait.ingest import TrialRecord
from sandgait.kinematics import differentiate, moving_average
from sandgait.metrics import paired_compare
from sandgait.model import GRAVITY, SegmentParams
from sandgait.pipeline import RunConfig, analyze_trial
from sandgait.synth import standing_profile, stride_profile, synthesize_gait


def _report(capsys, number, name, passed=True):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[acceptance] criterion {number} ({name}): {status}",
              flush=True)


def _random_params(rng):
    return {seg: SegmentParams(mass=rng.uniform(0.5, 10.0),
                               length=rng.uniform(0.1, 0.6),
                               com_offset=rng.uniform(0.02, 0.4),
                               inertia=rng.uniform(0.001, 0.2))
            for seg in ("foot", "shank", "thigh")}


def test_criterion_1_dual_formulation(capsys):
    """Closed-form ankle/knee match the recursive pass to 1e-12 relative on
    1000 random frames; the hip gap equals the thigh-mass term. < 1 s.
    Each frame is the sagittal part of a random 3-D one: the [x, z] of its
    vectors and the y of its moment and angular acceleration."""
    rng = np.random.default_rng(1)
    xz = [0, 2]
    frames = []
    for _ in range(1000):
        params = _random_params(rng)
        states = {}
        for seg in ("foot", "shank", "thigh"):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            states[seg] = FrameState(e=e[xz], acc=rng.normal(size=3)[xz],
                                     omega_dot=rng.normal(size=3)[1])
        load = ExternalLoad(force=rng.normal(scale=300.0, size=3)[xz],
                            moment=rng.normal(scale=20.0, size=3)[1],
                            r=rng.normal(scale=0.2, size=3)[xz])
        frames.append((load, states, params))

    # only the production path (the recursive pass) is timed; the
    # closed-form oracle and the comparisons are test overhead
    t0 = _time.perf_counter()
    recs = [recursive_leg(load, states, params)
            for load, states, params in frames]
    elapsed = _time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"

    for rec, (load, states, params) in zip(recs, frames):
        closed = {
            "ankle": ankle_dynamics(load, states["foot"], params["foot"]),
            "knee": knee_closed_form(load, states["foot"], states["shank"],
                                     params),
            "hip": hip_closed_form(load, states["foot"], states["shank"],
                                   states["thigh"], params)
            + hip_thigh_mass_term(states["thigh"], params["thigh"]),
        }
        for joint in JOINTS:
            scale = max(1.0, abs(float(closed[joint])))
            err = abs(float(rec[joint] - closed[joint])) / scale
            assert err < 1e-12, f"{joint}: relative error {err:g}"
    _report(capsys, 1, "inverse-dynamics dual-formulation equivalence")


def test_criterion_2_round_trip(capsys):
    """Full simulate -> analyze round trip: joint moments within 1% RMS
    (normalized units) and events within +-1 frame at 100 Hz. < 5 s."""
    t0 = _time.perf_counter()
    res = synthesize_gait(stride_profile())
    trial = TrialRecord(meta=res.meta, markers=res.markers, grf=res.grf)
    out = analyze_trial(trial, RunConfig())

    dt = float(np.median(np.diff(res.marker_time)))
    for side in ("left", "right"):
        truth = res.truth_events.side(side)
        det = out.events.side(side)
        for kind in ("heel_strikes", "toe_offs"):
            tv, dv = getattr(truth, kind), getattr(det, kind)
            assert len(tv) == len(dv), f"{side} {kind} count"
            assert np.max(np.abs(tv - dv)) <= dt + 1e-9, f"{side} {kind}"

    # moments are checked on the plate side over its stance windows: the
    # single plate only records that leg, so only there is the external
    # load (and hence the moment chain) fully observed
    mass = res.meta.participant.mass
    t = res.marker_time
    inside = np.zeros(len(t), dtype=bool)
    margin = 0.05  # filter half-width: exclude force ramp edges
    for a, b in res.stance_windows:
        inside |= (t >= a + margin) & (t <= b - margin)
    side = "right"
    for joint in JOINTS:
        est = out.moments[side].normalized[joint]
        tru = res.truth_moments[side][joint] / mass
        sel = inside & np.isfinite(est)
        rms_err = float(np.sqrt(np.mean((est[sel] - tru[sel]) ** 2)))
        rms_ref = float(np.sqrt(np.mean(tru[sel] ** 2)))
        assert rms_err < 0.01 * rms_ref, \
            f"{side} {joint}: {100 * rms_err / rms_ref:.2f}% RMS"
    elapsed = _time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report(capsys, 2, "forward/inverse round trip")


def test_criterion_3_calibration(capsys):
    """zeta(14) = 0.81 recovered to 1e-6 noiselessly and to 2% under 1%
    multiplicative noise; calibrate o decalibrate is identity to 1e-12."""
    loads = np.concatenate([np.arange(0.0, 201.0, 25.0),
                            np.arange(200.0, -1.0, -25.0)])
    clean = [(14.0, fs, 0.81 * fs) for fs in loads]
    curve = fit_calibration(clean)
    assert abs(curve.zeta_at(14.0) - 0.81) < 1e-6

    rng = np.random.default_rng(3)
    for _ in range(20):
        noisy = [(14.0, fs, 0.81 * fs * (1 + 0.01 * rng.standard_normal()))
                 for fs in loads]
        z = fit_calibration(noisy).zeta_at(14.0)
        assert abs(z - 0.81) / 0.81 < 0.02

    fz = rng.uniform(0.0, 900.0, size=1000)
    zeta = curve.zeta_at(14.0)
    back = calibrate_grf(fz * zeta, 14.0, curve) * zeta
    np.testing.assert_allclose(back, fz * zeta, rtol=1e-12)
    recovered = calibrate_grf(fz * zeta, 14.0, curve)
    np.testing.assert_allclose(recovered, fz, rtol=1e-12)
    _report(capsys, 3, "sand-depth force calibration")


def test_criterion_4_statics(capsys):
    """Standing trial: vertical GRF = mass*g to 1e-9 relative; with exact
    geometry and the COP at the balance point the hip moment is < 1e-6."""
    res = synthesize_gait(standing_profile())
    W = res.meta.participant.mass * GRAVITY
    np.testing.assert_allclose(res.grf.force[:, 2], W, rtol=1e-9)
    np.testing.assert_allclose(res.grf.force[:, 0], 0.0, atol=1e-9 * W)

    # exact static chain: vertical thigh and shank, pitched foot
    params = {
        "foot": SegmentParams(mass=1.08, length=0.20, com_offset=0.10,
                              inertia=0.004),
        "shank": SegmentParams(mass=3.46, length=0.43, com_offset=0.186,
                               inertia=0.058),
        "thigh": SegmentParams(mass=7.45, length=0.42, com_offset=0.182,
                               inertia=0.137),
    }
    alpha = math.acos(0.4)
    e_f = np.array([math.sin(alpha), -math.cos(alpha)])
    states = {
        "foot": FrameState(e=e_f, acc=np.zeros(2), omega_dot=0.0),
        "shank": FrameState(e=np.array([0.0, -1.0]), acc=np.zeros(2),
                            omega_dot=0.0),
        "thigh": FrameState(e=np.array([0.0, -1.0]), acc=np.zeros(2),
                            omega_dot=0.0),
    }
    toe = np.array([0.2 * math.sin(alpha), 0.0])

    def hip_moment(cop_x):
        load = ExternalLoad(force=np.array([0.0, W]), moment=0.0,
                            r=toe - np.array([cop_x, 0.0]))
        return recursive_leg(load, states, params)["hip"]

    # the hip moment is affine in cop_x; solve for its root exactly
    m0, m1 = hip_moment(0.0), hip_moment(0.1)
    cop_x = 0.1 * m0 / (m0 - m1)
    assert abs(hip_moment(cop_x)) < 1e-6
    # sanity: the balance point sits within the foot print
    assert -0.05 < cop_x < 0.2
    _report(capsys, 4, "standing statics")


def _t_sf_by_quadrature(t_stat, dof):
    def pdf(x):
        c = math.exp(gammaln((dof + 1) / 2) - gammaln(dof / 2)) \
            / math.sqrt(dof * math.pi)
        return c * (1 + x * x / dof) ** (-(dof + 1) / 2)
    tail, _ = quad(pdf, abs(t_stat), np.inf)
    return 2.0 * tail


def test_criterion_5_statistics(capsys):
    """t / p / Cohen's d match a closed-form + quadrature oracle to 1e-6;
    antisymmetry and identical-input properties hold exactly."""
    a = [0.74, 0.69, 0.81, 0.77, 0.72]
    b = [0.62, 0.60, 0.66, 0.65, 0.58]
    out = paired_compare(a, b)
    d = np.array(a) - np.array(b)
    t_oracle = float(d.mean() / (d.std(ddof=1) / math.sqrt(5)))
    p_oracle = _t_sf_by_quadrature(t_oracle, 4)
    pooled = math.sqrt((np.std(a, ddof=1) ** 2 + np.std(b, ddof=1) ** 2) / 2)
    d_oracle = float((np.mean(a) - np.mean(b)) / pooled)
    assert abs(out["t"] - t_oracle) < 1e-6
    assert abs(out["p"] - p_oracle) < 1e-6
    assert abs(out["cohens_d"] - d_oracle) < 1e-6

    same = paired_compare(a, a)
    assert same["t"] == 0.0 and same["p"] == 1.0 and same["cohens_d"] == 0.0
    rev = paired_compare(b, a)
    assert rev["t"] == -out["t"] and rev["p"] == out["p"]
    assert rev["cohens_d"] == -out["cohens_d"]
    _report(capsys, 5, "paired-statistics oracle")


def test_criterion_6_filter_and_differentiation(capsys):
    """Moving average exact on constants and affine interiors; second-order
    differentiation exact on quadratics (interior); both to 1e-9."""
    x = np.full(100, 4.25)
    np.testing.assert_allclose(moving_average(x, 9), x, atol=1e-9)

    t = np.arange(100) * 0.01
    ramp = 3.0 - 1.7 * t
    out = moving_average(ramp, 9)
    np.testing.assert_allclose(out[4:-4], ramp[4:-4], atol=1e-9)

    quad_sig = 5.0 * t * t - 2.0 * t + 1.0
    d2 = differentiate(quad_sig, 0.01, order=2)
    np.testing.assert_allclose(d2[1:-1], 10.0, atol=1e-9)
    _report(capsys, 6, "filter/differentiation exactness")


def test_criterion_7_format_closure(capsys, tmp_path):
    """simulate output is analyzed with zero warnings; reruns of both
    commands are byte-identical."""
    sim1, sim2 = tmp_path / "sim1", tmp_path / "sim2"
    for sim in (sim1, sim2):
        assert cli_main(["simulate", "--preset", "stride",
                         "--out", str(sim)]) == 0
    for name in ("markers.csv", "grf.csv", "meta.json"):
        assert (sim1 / name).read_bytes() == (sim2 / name).read_bytes()

    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    for out in (out1, out2):
        assert cli_main(["analyze", "--markers", str(sim1 / "markers.csv"),
                         "--grf", str(sim1 / "grf.csv"),
                         "--meta", str(sim1 / "meta.json"),
                         "--out", str(out)]) == 0
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["warnings"] == []
    for path in sorted(out1.iterdir()):
        assert (out2 / path.name).read_bytes() == path.read_bytes()
    _report(capsys, 7, "format closure and determinism")


def test_criterion_8_dataset_reproduction(capsys):
    """Optional, not gating: reproduce population metrics when the public
    dataset is supplied via SANDGAIT_DATASET."""
    root = os.environ.get("SANDGAIT_DATASET")
    if not root or not os.path.isdir(root):
        with capsys.disabled():
            print("[acceptance] criterion 8 (dataset reproduction): "
                  "SKIP (no dataset supplied)", flush=True)
        pytest.skip("set SANDGAIT_DATASET to a dataset directory to enable")
    # when a dataset is present, analyze every trial and report means next
    # to the published values; no hard tolerance is applied
    raise AssertionError("dataset reproduction harness not wired for this "
                         "dataset layout; inspect manually")
