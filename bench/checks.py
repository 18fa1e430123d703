"""Output checks of the benchmark.

Each check compares the program's output with the generator's analytic
ground truth, with a computation made here apart from the program, or
with a property the method must have.  None compares with a saved copy of
earlier output.  A check returns a list of failure messages; empty means
it passed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

MOMENT_RMS = 0.01       # moments: RMS error / RMS truth, plate-side stance
STANCE_MARGIN = 0.05    # s trimmed off each stance end (force ramps, filter)
GRF_PEAK = 0.01         # stance F_z peak, relative
ZETA_TOL = 1e-6         # fitted vs generating zeta
STAT_TOL = 1e-9         # compare vs scipy / numpy, relative
FILE_TOL = 1e-8         # files written with 9 decimals
JOINTS = ("ankle", "knee", "hip")


def events(result, truth_events, dt: float) -> list[str]:
    """Every detected event within one marker frame of the true event."""
    bad = []
    for side in ("left", "right"):
        got, want = result.events.side(side), truth_events.side(side)
        for kind in ("heel_strikes", "toe_offs"):
            g, w = getattr(got, kind), getattr(want, kind)
            if len(g) != len(w):
                bad.append(f"events: {side} {kind}: {len(g)} detected, "
                           f"{len(w)} true")
            elif len(g) and np.max(np.abs(g - w)) > dt + 1e-9:
                bad.append(f"events: {side} {kind} off by "
                           f"{np.max(np.abs(g - w)) / dt:.1f} frames")
    return bad


def _stance(stance_windows, time) -> np.ndarray:
    inside = np.zeros(len(time), dtype=bool)
    for a, b in stance_windows:
        inside |= (time >= a + STANCE_MARGIN) & (time <= b - STANCE_MARGIN)
    return inside


def moments(result, truth_moments, stance_windows, time, mass) -> list[str]:
    """Plate-side moments inside every trimmed stance window within 1% RMS
    of the ground truth; a missing (NaN) frame fails the check."""
    inside = _stance(stance_windows, time)
    side = result.plate_side
    bad = []
    for joint in JOINTS:
        est = result.moments[side].normalized[joint][inside]
        tru = truth_moments[side][joint][inside] / mass
        if not np.all(np.isfinite(est)):
            bad.append(f"moments: {side} {joint}: "
                       f"{int(np.sum(~np.isfinite(est)))} stance frames NaN")
            continue
        err = math.sqrt(np.mean((est - tru) ** 2)) / math.sqrt(np.mean(tru ** 2))
        if err > MOMENT_RMS:
            bad.append(f"moments: {side} {joint}: {100 * err:.2f}% RMS")
    return bad


def strides(result, period: float, speed: float, dt: float) -> list[str]:
    """Stride time, length and speed of every stride match the scripted
    period and pelvis speed.  Each heel strike may be one frame off, so the
    stride time may be two frames off; the heel moves under 0.2 m/s at a
    detected strike, and the pelvis oscillation averages out over a cycle."""
    bad = []
    if not result.stride_rows:
        return ["strides: no stride rows"]
    for row in result.stride_rows:
        where = f"strides: {row['side']} @{row['cycle_start_s']:.2f}s"
        stride_t = row["stance_time"] + row["swing_time"]
        if not abs(stride_t - period) <= 2 * dt + 1e-9:
            bad.append(f"{where}: time {stride_t:.3f} s, scripted {period:.3f}")
        length_tol = 2 * 0.2 * dt + 0.002 * speed * period
        if not abs(row["stride_length"] - speed * period) <= length_tol:
            bad.append(f"{where}: length {row['stride_length']:.4f} m, "
                       f"scripted {speed * period:.4f}")
        if not abs(row["avg_velocity"] - speed) <= 0.01 * speed:
            bad.append(f"{where}: speed {row['avg_velocity']:.4f} m/s, "
                       f"scripted {speed:.4f}")
    return bad


def stance_grf(result, surface_grf, stance_windows, body_weight) -> list[str]:
    """The stance F_z curve peaks within 1% of the synthesized surface F_z
    peak of the first plate stance, the one the pipeline normalizes, in
    body weights (on sand after calibration)."""
    curve = result.grf_stance.get("fz")
    if curve is None:
        return ["stance grf: no stance F_z curve"]
    a, b = stance_windows[0]
    sel = (surface_grf.time >= a) & (surface_grf.time <= b)
    want = float(np.max(surface_grf.force[sel, 2])) / body_weight
    got = float(np.max(curve.values))
    if abs(got - want) > GRF_PEAK * want:
        return [f"stance grf: F_z peak {got:.4f} BW, synthesized {want:.4f} BW"]
    return []


def calibration(curve_csv: Path, depths, zetas) -> list[str]:
    """The fitted curve holds the generating zeta at every depth."""
    with open(curve_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fitted = {float(r["depth_cm"]): float(r["zeta"]) for r in rows}
    bad = []
    for d, z in zip(depths, zetas):
        if d not in fitted or abs(fitted[d] - z) > ZETA_TOL:
            bad.append(f"calibration: zeta({d:g} cm) = {fitted.get(d)}, "
                       f"generated {z:.9f}")
    return bad


def _stride_means(bundle: Path) -> dict[str, float]:
    with open(bundle / "stride_metrics.csv") as fh:
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    out = {}
    for key in rows[0]:
        if key in ("side", "cycle_start_s"):
            continue
        vals = np.array([float(r[key]) for r in rows if r[key]])
        vals = vals[np.isfinite(vals)]
        if vals.size:
            out[key] = float(vals.mean())
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= STAT_TOL * max(1.0, abs(b))


def compare(report_json: Path, firm_dir: Path, sand_dir: Path) -> list[str]:
    """compare's t and p match scipy's paired t-test and its Cohen's d the
    pooled-SD formula, on stride means read here from the bundles; firm
    walking is significantly faster than sand walking."""
    report = json.loads(report_json.read_text())
    rows = {r["metric"]: r for r in report["rows"]}
    pids = report["participants"]
    a = [_stride_means(firm_dir / p) for p in pids]
    b = [_stride_means(sand_dir / p) for p in pids]
    bad = []
    checked = 0
    for metric in sorted(set(a[0]) & set(rows)):
        x = np.array([m[metric] for m in a])
        y = np.array([m[metric] for m in b])
        if np.array_equal(x, y):
            # no difference at all (stride width is set by the hip width
            # alone): the documented result is t = 0, p = 1, d = 0
            t, p, d = 0.0, 1.0, 0.0
        else:
            t, p = stats.ttest_rel(x, y)
            d = (x.mean() - y.mean()) / math.sqrt(
                (x.var(ddof=1) + y.var(ddof=1)) / 2)
        row = rows[metric]
        for key, want in (("t", t), ("p", p), ("cohens_d", d)):
            if not _close(row[key], float(want)):
                bad.append(f"compare: {metric} {key} = {row[key]!r}, "
                           f"expected {float(want)!r}")
        checked += 1
    if checked == 0:
        bad.append("compare: no stride metric in the report")
    v = rows.get("avg_velocity")
    if v is None or not (v["significant"] and v["mean_a"] > v["mean_b"]):
        bad.append("compare: avg_velocity not significantly faster on firm ground")
    return bad


def simulated_files(out: Path, walk) -> list[str]:
    """The files of one ``simulate``: marker joints at the analytic chain
    positions, segment lengths equal to the profile's, the plate moment
    equal to cop x F, metadata and truth files consistent with the profile."""
    pr = walk.profile
    bad = []
    with open(out / "markers.csv") as fh:
        header = fh.readline().strip().split(",")
    m = np.loadtxt(out / "markers.csv", delimiter=",", skiprows=1, ndmin=2)
    t = m[:, 0]
    col = {name: i for i, name in enumerate(header)}

    def pos(label):
        return m[:, [col[f"{label}_x"], col[f"{label}_y"], col[f"{label}_z"]]]

    want = oracle_points(pr, t)
    for (side, joint), p in want.items():
        label = f"{side[0].upper()}-{joint}"
        err = float(np.max(np.abs(pos(label) - p)))
        if err > FILE_TOL:
            bad.append(f"simulate: {label} off the analytic chain by {err:.2g} m")
    for side in ("L", "R"):
        for seg, (p, d), length in (("thigh", ("hip", "knee"), pr.thigh_len),
                                    ("shank", ("knee", "ankle"), pr.shank_len),
                                    ("foot", ("ankle", "toe"), pr.foot_len)):
            got = np.linalg.norm(pos(f"{side}-{d}") - pos(f"{side}-{p}"), axis=1)
            if np.max(np.abs(got - length)) > FILE_TOL:
                bad.append(f"simulate: {side} {seg} length off by "
                           f"{np.max(np.abs(got - length)):.2g} m")

    g = np.loadtxt(out / "grf.csv", delimiter=",", skiprows=1, ndmin=2)
    force, moment = g[:, 1:4], g[:, 4:7]
    cop3 = np.column_stack([g[:, 7:9], np.zeros(len(g))])
    scale = 1.0 + np.linalg.norm(force, axis=1) * (1.0 + np.linalg.norm(cop3, axis=1))
    resid = np.max(np.linalg.norm(moment - np.cross(cop3, force), axis=1) / scale)
    if resid > FILE_TOL:
        bad.append(f"simulate: plate moment differs from cop x F ({resid:.2g})")

    meta = json.loads((out / "meta.json").read_text())
    p = pr.participant
    if (meta["participant"] != {"id": p.id, "height_m": p.height, "mass_kg": p.mass}
            or meta["terrain"] != pr.terrain):
        bad.append("simulate: meta.json does not match the profile")

    with open(out / "truth_events.csv") as fh:
        rows = list(csv.DictReader(fh))
    for side in ("left", "right"):
        hs = np.array([float(r["time_s"]) for r in rows
                       if r["side"] == side and r["event"] == "heel_strike"])
        if len(hs) < 2 or np.max(np.abs(np.diff(hs) - walk.period)) > 2 * pr.grf_dt:
            bad.append(f"simulate: {side} true heel strikes not one period apart")
    n_truth = sum(1 for _ in open(out / "truth_moments.csv")) - 1
    if n_truth != 2 * len(t):
        bad.append(f"simulate: {n_truth} truth moment rows for {len(t)} frames")
    return bad


def oracle_points(profile, t: np.ndarray) -> dict:
    """Hip, knee, ankle and toe of both legs from the profile's scripted
    angles, evaluated here from the trigonometric series."""

    def trig(tr, x):
        out = tr.a0 + tr.rate * x
        for amp, freq, phase in tr.terms:
            out = out + amp * np.sin(2 * math.pi * freq * x + phase)
        return out

    def axis(a):
        return np.column_stack([np.sin(a), np.zeros_like(a), -np.cos(a)])

    out = {}
    for side, sign in (("left", -1.0), ("right", 1.0)):
        la = profile.legs[side]
        a_t = trig(la.thigh_pitch, t)
        a_s = a_t - trig(la.knee_flexion, t)
        hip = np.column_stack([trig(profile.pelvis_x, t),
                               np.full_like(t, sign * profile.hip_half_width),
                               trig(profile.pelvis_z, t)])
        knee = hip + profile.thigh_len * axis(a_t)
        ankle = knee + profile.shank_len * axis(a_s)
        toe = ankle + profile.foot_len * axis(trig(la.foot_pitch, t))
        out.update({(side, "hip"): hip, (side, "knee"): knee,
                    (side, "ankle"): ankle, (side, "toe"): toe})
    return out
