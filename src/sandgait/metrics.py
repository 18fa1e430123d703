"""Scalar gait outcomes: stride parameters, peak angles, knee stiffness
fits, and paired terrain statistics.

Height-normalized variants divide by participant height.  Cohen's d uses
the pooled SD of the two conditions (not the SD of the differences); that
choice is recorded in report headers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .errors import FitError, InsufficientDataError, ParameterError
from .gaitseg import GaitEvents, SideEvents
from .model import Participant


def _at(time: np.ndarray, series: np.ndarray, t: float) -> np.ndarray:
    """Linear interpolation of a (N,) or (N,3) series at one time."""
    if series.ndim == 1:
        return np.interp(t, time, series)
    return np.array([np.interp(t, time, series[:, k])
                     for k in range(series.shape[1])])


def stride_metrics(events: GaitEvents,
                   heel_pos: dict[str, np.ndarray],
                   com: np.ndarray,
                   pelvis_mid: np.ndarray,
                   time: np.ndarray,
                   participant: Participant) -> list[dict]:
    """Per-stride spatiotemporal metrics for every complete ipsilateral
    cycle on either side.

    stride_length: forward (X) distance between consecutive ipsilateral
    heel-strike heel positions; stride_width: lateral (Y) distance to the
    intervening contralateral heel strike; com_variation: vertical COM
    range within the stride; avg_velocity: pelvis-midpoint X displacement
    over stride time.  Each metric also gets a height-normalized variant.
    """
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
                "side": side,
                "cycle_start_s": float(hs0),
                "stride_length": length,
                "stride_length_norm": length / h,
                "stride_width": width,
                "stride_width_norm": width / h,
                "stance_time": stance,
                "swing_time": swing,
                "com_variation": com_var,
                "com_variation_norm": com_var / h,
                "avg_velocity": vel,
                "avg_velocity_norm": vel / h,
            })
    if not any_complete:
        raise InsufficientDataError("no complete ipsilateral gait cycle")
    return rows


def peak_angles(curves: dict[str, np.ndarray]) -> dict[str, float]:
    """Peak flexion (hip, knee) / dorsiflexion (ankle) of cycle-normalized
    angle curves in degrees."""
    return {joint: float(np.nanmax(vals)) for joint, vals in curves.items()}


@dataclass
class StiffnessFit:
    slope: float          # N m / (deg kg)
    angle_range: float    # deg
    residual: float       # RMS, N m / kg
    n: int


@dataclass
class StiffnessResult:
    """Moment-angle slopes over the stance/swing sub-phases.

    Windows follow the bilateral event trajectory: flexion is ipsilateral
    HS -> contralateral TO, extension contralateral TO -> contralateral HS,
    swing ipsilateral TO -> ipsilateral HS.
    """

    k_flexion: StiffnessFit
    k_extension: StiffnessFit
    k_swing: StiffnessFit
    side: str


def _ols_slope(x: np.ndarray, y: np.ndarray, label: str) -> StiffnessFit:
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if x.size < 3:
        raise FitError(f"{label}: need >= 3 samples, got {x.size}")
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise FitError(f"{label}: degenerate regressor (constant angle)")
    slope = float(np.sum(xc * (y - y.mean()))) / sxx
    resid = y - (y.mean() + slope * xc)
    return StiffnessFit(slope=slope,
                        angle_range=float(x.max() - x.min()),
                        residual=float(np.sqrt(np.mean(resid ** 2))),
                        n=int(x.size))


def knee_stiffness(time: np.ndarray,
                   knee_angle: np.ndarray,
                   knee_moment_norm: np.ndarray,
                   events: GaitEvents,
                   side: str = "right") -> StiffnessResult:
    """OLS slopes of mass-normalized knee moment vs knee angle over the
    three event-delimited sub-phases."""
    ips: SideEvents = events.side(side)
    con: SideEvents = events.side("left" if side == "right" else "right")
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
        return _ols_slope(knee_angle[sel], knee_moment_norm[sel], label)

    return StiffnessResult(
        k_flexion=window(hs_i, to_c, "flexion (HS -> contralateral TO)"),
        k_extension=window(to_c, hs_c, "extension (contralateral TO -> HS)"),
        k_swing=window(to_i, hs_i2, "swing (TO -> next HS)"),
        side=side)


def paired_compare(a, b) -> dict:
    """Paired t-test with Cohen's d (pooled SD) for one metric.

    ``a`` and ``b`` are per-participant values paired by index.  Returns a
    report row with t, two-sided p, d, and the p < 0.05 significance flag.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError(f"paired samples must be equal-length vectors, "
                             f"got shapes {a.shape} and {b.shape}")
    n = a.size
    if n < 2:
        raise ParameterError(f"need at least 2 pairs, got {n}")
    d = a - b
    mean_d = float(d.mean())
    sd_d = float(d.std(ddof=1))
    if sd_d == 0.0:
        if mean_d == 0.0:
            t_stat, p = 0.0, 1.0
        else:
            raise ParameterError("zero-variance differences with nonzero mean")
    else:
        t_stat = mean_d / (sd_d / math.sqrt(n))
        p = float(2.0 * (1.0 - stdtr(n - 1, abs(t_stat))))
    s_a = float(a.std(ddof=1))
    s_b = float(b.std(ddof=1))
    pooled = math.sqrt((s_a ** 2 + s_b ** 2) / 2.0)
    cohens_d = 0.0 if pooled == 0.0 else (float(a.mean()) - float(b.mean())) / pooled
    return {
        "n": n,
        "mean_a": float(a.mean()), "sd_a": s_a,
        "mean_b": float(b.mean()), "sd_b": s_b,
        "t": float(t_stat), "p": p, "cohens_d": cohens_d,
        "significant": bool(p < 0.05),
    }
