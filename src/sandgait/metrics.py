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

from .errors import FitError, InsufficientDataError, ParameterError
from .gaitseg import (C_HS, C_HS_AFTER_TO, C_TO, HS, NEXT_HS, TO, GaitEvents,
                      SideEvents, cycle_table)
from .model import Participant


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
    for side in ("left", "right"):
        ev = getattr(events, side)
        if ev is None or len(ev.heel_strikes) < 2:
            continue
        other = "right" if side == "left" else "left"
        cyc = cycle_table(ev, getattr(events, other))[:-1]
        hs0, to, hs1 = cyc[:, HS], cyc[:, TO], cyc[:, NEXT_HS]
        heel_x = np.interp(cyc[:, [HS, NEXT_HS]], time, heel_pos[side][:, 0])
        pelvis_x = np.interp(cyc[:, [HS, NEXT_HS]], time, pelvis_mid[:, 0])
        length = np.abs(heel_x[:, 1] - heel_x[:, 0])
        c_hs = np.where(cyc[:, C_HS] < hs1, cyc[:, C_HS], np.nan)
        width = np.abs(np.interp(c_hs, time, heel_pos[other][:, 1])
                       - np.interp(hs0, time, heel_pos[side][:, 1]))
        com_var = np.array([
            np.nanmax(com[i:j, 2]) - np.nanmin(com[i:j, 2]) if j > i else math.nan
            for i, j in zip(np.searchsorted(time, hs0, "left"),
                            np.searchsorted(time, hs1, "right"))])
        vel = (pelvis_x[:, 1] - pelvis_x[:, 0]) / (hs1 - hs0)
        columns = {
            "cycle_start_s": hs0,
            "stride_length": length,
            "stride_length_norm": length / h,
            "stride_width": width,
            "stride_width_norm": width / h,
            "stance_time": to - hs0,
            "swing_time": hs1 - to,
            "com_variation": com_var,
            "com_variation_norm": com_var / h,
            "avg_velocity": vel,
            "avg_velocity_norm": vel / h,
        }
        rows += [{"side": side, **dict(zip(columns, row))}
                 for row in np.column_stack(list(columns.values())).tolist()]
    if not rows:
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

    cyc = cycle_table(ips, con)[0]
    for col, missing in ((C_TO, "contralateral toe-off after heel strike"),
                         (C_HS_AFTER_TO, "contralateral heel strike after toe-off"),
                         (TO, f"{side} toe-off after heel strike"),
                         (NEXT_HS, f"{side} heel strike after toe-off")):
        if math.isnan(cyc[col]):
            raise InsufficientDataError(f"no {missing}")

    def window(start, end, label):
        sel = (time >= cyc[start]) & (time <= cyc[end])
        return _ols_slope(knee_angle[sel], knee_moment_norm[sel], label)

    return StiffnessResult(
        k_flexion=window(HS, C_TO, "flexion (HS -> contralateral TO)"),
        k_extension=window(C_TO, C_HS_AFTER_TO,
                           "extension (contralateral TO -> HS)"),
        k_swing=window(TO, NEXT_HS, "swing (TO -> next HS)"),
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
    from scipy.special import stdtr  # a 0.3 s import: only `compare` needs it

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
