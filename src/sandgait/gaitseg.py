"""Gait event detection and phase normalization.

Events are detected from motion data: a heel strike is a local minimum of
heel height whose forward heel speed has fallen below a threshold, a
toe-off is an upward crossing of the toe vertical velocity.  A local
extremum is strict: a flat minimum (or maximum) counts once, at its first
sample, and a run that is flat up to the end of the series, or that a NaN
interrupts, is none.  Curves are resampled onto a 101-point phase grid
(0..100% in 1% steps).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError, SegmentationError

PHASE_GRID = np.linspace(0.0, 1.0, 101)

#: A plate heel strike further than this from the GRF onset is reported.
HS_ONSET_TOL_S = 0.05


@dataclass(frozen=True)
class EventThresholds:
    hs_forward_speed: float = 0.2   # m/s
    to_vertical_speed: float = 0.05  # m/s
    min_stance_s: float = 0.2
    min_swing_s: float = 0.15

    def __post_init__(self):
        for f in ("hs_forward_speed", "to_vertical_speed",
                  "min_stance_s", "min_swing_s"):
            if not getattr(self, f) > 0:
                raise ParameterError(f"threshold {f} must be positive")


@dataclass
class SideEvents:
    heel_strikes: np.ndarray  # times, s
    toe_offs: np.ndarray


@dataclass
class GaitEvents:
    """Heel-strike / toe-off times per side, strictly alternating."""

    left: SideEvents | None = field(default=None)
    right: SideEvents | None = field(default=None)

    def side(self, name: str) -> SideEvents:
        ev = getattr(self, name)
        if ev is None:
            raise SegmentationError(f"no events for side {name!r}")
        return ev


def _local_extrema(x: np.ndarray, sign: int) -> np.ndarray:
    """Indices of strict local minima (``sign`` = +1) or maxima (-1).

    A candidate ``i`` in 1..n-2 steps down from ``y[i-1]`` (``y = sign * x``);
    it is kept when the run of values equal to ``y[i]`` ends before the last
    sample and the next value is higher.  NaN compares false, so it neither
    starts nor continues a run and is never the higher neighbour.
    """
    y = sign * np.asarray(x, dtype=float)
    cand = np.flatnonzero(y[1:-1] < y[:-2]) + 1
    # a run ends at j where y[j + 1] != y[j]; the last sample ends none
    ends = np.flatnonzero(y[1:] != y[:-1])
    k = np.searchsorted(ends, cand)
    inside = k < ends.size
    cand, j = cand[inside], ends[k[inside]]
    return cand[y[j + 1] > y[j]]


def detect_side_events(time: np.ndarray, heel_z: np.ndarray,
                       toe_z: np.ndarray, heel_vx: np.ndarray,
                       thresholds: EventThresholds | None = None,
                       ) -> SideEvents:
    """Detect heel strikes and toe-offs for one side.

    Inputs are expected to be (lightly) filtered marker series at the
    marker rate.  Alternation is enforced by discarding the weaker of two
    same-kind consecutive detections.
    """
    th = thresholds if thresholds is not None else EventThresholds()
    if len(time) < 3:
        raise SegmentationError("series too short for event detection")
    dt = float(np.median(np.diff(time)))
    toe_vz = np.gradient(toe_z, dt)

    # isfinite: -inf passes < and +inf passes >
    hs_idx = _local_extrema(heel_z, 1)
    hs_idx = hs_idx[np.isfinite(heel_vx[hs_idx])
                    & (heel_vx[hs_idx] < th.hs_forward_speed)]
    to_idx = np.flatnonzero(np.isfinite(toe_vz[1:])
                            & (toe_vz[1:] > th.to_vertical_speed)
                            & (toe_vz[:-1] <= th.to_vertical_speed)) + 1

    if hs_idx.size == 0:
        raise SegmentationError("no heel strikes detected")

    events = sorted([(i, "hs") for i in hs_idx.tolist()]
                    + [(i, "to") for i in to_idx.tolist()])
    # drop leading toe-offs so the sequence starts at a heel strike
    while events and events[0][1] == "to":
        events.pop(0)

    def weaker(a: int, b: int, kind: str) -> int:
        if kind == "hs":  # weaker strike = higher heel
            return a if heel_z[a] > heel_z[b] else b
        return b         # keep the first of two toe-offs

    cleaned: list[tuple[int, str]] = []
    for idx, kind in events:
        if cleaned and cleaned[-1][1] == kind:
            drop = weaker(cleaned[-1][0], idx, kind)
            if drop == cleaned[-1][0]:
                cleaned[-1] = (idx, kind)
            continue
        if cleaned:
            prev_idx, prev_kind = cleaned[-1]
            span = time[idx] - time[prev_idx]
            min_span = th.min_stance_s if prev_kind == "hs" else th.min_swing_s
            if span < min_span:
                # too-early opposite event: spurious, drop it
                continue
        cleaned.append((idx, kind))

    hs = np.array([time[i] for i, k in cleaned if k == "hs"])
    to = np.array([time[i] for i, k in cleaned if k == "to"])
    if hs.size == 0:
        raise SegmentationError("no heel strikes survived alternation cleanup")
    ev = SideEvents(heel_strikes=hs, toe_offs=to)
    _check_alternation(ev)
    return ev


def _check_alternation(ev: SideEvents) -> None:
    merged = sorted([(t, "hs") for t in ev.heel_strikes]
                    + [(t, "to") for t in ev.toe_offs])
    for (t0, k0), (t1, k1) in zip(merged, merged[1:]):
        if k0 == k1 or t1 <= t0:
            timeline = ", ".join(f"{k.upper()}@{t:.3f}s" for t, k in merged)
            raise SegmentationError(
                f"events do not alternate: {timeline}")


def grf_stance_check(ev: SideEvents, grf_time: np.ndarray, fz: np.ndarray,
                     body_weight: float, fraction: float = 0.05) -> list[str]:
    """Optional cross-check of kinematic heel strikes against the vertical
    force rising through ``fraction`` of body weight.  Returns warnings for
    strikes on the instrumented plate that disagree by more than
    ``HS_ONSET_TOL_S``."""
    thresh = fraction * body_weight
    rising = np.where((fz[1:] >= thresh) & (fz[:-1] < thresh))[0]
    rise_times = grf_time[rising + 1]
    warnings = []
    for t_hs in ev.heel_strikes:
        if rise_times.size == 0:
            continue
        nearest = rise_times[np.argmin(np.abs(rise_times - t_hs))]
        if HS_ONSET_TOL_S < abs(nearest - t_hs) <= 0.25:
            warnings.append(
                f"heel strike at {t_hs:.3f} s is {abs(nearest - t_hs) * 1e3:.0f} ms "
                f"from the GRF onset at {nearest:.3f} s")
    return warnings


@dataclass
class NormalizedCurve:
    """Series resampled onto the 101-point phase grid ``PHASE_GRID``."""

    values: np.ndarray


def phase_normalize(time: np.ndarray, values: np.ndarray,
                    window: tuple[float, float]) -> NormalizedCurve:
    """Resample ``values`` over ``window`` onto the 0..1 phase grid by
    linear interpolation."""
    t0, t1 = window
    if not t0 < t1:
        raise ParameterError(f"empty phase window ({t0}, {t1})")
    if t0 < time[0] - 1e-9 or t1 > time[-1] + 1e-9:
        raise ParameterError(
            f"window ({t0:g}, {t1:g}) s outside series span "
            f"[{time[0]:g}, {time[-1]:g}] s")
    t_grid = t0 + PHASE_GRID * (t1 - t0)
    return NormalizedCurve(values=np.interp(t_grid, time, values))


def stance_swing_durations(ev: SideEvents) -> list[dict[str, float]]:
    """Per full cycle: stance/swing durations and the stance fraction.

    stance = TO - HS, swing = next HS - TO, fraction = stance / cycle.
    """
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
