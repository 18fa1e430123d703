"""Gait event detection and phase normalization.

Events are detected from motion data: a heel strike is a local minimum of
heel height whose forward heel speed has fallen below a threshold, a
toe-off is an upward crossing of the toe vertical velocity.  A local
extremum is strict: a flat minimum (or maximum) counts once, at its first
sample, and a run that is flat up to the end of the series, or that a NaN
interrupts, is none.  Curves are resampled onto a 101-point phase grid
(0..100% in 1% steps).

Every quantity that pairs events reads ``cycle_table``: a row per
ipsilateral heel strike ``hs``, NaN where an event is missing, with the
columns ``HS`` (``hs``), ``TO`` (the first ipsilateral toe-off after it),
``NEXT_HS`` (the next ipsilateral heel strike), ``C_HS`` (the first
contralateral heel strike after ``hs``, if it comes before ``NEXT_HS``),
``C_TO`` (the first contralateral toe-off after ``hs``) and
``C_HS_AFTER_TO`` (the first contralateral heel strike after ``C_TO``).
A ``SideEvents`` holds events that alternate in time order, as
``detect_side_events`` returns them; building one that does not raises
``SegmentationError``.  So a cycle is ``hs -> to -> next_hs``, its toe-off
the first after its heel strike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError, SegmentationError
from .kinematics import differentiate
from .schema import SIDES

PHASE_GRID = np.linspace(0.0, 1.0, 101)

#: A plate heel strike further than this from the GRF onset is reported.
HS_ONSET_TOL_S = 0.05

#: Columns of ``cycle_table``.
HS, TO, NEXT_HS, C_HS, C_TO, C_HS_AFTER_TO = range(6)


@dataclass
class SideEvents:
    """One side's heel-strike and toe-off times, s, strictly alternating."""

    heel_strikes: np.ndarray
    toe_offs: np.ndarray

    def __post_init__(self):
        _check_alternation(self)


@dataclass
class GaitEvents:
    """Heel-strike / toe-off times per side."""

    left: SideEvents
    right: SideEvents

    def side(self, name: str) -> SideEvents:
        if name not in SIDES:
            raise SegmentationError(f"no events for side {name!r}")
        return getattr(self, name)

    def rows(self) -> list[tuple[str, str, float]]:
        """``(side, event, time)`` of every event: left, then right, each
        side in time order with a heel strike first at equal times."""
        return [(side, kind, t) for side in SIDES
                for ev in (getattr(self, side),)
                for t, kind in sorted(
                    [(t, "heel_strike") for t in ev.heel_strikes.tolist()]
                    + [(t, "toe_off") for t in ev.toe_offs.tolist()])]


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


def detect_side_events(time: np.ndarray, heel_x: np.ndarray,
                       heel_z: np.ndarray, toe_z: np.ndarray,
                       cfg) -> SideEvents:
    """Detect one side's heel strikes and toe-offs from its heel's x and z
    and its toe's z, (lightly) filtered 1-D marker series whose velocities
    are differenced at the median time step, under the event thresholds of
    the ``RunConfig`` ``cfg`` (``hs_forward_speed``, ``to_vertical_speed``,
    m/s; ``min_stance_s``, ``min_swing_s``).  Alternation is enforced by
    discarding the weaker of two same-kind consecutive detections.
    """
    if len(time) < 3:
        raise SegmentationError("series too short for event detection")
    dt = float(np.median(np.diff(time)))
    heel_vx = differentiate(heel_x, dt)
    toe_vz = differentiate(toe_z, dt)

    # isfinite: -inf passes < and +inf passes >
    hs_idx = _local_extrema(heel_z, 1)
    hs_idx = hs_idx[np.isfinite(heel_vx[hs_idx])
                    & (heel_vx[hs_idx] < cfg.hs_forward_speed)]
    to_idx = np.flatnonzero(np.isfinite(toe_vz[1:])
                            & (toe_vz[1:] > cfg.to_vertical_speed)
                            & (toe_vz[:-1] <= cfg.to_vertical_speed)) + 1

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
            min_span = (cfg.min_stance_s if prev_kind == "hs"
                        else cfg.min_swing_s)
            if span < min_span:
                # too-early opposite event: spurious, drop it
                continue
        cleaned.append((idx, kind))

    hs = np.array([time[i] for i, k in cleaned if k == "hs"])
    to = np.array([time[i] for i, k in cleaned if k == "to"])
    return SideEvents(heel_strikes=hs, toe_offs=to)


def _check_alternation(ev: SideEvents) -> None:
    """Raise unless the events alternate strictly in time, each kind listed
    in time order."""
    hs, to = ev.heel_strikes.tolist(), ev.toe_offs.tolist()
    a, b = (to, hs) if to and not (hs and hs[0] < to[0]) else (hs, to)
    if not (0 <= len(a) - len(b) <= 1 and all(x < y for x, y in zip(a, b))
            and all(x < y for x, y in zip(b, a[1:]))):
        raise SegmentationError(
            "events do not alternate: heel strikes at "
            + ", ".join(f"{t:.3f}" for t in hs) + " s, toe-offs at "
            + ", ".join(f"{t:.3f}" for t in to) + " s")


def _first_after(times: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The first of the ascending ``times`` strictly after each ``t``, NaN
    where there is none (and where ``t`` is NaN)."""
    return np.append(times, np.nan)[np.searchsorted(times, t, side="right")]


def cycle_table(ipsi: SideEvents, contra: SideEvents | None = None) -> np.ndarray:
    """The (k, 6) cycle table of ``ipsi``'s k heel strikes; see the module
    docstring for its columns.  Without ``contra`` the contralateral
    columns are NaN."""
    contra = contra if contra is not None else SideEvents(np.empty(0), np.empty(0))
    hs = np.asarray(ipsi.heel_strikes, dtype=float)
    next_hs = np.append(hs, np.nan)[1:]
    c_hs = _first_after(contra.heel_strikes, hs)
    c_to = _first_after(contra.toe_offs, hs)
    return np.column_stack([hs, _first_after(ipsi.toe_offs, hs), next_hs,
                            np.where(c_hs < next_hs, c_hs, np.nan), c_to,
                            _first_after(contra.heel_strikes, c_to)])


def stance_windows(cycles: np.ndarray) -> np.ndarray:
    """(heel strike, toe-off) of every row of a cycle table with a toe-off,
    as an (m, 2) array."""
    return cycles[~np.isnan(cycles[:, TO])][:, [HS, TO]]


def grf_stance_check(ev: SideEvents, grf_time: np.ndarray, fz: np.ndarray,
                     threshold: float) -> list[str]:
    """Optional cross-check of kinematic heel strikes against the vertical
    force rising through ``threshold`` N.  Returns warnings for strikes on
    the instrumented plate that disagree by more than ``HS_ONSET_TOL_S``."""
    rising = np.where((fz[1:] >= threshold) & (fz[:-1] < threshold))[0]
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


def stance_swing_durations(cycles: np.ndarray) -> list[dict[str, float]]:
    """Per full cycle of a cycle table: stance/swing durations and the
    stance fraction.

    stance = TO - HS, swing = next HS - TO, fraction = stance / cycle.
    """
    if len(cycles) < 2:
        raise InsufficientDataError(
            f"need at least 2 heel strikes, got {len(cycles)}")
    return [{"stance_s": to - hs, "swing_s": hs1 - to,
             "stance_fraction": (to - hs) / (hs1 - hs)}
            for hs, to, hs1 in cycles[:-1, [HS, TO, NEXT_HS]].tolist()]
