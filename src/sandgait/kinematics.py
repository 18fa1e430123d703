"""Segment kinematics from labeled markers.

All angular quantities are sagittal (lab X-Z plane, X forward, Z up);
out-of-plane marker motion is projected out.  The pitch of a unit vector
``e`` is ``atan2(e_x, -e_z)``: zero pointing straight down, positive when
tilted forward.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, SingularSegmentError
from .ingest import MarkerData
from .model import SegmentParams
from .schema import MarkerSchema

#: Below this proximal-distal marker distance a frame is degenerate.
MIN_SEGMENT_LENGTH = 1e-3  # m


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centred boxcar filter; edges use shrinking symmetric windows.

    ``window`` must be odd and no longer than the sequence.  Works on (N,)
    or (N, k) arrays, filtering along axis 0.  An output sample whose
    window holds a non-finite input is NaN; all others are unaffected.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if window < 1 or window % 2 == 0:
        raise ParameterError(f"window must be odd and >= 1, got {window}")
    if window > n:
        raise ParameterError(f"window {window} exceeds sequence length {n}")
    i = np.arange(n)
    k = np.minimum(window // 2, np.minimum(i, n - 1 - i))
    lo, hi = i - k, i + k + 1
    bad = ~np.isfinite(x)
    # running sums with a leading zero row: sum(x[lo:hi]) = csum[hi] - csum[lo]
    csum = np.cumsum(np.concatenate([np.zeros_like(x[:1]),
                                     np.where(bad, 0.0, x)]), axis=0)
    nbad = np.cumsum(np.concatenate([np.zeros_like(bad[:1]), bad]), axis=0)
    shape = (n,) + (1,) * (x.ndim - 1)
    out = (csum[hi] - csum[lo]) / (hi - lo).reshape(shape)
    out[nbad[hi] != nbad[lo]] = np.nan
    return out


def differentiate(x: np.ndarray, dt: float, order: int = 1) -> np.ndarray:
    """Finite-difference derivative on a uniform grid.

    Central differences in the interior; second-order one-sided stencils at
    the endpoints.  ``order`` is 1 or 2.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if n < 3:
        raise ParameterError(f"need at least 3 samples, got {n}")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")
    out = np.empty_like(x)
    if order == 1:
        out[1:-1] = (x[2:] - x[:-2]) / (2 * dt)
        out[0] = (-3 * x[0] + 4 * x[1] - x[2]) / (2 * dt)
        out[-1] = (3 * x[-1] - 4 * x[-2] + x[-3]) / (2 * dt)
    else:
        dt2 = dt * dt
        out[1:-1] = (x[2:] - 2 * x[1:-1] + x[:-2]) / dt2
        if n >= 4:
            out[0] = (2 * x[0] - 5 * x[1] + 4 * x[2] - x[3]) / dt2
            out[-1] = (2 * x[-1] - 5 * x[-2] + 4 * x[-3] - x[-4]) / dt2
        else:
            out[0] = out[-1] = out[1]
    return out


def pitch_angle(e: np.ndarray) -> np.ndarray:
    """Sagittal pitch of direction vectors, radians, unwrapped over time.

    NaN frames stay NaN without breaking the unwrap of later frames.
    """
    e = np.atleast_2d(e)
    theta = np.arctan2(e[:, 0], -e[:, 2])
    valid = np.isfinite(theta)
    if valid.any():
        theta[valid] = np.unwrap(theta[valid])
    return theta


@dataclass
class SegmentStateSeries:
    """Per-frame rigid-segment kinematics for one segment of one side."""

    time: np.ndarray
    e: np.ndarray          # (N, 3) unit proximal -> distal
    com_pos: np.ndarray    # (N, 3)
    com_acc: np.ndarray
    omega_dot: np.ndarray  # (N, 3), about the lab Y axis

    def __len__(self) -> int:
        return len(self.time)


def segment_states(markers: MarkerData, schema: MarkerSchema, side: str,
                   segment: str, params: SegmentParams,
                   filter_window: int = 7) -> SegmentStateSeries:
    """Filtered kinematic state of one leg segment.

    Marker positions are boxcar-filtered before differencing.  The angular
    acceleration comes from the sagittal segment pitch differentiated twice;
    its sign follows the lab Y axis (a forward-tipping segment has negative
    omega about +Y).
    """
    prox_label, dist_label = schema.segment_endpoints(side, segment)
    dt = markers.dt
    p = moving_average(markers.pos[prox_label], filter_window)
    d = moving_average(markers.pos[dist_label], filter_window)

    delta = d - p
    norm = np.linalg.norm(delta, axis=1)
    finite = np.isfinite(norm)
    degenerate = finite & (norm < MIN_SEGMENT_LENGTH)
    if degenerate.any():
        frame = int(np.where(degenerate)[0][0])
        raise SingularSegmentError(
            f"{side} {segment}: markers {prox_label!r}/{dist_label!r} are "
            f"coincident at frame {frame} (t={markers.time[frame]:.3f} s)")
    with np.errstate(invalid="ignore"):
        e = delta / norm[:, None]

    com_pos = p + params.com_offset * e
    com_acc = differentiate(com_pos, dt, order=2)

    theta = pitch_angle(e)
    theta_ddot = differentiate(theta, dt, order=2)
    omega_dot = np.zeros_like(e)
    omega_dot[:, 1] = -theta_ddot

    return SegmentStateSeries(time=markers.time.copy(), e=e, com_pos=com_pos,
                              com_acc=com_acc, omega_dot=omega_dot)


def joint_angles(thigh: SegmentStateSeries, shank: SegmentStateSeries,
                 foot: SegmentStateSeries) -> dict[str, np.ndarray]:
    """Sagittal joint angles in degrees for one side.

    hip: thigh pitch against the vertical trunk-axis proxy, flexion
    positive; knee: thigh-shank angle, flexion positive, 0 at full
    extension; ankle: shank-foot angle minus 90 deg, dorsiflexion positive.
    Frames with missing segment directions yield NaN angles.
    """
    a_t = np.degrees(pitch_angle(thigh.e))
    a_s = np.degrees(pitch_angle(shank.e))
    a_f = np.degrees(pitch_angle(foot.e))
    return {
        "hip": a_t,
        "knee": a_t - a_s,
        "ankle": (a_f - a_s) - 90.0,
    }


def pelvis_midpoint(markers: MarkerData, schema: MarkerSchema,
                    filter_window: int = 7) -> np.ndarray:
    stack = np.stack([moving_average(markers.pos[l], filter_window)
                      for l in schema.pelvis_labels()])
    return stack.mean(axis=0)


def com_trajectory(states: dict[tuple[str, str], SegmentStateSeries],
                   params: dict[str, SegmentParams],
                   body_mass: float,
                   pelvis_mid: np.ndarray) -> np.ndarray:
    """Whole-body COM proxy: mass-weighted segment COMs, with the residual
    (head-arms-trunk) mass lumped at the pelvis-marker midpoint."""
    total = 0.0
    weighted = np.zeros_like(pelvis_mid)
    for (side, segment), st in states.items():
        m = params[segment].mass
        weighted = weighted + m * st.com_pos
        total += m
    residual = body_mass - total
    if residual < -1e-9:
        raise ConfigurationError(
            f"modeled segment masses ({total:.3f} kg) exceed body mass")
    weighted = weighted + max(residual, 0.0) * pelvis_mid
    return weighted / body_mass
