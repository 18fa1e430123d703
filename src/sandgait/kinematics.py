"""Segment kinematics from smoothed marker arrays.

This module works on arrays alone and reads no marker schema: the
pipeline stacks and smooths the markers, by one ``moving_average`` call
per window, and hands each leg's hip-knee-ankle-toe chain to one
``segment_states`` call, which returns every segment's planar
``dynamics.FrameState`` (the type inverse dynamics reads) beside the
segments' ``[x, z]`` COMs and pitches.

All angular quantities are sagittal (lab X-Z plane, X forward, Z up);
out-of-plane marker motion is projected out.  The pitch of a unit vector
``e`` is ``atan2(e_x, -e_z)``: zero pointing straight down, positive when
tilted forward.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .dynamics import FrameState
from .errors import ConfigurationError, ParameterError, SingularSegmentError
from .model import SegmentParams

#: Below this proximal-distal marker distance a frame is degenerate.
MIN_SEGMENT_LENGTH = 1e-3  # m


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centred boxcar filter; edges use shrinking symmetric windows.

    ``window`` must be odd and no longer than the sequence.  Works on (N,),
    (N, k) or (N, k, 3) arrays, filtering along axis 0.  An output sample whose
    window holds a non-finite input is NaN; all others are unaffected.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if window < 1 or window % 2 == 0:
        raise ParameterError(f"window must be odd and >= 1, got {window}")
    if window > n:
        raise ParameterError(f"window {window} exceeds sequence length {n}")
    # rows h .. n-1-h see a full window, from slices; only the h edge rows
    # at each end, whose windows shrink, are gathered
    h = window // 2
    edge = np.r_[:h, n - h:n]
    k = np.minimum(edge, n - 1 - edge)
    lo, hi = edge - k, edge + k + 1
    # running sums with a leading zero row: sum(x[lo:hi]) = csum[hi] - csum[lo]
    # (summed from that +0.0 row, so a leading -0.0 sums to +0.0), the
    # non-finite inputs summed as 0.0
    csum = np.empty((n + 1,) + x.shape[1:])
    csum[0], csum[1:] = 0.0, x
    bad, full_bad = ~np.isfinite(x), None
    if bad.any():
        csum[1:][bad] = 0.0
        # the windows that hold a non-finite input: the full ones from a
        # view of every window, the shrinking ones one slice each
        full_bad = np.lib.stride_tricks.sliding_window_view(
            bad, window, axis=0).any(axis=-1)
        edge_bad = np.array([bad[a:b].any(axis=0) for a, b in zip(lo, hi)],
                            dtype=bool).reshape((len(edge),) + x.shape[1:])
    del bad  # freed first: the sums, the output and the masks are the peak
    np.cumsum(csum, axis=0, out=csum)
    out = np.empty(x.shape)
    full = out[h:n - h]
    np.subtract(csum[window:], csum[:-window], out=full)
    full /= window
    edges = ((csum[hi] - csum[lo])
             / (hi - lo).reshape((-1,) + (1,) * (x.ndim - 1)))
    if full_bad is not None:
        full[full_bad] = np.nan
        edges[edge_bad] = np.nan
    out[edge] = edges
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
    """Sagittal pitch of ``[x, z]`` direction vectors, radians, unwrapped.

    ``e`` is ``(N, 2)`` or ``(N, k, 2)``; the pitch is ``(N,)`` or
    ``(N, k)``, each column unwrapped over its own finite frames, so NaN
    frames stay NaN without breaking the unwrap of later frames.
    """
    e = np.atleast_2d(e)
    theta = np.arctan2(e[..., 0], -e[..., 1])
    for col in theta.reshape(len(theta), -1).T:  # views into theta
        valid = np.isfinite(col)
        if valid.any():
            col[valid] = np.unwrap(col[valid])
    return theta


def segment_states(chain: np.ndarray, time: np.ndarray,
                   params: Sequence[SegmentParams], labels: Sequence[str]
                   ) -> tuple[list[FrameState], np.ndarray, np.ndarray]:
    """Planar states of the segments of one smoothed marker chain, their
    ``[x, z]`` COMs and their sagittal pitches (radians, as ``pitch_angle``).

    ``chain`` is ``(N, k + 1, 3)``, proximal to distal: segment ``j`` runs
    from marker ``j`` to marker ``j + 1`` and has ``params[j]``; ``labels``
    name the markers for errors.  Returns ``k`` states, each field a
    contiguous copy, the ``(N, k, 2)`` COMs and the ``(N, k)`` pitches.
    The angular acceleration is the pitch differentiated twice; its sign
    follows the lab Y axis (a forward-tipping segment has negative omega
    about +Y).
    """
    delta = np.diff(chain, axis=1)
    norm = np.linalg.norm(delta, axis=2)
    degenerate = norm < MIN_SEGMENT_LENGTH  # False where NaN
    if degenerate.any():
        frame, j = np.argwhere(degenerate)[0]
        raise SingularSegmentError(
            f"markers {labels[j]!r}/{labels[j + 1]!r} are coincident at "
            f"frame {frame} (t={time[frame]:.3f} s)")
    with np.errstate(invalid="ignore"):
        e = delta[..., ::2] / norm[..., None]  # x and z

    dt = float(np.median(np.diff(time)))
    com = chain[:, :-1, ::2] + np.array(
        [p.com_offset for p in params])[:, None] * e
    pitch = pitch_angle(e)
    acc = differentiate(com, dt, order=2)
    omega_dot = -differentiate(pitch, dt, order=2)
    states = [FrameState(e=e[:, j].copy(), acc=acc[:, j].copy(),
                         omega_dot=omega_dot[:, j].copy())
              for j in range(len(params))]
    return states, com, pitch


def joint_angles(pitch: np.ndarray) -> dict[str, np.ndarray]:
    """Sagittal joint angles in degrees for one side, from the ``(N, 3)``
    thigh, shank and foot pitches (radians) that ``segment_states``
    returns.

    hip: thigh pitch against the vertical trunk-axis proxy, flexion
    positive; knee: thigh-shank angle, flexion positive, 0 at full
    extension; ankle: shank-foot angle minus 90 deg, dorsiflexion positive.
    Frames with missing segment directions yield NaN angles.
    """
    a_t, a_s, a_f = np.degrees(pitch).T
    return {
        "hip": a_t,
        "knee": a_t - a_s,
        "ankle": (a_f - a_s) - 90.0,
    }


def com_trajectory(coms: np.ndarray, masses: Sequence[float],
                   body_mass: float, pelvis_mid: np.ndarray) -> np.ndarray:
    """Whole-body ``[x, z]`` COM proxy: mass-weighted segment COMs, with the
    residual (head-arms-trunk) mass lumped at the pelvis-marker midpoint.
    ``coms`` is ``(N, k, 2)``, column ``j`` the COM of a segment of mass
    ``masses[j]``; the columns are summed in order."""
    total = 0.0
    weighted = np.zeros_like(pelvis_mid)
    for j, m in enumerate(masses):
        weighted = weighted + m * coms[:, j]
        total += m
    residual = body_mass - total
    if residual < -1e-9:
        raise ConfigurationError(
            f"modeled segment masses ({total:.3f} kg) exceed body mass")
    weighted = weighted + max(residual, 0.0) * pelvis_mid
    return weighted / body_mass
