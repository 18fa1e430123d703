"""Segment kinematics from labeled markers.

Markers are smoothed once, before anything reads them: ``smooth_markers``
stacks the markers one stage needs into an ``(N, k, 3)`` array and filters
it by one ``moving_average`` call.  ``segment_states`` and
``pelvis_midpoint`` take those smoothed markers and filter nothing
themselves.  A segment's state is a planar ``dynamics.FrameState``, the
type inverse dynamics reads, returned beside its ``[x, z]`` COM and pitch.

All angular quantities are sagittal (lab X-Z plane, X forward, Z up);
out-of-plane marker motion is projected out.  The pitch of a unit vector
``e`` is ``atan2(e_x, -e_z)``: zero pointing straight down, positive when
tilted forward.
"""
from __future__ import annotations

import numpy as np

from .dynamics import FrameState
from .errors import ConfigurationError, ParameterError, SingularSegmentError
from .ingest import MarkerData
from .model import SegmentParams
from .schema import MarkerSchema

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

    NaN frames stay NaN without breaking the unwrap of later frames.
    """
    e = np.atleast_2d(e)
    theta = np.arctan2(e[:, 0], -e[:, 1])
    valid = np.isfinite(theta)
    if valid.any():
        theta[valid] = np.unwrap(theta[valid])
    return theta


def smooth_markers(markers: MarkerData, labels: list[str],
                   window: int) -> MarkerData:
    """The markers named by ``labels``, boxcar-filtered at ``window`` by one
    ``moving_average`` call over their ``(N, k, 3)`` stack."""
    stack = moving_average(np.stack([markers.pos[l] for l in labels], axis=1),
                           window)
    return MarkerData(time=markers.time,
                      pos={l: stack[:, k] for k, l in enumerate(labels)})


def segment_states(markers: MarkerData, schema: MarkerSchema, side: str,
                   segment: str, params: SegmentParams
                   ) -> tuple[FrameState, np.ndarray, np.ndarray]:
    """Planar state of one leg segment from smoothed markers, its ``[x, z]``
    COM and its sagittal pitch (radians, as ``pitch_angle``).

    The angular acceleration is the pitch differentiated twice; its sign
    follows the lab Y axis (a forward-tipping segment has negative omega
    about +Y).
    """
    prox_label, dist_label = schema.segment_endpoints(side, segment)
    dt = markers.dt
    p = markers.pos[prox_label]
    delta = markers.pos[dist_label] - p
    norm = np.linalg.norm(delta, axis=1)
    degenerate = norm < MIN_SEGMENT_LENGTH  # False where NaN
    if degenerate.any():
        frame = int(np.where(degenerate)[0][0])
        raise SingularSegmentError(
            f"{side} {segment}: markers {prox_label!r}/{dist_label!r} are "
            f"coincident at frame {frame} (t={markers.time[frame]:.3f} s)")
    with np.errstate(invalid="ignore"):
        e = delta / norm[:, None]

    e = e[:, ::2].copy()  # x and z, not a view keeping all three alive
    com = p[:, ::2] + params.com_offset * e
    pitch = pitch_angle(e)
    state = FrameState(e=e, acc=differentiate(com, dt, order=2),
                       omega_dot=-differentiate(pitch, dt, order=2))
    return state, com, pitch


def joint_angles(thigh: np.ndarray, shank: np.ndarray,
                 foot: np.ndarray) -> dict[str, np.ndarray]:
    """Sagittal joint angles in degrees for one side, from the segment
    pitches (radians) that ``segment_states`` returns.

    hip: thigh pitch against the vertical trunk-axis proxy, flexion
    positive; knee: thigh-shank angle, flexion positive, 0 at full
    extension; ankle: shank-foot angle minus 90 deg, dorsiflexion positive.
    Frames with missing segment directions yield NaN angles.
    """
    a_t, a_s, a_f = np.degrees(thigh), np.degrees(shank), np.degrees(foot)
    return {
        "hip": a_t,
        "knee": a_t - a_s,
        "ankle": (a_f - a_s) - 90.0,
    }


def pelvis_midpoint(markers: MarkerData, schema: MarkerSchema) -> np.ndarray:
    """Mean ``[x, z]`` of the pelvis markers, from smoothed markers."""
    return np.stack([markers.pos[l][:, ::2]
                     for l in schema.pelvis_labels()]).mean(axis=0)


def com_trajectory(coms: dict[tuple[str, str], np.ndarray],
                   params: dict[str, SegmentParams],
                   body_mass: float,
                   pelvis_mid: np.ndarray) -> np.ndarray:
    """Whole-body ``[x, z]`` COM proxy: mass-weighted segment COMs, with the
    residual (head-arms-trunk) mass lumped at the pelvis-marker midpoint.
    The segments are summed in the order of ``coms``."""
    total = 0.0
    weighted = np.zeros_like(pelvis_mid)
    for (side, segment), com in coms.items():
        m = params[segment].mass
        weighted = weighted + m * com
        total += m
    residual = body_mass - total
    if residual < -1e-9:
        raise ConfigurationError(
            f"modeled segment masses ({total:.3f} kg) exceed body mass")
    weighted = weighted + max(residual, 0.0) * pelvis_mid
    return weighted / body_mass
