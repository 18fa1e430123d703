"""Sagittal-plane Newton-Euler inverse dynamics.

Production runs one recursive Newton-Euler pass per leg over whole-trial
arrays (Featherstone, *Rigid Body Dynamics Algorithms*, ch. 5): every load
and state field is ``(N, 3)``, and the pass transfers the accumulated load
wrench up the foot-shank-thigh chain for all frames at once.  The same
functions take single ``(3,)`` frames.

Closed-form ankle/knee/hip moment expressions, written directly against
the chain, are kept as the test oracle.  In them every lever is expressed
with the segment axis pointing from the distal joint to the proximal joint
(``u = -e`` for a proximal->distal state vector ``e``), so the force lever
telescopes from the load's reference point to the joint of interest.  The
recursive pass reproduces the ankle and knee closed forms exactly; at the
hip it additionally carries the thigh-mass force term that the closed form
omits (``hip_thigh_mass_term``).

The same code path serves stance and swing: swing frames simply carry a
zero external load.  One state type, ``FrameState``, runs from segment
kinematics (``kinematics.segment_states`` returns it, COM position set)
into ``recursive_leg``; the oracle's single frames leave ``com`` unset.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import E_Z, GRAVITY, LEG_SEGMENTS, SegmentParams

JOINTS = ("ankle", "knee", "hip")


@dataclass(frozen=True)
class ExternalLoad:
    """Ground wrench on the foot, at one instant ``(3,)`` or per frame ``(N, 3)``.

    ``moment`` is the ground moment about a reference point and ``r`` the
    lever from that point to the toe.  The joint moments depend only on the
    wrench, not on the point it is described about: the pipeline takes the
    plate origin, the synthetic oracle the COP with zero couple.
    """

    force: np.ndarray   # (3,) or (N, 3), N
    moment: np.ndarray  # (3,) or (N, 3), N m, about the reference point
    r: np.ndarray       # (3,) or (N, 3), m, reference point -> toe

    @classmethod
    def zero(cls) -> "ExternalLoad":
        z = np.zeros(3)
        return cls(force=z, moment=z.copy(), r=z.copy())


@dataclass(frozen=True)
class FrameState:
    """Segment kinematics for the dynamics equations, ``(3,)`` or ``(N, 3)``."""

    e: np.ndarray          # (3,) or (N, 3), unit proximal -> distal
    acc: np.ndarray        # (3,) or (N, 3), COM acceleration
    omega_dot: np.ndarray  # (3,) or (N, 3), angular acceleration vector
    # (N, 3), COM position: read by kinematics.com_trajectory alone, and
    # dropped by analyze_trial once that has run
    com: np.ndarray | None = None


def ankle_dynamics(load: ExternalLoad, foot: FrameState,
                   params_f: SegmentParams,
                   g: float = GRAVITY) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form proximal (ankle) force and moment of the foot segment."""
    u_f = -foot.e  # distal -> proximal (toe -> ankle)
    F_P = -load.force + params_f.mass * foot.acc - params_f.mass * g * E_Z
    M_P = (load.moment
           - np.cross(load.r + params_f.length * u_f, load.force)
           - np.cross(params_f.com_offset * u_f,
                      params_f.mass * (foot.acc + g * E_Z))
           + params_f.inertia * foot.omega_dot)
    return F_P, M_P


def knee_closed_form(load: ExternalLoad, foot: FrameState, shank: FrameState,
                     params: dict[str, SegmentParams],
                     g: float = GRAVITY) -> np.ndarray:
    """Closed-form knee moment of the foot+shank chain."""
    pf, ps = params["foot"], params["shank"]
    u_f, u_s = -foot.e, -shank.e
    return (load.moment
            - np.cross(load.r + pf.length * u_f + ps.length * u_s, load.force)
            + pf.inertia * foot.omega_dot + ps.inertia * shank.omega_dot
            - np.cross(pf.com_offset * u_f + ps.length * u_s,
                       pf.mass * (foot.acc + g * E_Z))
            - np.cross(ps.com_offset * u_s,
                       ps.mass * (shank.acc + g * E_Z)))


def hip_closed_form(load: ExternalLoad, foot: FrameState, shank: FrameState,
                    thigh: FrameState, params: dict[str, SegmentParams],
                    g: float = GRAVITY) -> np.ndarray:
    """Closed-form hip moment.

    As written this expression carries no thigh-mass force term; the
    recursive pass includes it, and the difference is exactly
    ``-l_p^t u_t x m_t (a_t + g e_z)``.
    """
    pf, ps, pt = params["foot"], params["shank"], params["thigh"]
    u_f, u_s, u_t = -foot.e, -shank.e, -thigh.e
    return (-np.cross(load.r + pf.length * u_f + ps.length * u_s
                      + pt.length * u_t, load.force)
            - np.cross(ps.com_offset * u_s + pt.length * u_t,
                       ps.mass * (shank.acc + g * E_Z))
            - np.cross(pf.com_offset * u_f + ps.length * u_s + pt.length * u_t,
                       pf.mass * (foot.acc + g * E_Z))
            + pf.inertia * foot.omega_dot + ps.inertia * shank.omega_dot
            + pt.inertia * thigh.omega_dot
            + load.moment)


def hip_thigh_mass_term(thigh: FrameState, params_t: SegmentParams,
                        g: float = GRAVITY) -> np.ndarray:
    """The thigh-mass force term absent from the closed-form hip moment."""
    u_t = -thigh.e
    return -np.cross(params_t.com_offset * u_t,
                     params_t.mass * (thigh.acc + g * E_Z))


def recursive_leg(load: ExternalLoad,
                  states: dict[str, FrameState],
                  params: dict[str, SegmentParams],
                  g: float = GRAVITY,
                  ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Recursive Newton-Euler pass over foot, shank, thigh.

    The accumulated load wrench (force ``F_c``, moment ``M_c`` taken about
    the running joint) starts from the ground wrench at the toe and is
    reacted onto each next segment; each step adds the segment's own
    inertial and gravity contribution.  Returns per-joint
    (proximal force, proximal moment).
    """
    F_c = np.asarray(load.force, dtype=float).copy()
    M_c = np.cross(load.r, load.force) - load.moment
    out = {}
    for joint, segment in zip(JOINTS, LEG_SEGMENTS):
        p = params[segment]
        st = states[segment]
        u = -st.e
        grav_inertial = p.mass * (st.acc + g * E_Z)
        F_P = -F_c + p.mass * st.acc - p.mass * g * E_Z
        M_P = (-M_c - np.cross(p.length * u, F_c)
               - np.cross(p.com_offset * u, grav_inertial)
               + p.inertia * st.omega_dot)
        out[joint] = (F_P, M_P)
        # react onto the next segment: moment by Newton's third law, force
        # augmented by this segment's inertial+gravity wrench so the lever
        # algebra continues to telescope
        M_c = -M_P
        F_c = F_c + grav_inertial
    return out


@dataclass
class MomentSample:
    """Inverse-dynamics result for one leg, by both formulations."""

    moments: dict[str, np.ndarray]          # recursive (authoritative)
    forces: dict[str, np.ndarray]           # proximal joint forces
    closed_form: dict[str, np.ndarray]
    divergence: dict[str, np.ndarray]       # |closed - recursive| per joint


def leg_inverse_dynamics(load: ExternalLoad,
                         foot: FrameState, shank: FrameState,
                         thigh: FrameState,
                         params: dict[str, SegmentParams],
                         g: float = GRAVITY) -> MomentSample:
    """Ankle, knee, and hip moments by both formulations (the test oracle).

    At the hip the documented thigh-mass term is removed before measuring
    divergence, so a nonzero hip divergence flags a real disagreement, not
    the known formula gap.
    """
    states = {"foot": foot, "shank": shank, "thigh": thigh}
    rec = recursive_leg(load, states, params, g)
    closed = {
        "ankle": ankle_dynamics(load, foot, params["foot"], g)[1],
        "knee": knee_closed_form(load, foot, shank, params, g),
        "hip": hip_closed_form(load, foot, shank, thigh, params, g),
    }
    divergence = {}
    for joint in JOINTS:
        expected = closed[joint]
        if joint == "hip":
            expected = expected + hip_thigh_mass_term(thigh, params["thigh"], g)
        divergence[joint] = np.linalg.norm(expected - rec[joint][1], axis=-1)
    return MomentSample(moments={j: rec[j][1] for j in JOINTS},
                        forces={j: rec[j][0] for j in JOINTS},
                        closed_form=closed, divergence=divergence)


@dataclass
class JointMomentSeries:
    """Per-frame sagittal joint moments for one side."""

    moment_y: dict[str, np.ndarray]      # N m about lab Y, per joint
    normalized: dict[str, np.ndarray]    # N m / kg


def leg_moment_series(time: np.ndarray,
                      load: ExternalLoad,
                      foot: FrameState, shank: FrameState, thigh: FrameState,
                      params: dict[str, SegmentParams],
                      body_mass: float,
                      g: float = GRAVITY) -> JointMomentSeries:
    """Inverse dynamics over a whole trial for one side: one recursive pass
    over ``(N, 3)`` arrays.  ``load`` holds one ground load per frame.
    Frames where any segment direction is missing come out NaN."""
    n = len(time)
    states = {"foot": foot, "shank": shank, "thigh": thigh}
    fields = {f"{name} state": (s.e, s.acc, s.omega_dot)
              for name, s in states.items()}
    fields["loads"] = (load.force, load.moment, load.r)
    for name, arrays in fields.items():
        if any(np.shape(v) != (n, 3) for v in arrays):
            raise ContractError(f"got {name} of shape {np.shape(arrays[0])} "
                                f"for {n} frames")

    valid = np.all([np.isfinite(s.e).all(axis=1) for s in states.values()],
                   axis=0)
    rec = recursive_leg(load, states, params, g)
    mom = {j: np.where(valid, rec[j][1][:, 1], np.nan) for j in JOINTS}
    return JointMomentSeries(moment_y=mom, normalized={
        j: mom[j] / body_mass for j in JOINTS})
