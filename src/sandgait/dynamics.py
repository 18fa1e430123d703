"""Sagittal-plane Newton-Euler inverse dynamics of the planar link-segment
model (Winter, *Biomechanics and Motor Control of Human Movement*, 2009,
ch. 5): vectors are lab ``[x, z]`` pairs, moments and angular
accelerations lab-Y scalars, for one frame or per frame.

Production runs one recursive Newton-Euler pass per leg over whole-trial
arrays (Featherstone, *Rigid Body Dynamics Algorithms*, ch. 5), carrying
the accumulated load up the foot-shank-thigh chain for all frames at once;
its only output is the joint moments.  The same functions take one frame.

Closed-form ankle/knee/hip moment expressions, written directly against
the chain, are kept as the test oracle.  In them every lever is expressed
with the segment axis pointing from the distal joint to the proximal joint
(``u = -e`` for a proximal->distal state vector ``e``), so the force lever
telescopes from the load's reference point to the joint of interest.  The
recursive pass reproduces the ankle and knee closed forms exactly; at the
hip it additionally carries the thigh-mass force term that the closed form
omits (``hip_thigh_mass_term``).

The same code path serves stance and swing: swing frames simply carry a
zero external load.  A leg is one ``{segment: FrameState}`` dict of the
states one ``kinematics.segment_states`` call returns, into every pass
here.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError
from .model import GRAVITY, LEG_SEGMENTS, SegmentParams

JOINTS = ("ankle", "knee", "hip")

#: The lab vertical as an ``[x, z]`` pair.
UP = np.array([0.0, 1.0])


def _cross_y(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lab-Y component of ``a x b`` for ``[x, z]`` vectors: the floats
    of the y of the 3-D cross product, ``a_z b_x - a_x b_z``, for any y."""
    return a[..., 1] * b[..., 0] - a[..., 0] * b[..., 1]


@dataclass(frozen=True)
class ExternalLoad:
    """Ground wrench on the foot, at one instant or per frame.

    ``moment`` is the ground moment about a reference point and ``r`` the
    lever from that point to the toe.  The joint moments depend only on the
    wrench, not on the point it is described about: the pipeline takes the
    plate origin, the synthetic oracle the COP with zero couple.
    """

    force: np.ndarray   # (2,) or (N, 2), N, [x, z]
    moment: np.ndarray  # () or (N,), N m, lab y, about the reference point
    r: np.ndarray       # (2,) or (N, 2), m, [x, z], reference point -> toe


@dataclass(frozen=True)
class FrameState:
    """Segment kinematics for the dynamics equations, one frame or many."""

    e: np.ndarray          # (2,) or (N, 2), [x, z], unit proximal -> distal
    acc: np.ndarray        # (2,) or (N, 2), [x, z], COM acceleration
    omega_dot: np.ndarray  # () or (N,), angular acceleration about lab y


def ankle_dynamics(load: ExternalLoad, foot: FrameState,
                   params_f: SegmentParams,
                   g: float = GRAVITY) -> np.ndarray:
    """Closed-form ankle moment of the foot segment."""
    u_f = -foot.e  # distal -> proximal (toe -> ankle)
    return (load.moment
            - _cross_y(load.r + params_f.length * u_f, load.force)
            - _cross_y(params_f.com_offset * u_f,
                       params_f.mass * (foot.acc + g * UP))
            + params_f.inertia * foot.omega_dot)


def knee_closed_form(load: ExternalLoad, foot: FrameState, shank: FrameState,
                     params: dict[str, SegmentParams],
                     g: float = GRAVITY) -> np.ndarray:
    """Closed-form knee moment of the foot+shank chain."""
    pf, ps = params["foot"], params["shank"]
    u_f, u_s = -foot.e, -shank.e
    return (load.moment
            - _cross_y(load.r + pf.length * u_f + ps.length * u_s, load.force)
            + pf.inertia * foot.omega_dot + ps.inertia * shank.omega_dot
            - _cross_y(pf.com_offset * u_f + ps.length * u_s,
                       pf.mass * (foot.acc + g * UP))
            - _cross_y(ps.com_offset * u_s,
                       ps.mass * (shank.acc + g * UP)))


def hip_closed_form(load: ExternalLoad, foot: FrameState, shank: FrameState,
                    thigh: FrameState, params: dict[str, SegmentParams],
                    g: float = GRAVITY) -> np.ndarray:
    """Closed-form hip moment.

    As written this expression carries no thigh-mass force term; the
    recursive pass includes it, and the difference is exactly
    ``-(l_p^t u_t x m_t (a_t + g e_z))_y``.
    """
    pf, ps, pt = params["foot"], params["shank"], params["thigh"]
    u_f, u_s, u_t = -foot.e, -shank.e, -thigh.e
    return (-_cross_y(load.r + pf.length * u_f + ps.length * u_s
                      + pt.length * u_t, load.force)
            - _cross_y(ps.com_offset * u_s + pt.length * u_t,
                       ps.mass * (shank.acc + g * UP))
            - _cross_y(pf.com_offset * u_f + ps.length * u_s + pt.length * u_t,
                       pf.mass * (foot.acc + g * UP))
            + pf.inertia * foot.omega_dot + ps.inertia * shank.omega_dot
            + pt.inertia * thigh.omega_dot
            + load.moment)


def hip_thigh_mass_term(thigh: FrameState, params_t: SegmentParams,
                        g: float = GRAVITY) -> np.ndarray:
    """The thigh-mass force term absent from the closed-form hip moment."""
    u_t = -thigh.e
    return -_cross_y(params_t.com_offset * u_t,
                     params_t.mass * (thigh.acc + g * UP))


def recursive_leg(load: ExternalLoad,
                  states: dict[str, FrameState],
                  params: dict[str, SegmentParams],
                  g: float = GRAVITY,
                  ) -> dict[str, np.ndarray]:
    """Recursive Newton-Euler pass over foot, shank, thigh.

    The accumulated load (force ``F_c``, moment ``M_c`` taken about the
    running joint) starts from the ground wrench at the toe and is reacted
    onto each next segment; each step adds the segment's own inertial and
    gravity contribution.  Returns each joint's lab-Y moment, by joint in
    ``JOINTS`` order.  ``states`` must hold every one of ``LEG_SEGMENTS``.
    """
    if missing := [s for s in LEG_SEGMENTS if s not in states]:
        raise ContractError(f"leg states lack segment(s) {', '.join(missing)}")
    F_c = load.force
    M_c = _cross_y(load.r, load.force) - load.moment
    out = {}
    for joint, segment in zip(JOINTS, LEG_SEGMENTS):
        p = params[segment]
        st = states[segment]
        u = -st.e
        grav_inertial = p.mass * (st.acc + g * UP)
        out[joint] = (-M_c - _cross_y(p.length * u, F_c)
                      - _cross_y(p.com_offset * u, grav_inertial)
                      + p.inertia * st.omega_dot)
        # react onto the next segment: moment by Newton's third law, force
        # augmented by this segment's inertial+gravity wrench so the lever
        # algebra continues to telescope
        M_c = -out[joint]
        F_c = F_c + grav_inertial
    return out


@dataclass
class MomentSample:
    """A leg's joint moments by both formulations, and how far they part."""

    moments: dict[str, np.ndarray]          # recursive (authoritative)
    closed_form: dict[str, np.ndarray]
    divergence: dict[str, np.ndarray]       # |closed - recursive| per joint


def leg_inverse_dynamics(load: ExternalLoad,
                         states: dict[str, FrameState],
                         params: dict[str, SegmentParams],
                         g: float = GRAVITY) -> MomentSample:
    """Joint moments of one leg's states by both formulations (the oracle).

    At the hip the documented thigh-mass term is removed before measuring
    divergence, so a nonzero hip divergence flags a real disagreement, not
    the known formula gap.
    """
    rec = recursive_leg(load, states, params, g)
    foot, shank, thigh = (states[s] for s in LEG_SEGMENTS)
    closed = {
        "ankle": ankle_dynamics(load, foot, params["foot"], g),
        "knee": knee_closed_form(load, foot, shank, params, g),
        "hip": hip_closed_form(load, foot, shank, thigh, params, g),
    }
    expected = dict(closed, hip=closed["hip"] + hip_thigh_mass_term(
        thigh, params["thigh"], g))
    return MomentSample(moments=rec, closed_form=closed, divergence={
        j: np.abs(expected[j] - rec[j]) for j in JOINTS})


@dataclass
class JointMomentSeries:
    """Per-frame sagittal joint moments for one side."""

    moment_y: dict[str, np.ndarray]      # N m about lab Y, per joint
    normalized: dict[str, np.ndarray]    # N m / kg


def leg_moment_series(time: np.ndarray,
                      load: ExternalLoad,
                      states: dict[str, FrameState],
                      params: dict[str, SegmentParams],
                      body_mass: float,
                      g: float = GRAVITY) -> JointMomentSeries:
    """Inverse dynamics over a whole trial for one leg's states: one
    recursive pass over per-frame arrays.  ``load`` holds one ground load
    per frame.  Frames where any segment direction is missing come out NaN."""
    n = len(time)
    groups = {f"{k} state": s for k, s in states.items()} | {"loads": load}
    for name, group in groups.items():
        for f in fields(group):
            want = (n,) if f.name in ("moment", "omega_dot") else (n, 2)
            got = np.shape(getattr(group, f.name))
            if got != want:
                raise ContractError(f"got {name} {f.name} of shape {got}, "
                                    f"expected {want} for {n} frames")

    valid = np.all([np.isfinite(s.e).all(axis=1) for s in states.values()],
                   axis=0)
    rec = recursive_leg(load, states, params, g)
    mom = {j: np.where(valid, rec[j], np.nan) for j in JOINTS}
    return JointMomentSeries(moment_y=mom, normalized={
        j: mom[j] / body_mass for j in JOINTS})
