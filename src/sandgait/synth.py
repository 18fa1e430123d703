"""Synthetic-gait forward generator (verification oracle).

A profile scripts pelvis motion and absolute segment pitch angles as small
trigonometric series, so positions, velocities, and accelerations are all
available analytically.  The generator emits marker and GRF streams in the
ingest formats together with ground-truth joint moments and gait events
for round-trip testing.  The scripted ground force balances whole-body
Newton dynamics (weight plus total inertial force) inside each stance
window, so a motionless profile yields exactly body weight on the plate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import ExternalLoad, JOINTS, recursive_leg, FrameState
from .errors import (ConfigurationError, GenerationError, check_number,
                     read_json_as)
from .gaitseg import (EventThresholds, GaitEvents, SideEvents,
                      detect_side_events, stance_windows)
from .ingest import GrfData, MarkerData, TrialMeta, write_json
from .model import (E_Z, GRAVITY, LEG_SEGMENTS, AnthropometricTable,
                    Participant, SegmentParams, segment_parameters)
from .schema import SIDES


@dataclass(frozen=True)
class Trig:
    """a0 + rate*t + sum(amp * sin(2 pi f t + phase)); analytic to any order."""

    a0: float = 0.0
    rate: float = 0.0
    terms: tuple[tuple[float, float, float], ...] = ()

    def __call__(self, t, order: int = 0):
        t = np.asarray(t, dtype=float)
        if order == 0:
            out = np.full_like(t, self.a0) + self.rate * t
        elif order == 1:
            out = np.full_like(t, self.rate)
        else:
            out = np.zeros_like(t)
        for amp, freq, phase in self.terms:
            w = 2.0 * math.pi * freq
            arg = w * t + phase
            if order == 0:
                out = out + amp * np.sin(arg)
            elif order == 1:
                out = out + amp * w * np.cos(arg)
            elif order == 2:
                out = out - amp * w * w * np.sin(arg)
            else:
                raise ValueError(f"unsupported derivative order {order}")
        return out

    def to_json(self):
        return {"a0": self.a0, "rate": self.rate,
                "terms": [list(t) for t in self.terms]}

    @classmethod
    def from_json(cls, doc, key: str = "trig"):
        """The inverse of ``to_json``; errors name profile key ``key``."""
        terms = doc.get("terms", [])
        for i, term in enumerate(terms):
            if len(term) != 3:
                raise ConfigurationError(f"{key}.terms[{i}] must hold three "
                                         f"numbers, got {term!r}")
        return cls(a0=check_number(f"{key}.a0", doc.get("a0", 0.0)),
                   rate=check_number(f"{key}.rate", doc.get("rate", 0.0)),
                   terms=tuple(tuple(check_number(f"{key}.terms[{i}][{j}]", v)
                                     for j, v in enumerate(term))
                               for i, term in enumerate(terms)))


@dataclass(frozen=True)
class LegAngles:
    thigh_pitch: Trig   # rad, 0 = straight down, + forward
    knee_flexion: Trig  # rad, >= 0
    foot_pitch: Trig    # rad, absolute pitch of the ankle->toe axis


@dataclass
class GaitProfile:
    """Scripted trial: geometry, trajectories, and stance schedule."""

    participant: Participant
    duration: float
    thigh_len: float = 0.42
    shank_len: float = 0.43
    foot_len: float = 0.20
    ankle_height: float = 0.08
    hip_half_width: float = 0.10
    pelvis_x: Trig = field(default_factory=Trig)
    pelvis_z: Trig = field(default_factory=lambda: Trig(a0=0.93))
    legs: dict[str, LegAngles] = field(default_factory=dict)
    grf_side: str = "right"
    ramp: float = 0.08          # s, smooth force on/off inside stance
    marker_dt: float = 0.01
    grf_dt: float = 0.001
    terrain: str = "solid"
    sand_depth: float | None = None
    # explicit stance windows; None means "derive from kinematic events"
    stance_windows: list[tuple[float, float]] | None = None
    # fixed COP (x, y) for static trials; None means "progress heel -> toe"
    cop_fixed: tuple[float, float] | None = None

    def to_json(self) -> dict:
        return {
            "participant": self.participant.to_json(),
            "duration_s": self.duration,
            "geometry": {"thigh_len": self.thigh_len, "shank_len": self.shank_len,
                         "foot_len": self.foot_len, "ankle_height": self.ankle_height,
                         "hip_half_width": self.hip_half_width},
            "pelvis_x": self.pelvis_x.to_json(),
            "pelvis_z": self.pelvis_z.to_json(),
            "legs": {side: {"thigh_pitch": la.thigh_pitch.to_json(),
                            "knee_flexion": la.knee_flexion.to_json(),
                            "foot_pitch": la.foot_pitch.to_json()}
                     for side, la in self.legs.items()},
            "grf_side": self.grf_side,
            "ramp_s": self.ramp,
            "marker_dt_s": self.marker_dt,
            "grf_dt_s": self.grf_dt,
            "terrain": self.terrain,
            "sand_depth_cm": self.sand_depth,
            "stance_windows_s": self.stance_windows,
            "cop_fixed_m": list(self.cop_fixed) if self.cop_fixed else None,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GaitProfile":
        """The inverse of ``to_json``; a key left out keeps the field's
        default."""
        geo = doc.get("geometry", {})
        kw = {name: check_number(f"geometry.{name}", geo[name], rule)
              for name, rule in _GEOMETRY.items() if name in geo}
        kw.update((name, convert(key, doc[key]))
                  for key, (name, convert) in _PROFILE_KEYS.items() if key in doc)
        legs = {side: LegAngles(**{name: Trig.from_json(
                    la[name], f"legs.{side}.{name}")
                    for name in LegAngles.__dataclass_fields__})
                for side, la in doc["legs"].items()}
        profile = cls(participant=Participant.from_json(doc["participant"]),
                      duration=check_number("duration_s", doc["duration_s"],
                                            "> 0"),
                      legs=legs, **kw)
        if profile.grf_side not in SIDES:
            raise ConfigurationError(f"grf_side must be one of {SIDES}, "
                                     f"got {profile.grf_side!r}")
        # the meta.json this profile writes: rejects an unknown terrain
        TrialMeta(profile.participant, profile.terrain, profile.sand_depth)
        return profile

    @classmethod
    def load(cls, path: str | Path) -> "GaitProfile":
        return read_json_as(path, cls.from_json, "profile")

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


#: The profile's "geometry" numbers, in m, and their rules.
_GEOMETRY = {"thigh_len": "> 0", "shank_len": "> 0", "foot_len": "> 0",
             "ankle_height": ">= 0", "hip_half_width": ">= 0"}

def _cop_fixed(key, cop) -> tuple[float, float] | None:
    """A profile's ``cop_fixed_m``: null, or two finite numbers."""
    if cop is None:
        return None
    xy = tuple(check_number(f"{key}[{i}]", v) for i, v in enumerate(cop))
    if len(xy) != 2:
        raise ConfigurationError(f"{key} must be two finite numbers, "
                                 f"got {cop!r}")
    return xy


def _stance_windows(key, windows) -> list[tuple] | None:
    """A profile's ``stance_windows_s``: null, or [start, end] pairs of
    finite numbers, start < end, kept as the file gives them."""
    for i, (t0, t1) in enumerate(windows or ()):
        if not (check_number(f"{key}[{i}][0]", t0)
                < check_number(f"{key}[{i}][1]", t1)):
            raise ConfigurationError(f"stance window {[t0, t1]} must be "
                                     f"finite with start < end")
    return None if windows is None else [tuple(w) for w in windows]


#: Top-level profile.json key -> (GaitProfile field, conversion of the key
#: and its value).
_PROFILE_KEYS = {
    "pelvis_x": ("pelvis_x", lambda key, v: Trig.from_json(v, key)),
    "pelvis_z": ("pelvis_z", lambda key, v: Trig.from_json(v, key)),
    "grf_side": ("grf_side", lambda key, v: v),
    "ramp_s": ("ramp", lambda key, v: check_number(key, v, ">= 0")),
    "marker_dt_s": ("marker_dt", lambda key, v: check_number(key, v, "> 0")),
    "grf_dt_s": ("grf_dt", lambda key, v: check_number(key, v, "> 0")),
    "terrain": ("terrain", lambda key, v: v),
    "sand_depth_cm": ("sand_depth", lambda key, v: None if v is None
                      else check_number(key, v, "> 0")),
    "stance_windows_s": ("stance_windows", _stance_windows),
    "cop_fixed_m": ("cop_fixed", _cop_fixed),
}


def _dir(a, a1, a2):
    """A segment's unit axis e = (sin a, 0, -cos a) at pitch ``a`` and its
    second time derivative, from one sin/cos of the pitch."""
    s, c = np.sin(a), np.cos(a)
    zeros = np.zeros_like(a)
    e = np.stack([s, zeros, -c], axis=-1)
    e_dd = a2[:, None] * np.stack([c, zeros, s], axis=-1) - (a1 ** 2)[:, None] * e
    return e, e_dd


class _LegKinematics:
    """One side's analytic chain at times ``t``: joint positions, the hip
    acceleration, the heel marker and each segment's dynamics state."""

    def __init__(self, profile: GaitProfile, side: str, t: np.ndarray,
                 params: dict[str, SegmentParams]):
        pr = profile
        la = pr.legs[side]
        zeros = np.zeros_like(t)
        thigh = tuple(la.thigh_pitch(t, k) for k in range(3))
        pitch = {"thigh": thigh,
                 "shank": tuple(a - la.knee_flexion(t, k)
                                for k, a in enumerate(thigh)),
                 "foot": tuple(la.foot_pitch(t, k) for k in range(3))}

        y = pr.hip_half_width * (1.0 if side == "right" else -1.0)
        pos = np.stack([pr.pelvis_x(t), np.full_like(t, y), pr.pelvis_z(t)], axis=-1)
        acc = self.hip_acc = np.stack([pr.pelvis_x(t, 2), zeros,
                                       pr.pelvis_z(t, 2)], axis=-1)
        self.pos = {"hip": pos}
        self.states = {}
        for seg, end, length in (("thigh", "knee", pr.thigh_len),
                                 ("shank", "ankle", pr.shank_len),
                                 ("foot", "toe", pr.foot_len)):
            e, e_dd = _dir(*pitch[seg])
            self.states[seg] = FrameState(
                e=e, acc=acc + params[seg].com_offset * e_dd,
                omega_dot=np.stack([zeros, -pitch[seg][2], zeros], axis=-1))
            pos, acc = pos + length * e, acc + length * e_dd
            self.pos[end] = pos

        # heel marker rigid on the foot: behind the ankle and toward the sole
        e_f = self.states["foot"].e
        sole = np.stack([-e_f[:, 2], zeros, e_f[:, 0]], axis=-1)
        self.heel = self.pos["ankle"] - 0.05 * e_f - 0.9 * pr.ankle_height * sole


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _stance_weight(t: np.ndarray, windows: list[tuple[float, float]],
                   ramp: float) -> np.ndarray:
    w = np.zeros_like(t)
    for t0, t1 in windows:
        if ramp > 0 and t1 - t0 > 2 * ramp:
            up = _smoothstep((t - t0) / ramp)
            down = _smoothstep((t1 - t) / ramp)
            w = np.maximum(w, np.minimum(up, down))
        else:
            w = np.maximum(w, ((t >= t0) & (t <= t1)).astype(float))
    return w


@dataclass
class SynthResult:
    """Everything a round-trip test needs."""

    markers: MarkerData
    grf: GrfData
    meta: TrialMeta
    truth_moments: dict[str, dict[str, np.ndarray]]  # side -> joint -> N m
    truth_events: GaitEvents
    marker_time: np.ndarray
    stance_windows: list[tuple[float, float]]


def _truth_events(feet: dict[str, tuple[np.ndarray, np.ndarray]],
                  t: np.ndarray, dt: float) -> GaitEvents:
    """Gait events from each side's analytic ``(heel, toe)`` on the GRF grid
    ``t`` of step ``dt``, so that every event time is a written GRF sample."""
    return GaitEvents(**{
        side: detect_side_events(t, heel[:, 2], toe[:, 2],
                                 np.gradient(heel[:, 0], dt), EventThresholds())
        for side, (heel, toe) in feet.items()})


def synthesize_gait(profile: GaitProfile) -> SynthResult:
    """Forward-generate a trial plus ground truth from a scripted profile."""
    pr = profile
    if set(pr.legs) != set(SIDES):
        raise GenerationError(f"profile must script both legs, has {set(pr.legs)}")
    if pr.grf_side not in SIDES:
        raise GenerationError(f"unknown grf_side {pr.grf_side!r}")

    lengths = {"thigh": pr.thigh_len, "shank": pr.shank_len, "foot": pr.foot_len}
    params = segment_parameters(pr.participant, AnthropometricTable.default(),
                                lengths)
    leg_mass = sum(p.mass for p in params.values())
    hat_mass = pr.participant.mass - 2 * leg_mass

    t_m = np.round(np.arange(0.0, pr.duration + 1e-9, pr.marker_dt), 9)
    t_g = np.round(np.arange(0.0, pr.duration + 1e-9, pr.grf_dt), 9)

    def inertial_force(kin, f=None):
        """``f`` plus one side's segment inertial forces, thigh first; ``f``
        starts as the trunk's (HAT's), which moves with the hip.  Sides added
        in SIDES order give one fixed float sum."""
        f = hat_mass * kin.hip_acc if f is None else f
        for seg in reversed(LEG_SEGMENTS):
            f = f + params[seg].mass * kin.states[seg].acc
        return f

    kin_m = {side: _LegKinematics(pr, side, t_m, params) for side in SIDES}

    # ground-clearance feasibility
    for side in SIDES:
        for name, series in (("toe", kin_m[side].pos["toe"][:, 2]),
                             ("heel", kin_m[side].heel[:, 2])):
            low = float(np.min(series))
            if low < -1e-6:
                raise GenerationError(
                    f"{side} {name} penetrates the ground ({low:.4f} m)")

    # at 1 kHz only the feet and the inertial force are read: build one
    # side's chain at a time and keep just those
    feet_g, inertia_g = {}, None
    for side in SIDES:
        kin = _LegKinematics(pr, side, t_g, params)
        feet_g[side] = kin.heel, kin.pos["toe"]
        inertia_g = inertial_force(kin, inertia_g)
        del kin

    # stance schedule
    is_static = all(
        not la.thigh_pitch.terms and not la.knee_flexion.terms
        and not la.foot_pitch.terms for la in pr.legs.values()
    ) and not pr.pelvis_x.terms and not pr.pelvis_z.terms \
        and pr.pelvis_x.rate == 0.0 and pr.pelvis_z.rate == 0.0
    if is_static and pr.stance_windows is not None:
        truth_events = GaitEvents(**{side: SideEvents(np.array([]), np.array([]))
                                     for side in SIDES})
    else:
        truth_events = _truth_events(feet_g, t_g, pr.grf_dt)
    if pr.stance_windows is not None:
        windows = list(pr.stance_windows)
    else:
        windows = [tuple(w) for w in
                   stance_windows(truth_events.side(pr.grf_side)).tolist()]
        if not windows:
            raise GenerationError("no stance window found for the plate side")

    def cop_track(t, feet):
        """COP progressing smoothly heel -> toe of the plate side's ``feet``
        inside each window (or pinned at ``cop_fixed`` for static trials)."""
        heel, toe = feet[pr.grf_side]
        heel_xy, toe_xy = heel[:, :2], toe[:, :2]
        cop = np.zeros((len(t), 2))
        for t0, t1 in windows:
            sel = (t >= t0) & (t <= t1)
            if pr.cop_fixed is not None:
                cop[sel] = np.asarray(pr.cop_fixed, dtype=float)
            else:
                u = _smoothstep((t[sel] - t0) / (t1 - t0))
                cop[sel] = (heel_xy[sel] * (1 - u[:, None])
                            + toe_xy[sel] * u[:, None])
        return cop

    # whole-body Newton balance: weight plus the total inertial force
    weight = pr.participant.mass * GRAVITY * E_Z[None, :]
    w_g = _stance_weight(t_g, windows, pr.ramp)
    force_g = w_g[:, None] * (inertia_g + weight)
    cop_g = cop_track(t_g, feet_g)
    cop3_g = np.concatenate([cop_g, np.zeros((len(t_g), 1))], axis=1)
    moment_g = np.cross(cop3_g, force_g)  # plate-origin moment, zero couple at COP

    grf = GrfData(time=t_g, force=force_g, moment=moment_g, cop=cop_g)

    # marker set
    markers = {}
    for side, tag in (("left", "L"), ("right", "R")):
        kin = kin_m[side]
        pos = kin.pos
        markers.update((f"{tag}-{name}", p) for name, p in pos.items())
        markers[f"{tag}-heel"] = kin.heel
        offset = np.array([0.0, 0.03 if side == "right" else -0.03, 0.0])
        markers[f"{tag}-thigh"] = 0.5 * (pos["hip"] + pos["knee"]) + offset
        markers[f"{tag}-shank"] = 0.5 * (pos["knee"] + pos["ankle"]) + offset
    pelvis_center = 0.5 * (kin_m["left"].pos["hip"] + kin_m["right"].pos["hip"])
    for tag, sign in (("L", -1.0), ("R", 1.0)):
        markers[f"{tag}-asis"] = pelvis_center + np.array([0.06, sign * 0.12, 0.02])
        markers[f"{tag}-psis"] = pelvis_center + np.array([-0.06, sign * 0.12, -0.02])
    marker_data = MarkerData(time=t_m, pos=markers)

    # ground-truth moments at marker timestamps
    w_m = _stance_weight(t_m, windows, pr.ramp)
    force_m = w_m[:, None] * (inertial_force(kin_m["right"],
                                             inertial_force(kin_m["left"]))
                              + weight)
    feet_m = {side: (kin.heel, kin.pos["toe"]) for side, kin in kin_m.items()}
    cop3_m = np.column_stack([cop_track(t_m, feet_m), np.zeros(len(t_m))])
    truth = {}
    for side in SIDES:
        kin = kin_m[side]
        loaded = ((side == pr.grf_side) & (w_m > 0.0))[:, None]
        load = ExternalLoad(
            force=np.where(loaded, force_m, 0.0),
            moment=np.zeros((len(t_m), 3)),
            r=np.where(loaded, kin.pos["toe"] - cop3_m, 0.0))
        rec = recursive_leg(load, kin.states, params, GRAVITY)
        truth[side] = {j: rec[j][1][:, 1] for j in JOINTS}

    meta = TrialMeta(participant=pr.participant, terrain=pr.terrain,
                     sand_depth=pr.sand_depth)
    return SynthResult(markers=marker_data, grf=grf, meta=meta,
                       truth_moments=truth, truth_events=truth_events,
                       marker_time=t_m, stance_windows=windows)


def standing_profile(participant: Participant | None = None,
                     duration: float = 3.0) -> GaitProfile:
    """Motionless double-support standing; full weight on the plate."""
    p = participant if participant is not None else Participant(
        id="synthetic", height=1.72, mass=74.5)
    angles = LegAngles(thigh_pitch=Trig(a0=0.0),
                       knee_flexion=Trig(a0=0.0),
                       foot_pitch=Trig(a0=math.acos(0.08 / 0.20)))
    return GaitProfile(participant=p, duration=duration,
                       pelvis_z=Trig(a0=0.93),
                       legs={"left": angles, "right": angles},
                       stance_windows=[(0.0, duration)],
                       ramp=0.0,
                       cop_fixed=(0.05, 0.0))


def stride_profile(participant: Participant | None = None) -> GaitProfile:
    """A smooth periodic walk scripted to produce clean heel-strike and
    toe-off signatures; the plate catches the right-leg stances."""
    p = participant if participant is not None else Participant(
        id="synthetic", height=1.72, mass=74.5)
    period = 1.2
    f0 = 1.0 / period
    a_f0 = math.acos(0.08 / 0.20)

    def leg(phase: float) -> LegAngles:
        return LegAngles(
            thigh_pitch=Trig(terms=((0.30, f0, phase),)),
            knee_flexion=Trig(a0=0.32, terms=((0.28, f0, phase - 2.1),)),
            foot_pitch=Trig(a0=a_f0, terms=((0.20, f0, phase - 1.1),)),
        )

    return GaitProfile(
        participant=p,
        duration=3.0,
        pelvis_x=Trig(rate=1.1, terms=((0.012, 2 * f0, 0.3),)),
        pelvis_z=Trig(a0=0.955, terms=((0.012, 2 * f0, 1.2),)),
        legs={"right": leg(0.0), "left": leg(math.pi)},
        grf_side="right",
    )
