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

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import ExternalLoad, JOINTS, recursive_leg, FrameState
from .errors import ConfigurationError, GenerationError, read_json_as
from .gaitseg import (EventThresholds, GaitEvents, SideEvents,
                      detect_side_events, stance_windows)
from .ingest import GrfData, MarkerData, TrialMeta
from .model import (E_Z, GRAVITY, LEG_SEGMENTS, AnthropometricTable,
                    Participant, segment_parameters)
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
    def from_json(cls, doc):
        return cls(a0=float(doc.get("a0", 0.0)),
                   rate=float(doc.get("rate", 0.0)),
                   terms=tuple(tuple(float(v) for v in t)
                               for t in doc.get("terms", [])))


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
            "participant": {"id": self.participant.id,
                            "height_m": self.participant.height,
                            "mass_kg": self.participant.mass},
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
        for key in ("duration_s", "marker_dt_s", "grf_dt_s"):
            if key in doc and not float(doc[key]) > 0:
                raise ConfigurationError(f"{key} must be > 0, got {doc[key]!r}")
        p = doc["participant"]
        geo = doc.get("geometry", {})
        kw = {name: float(geo[name]) for name in _GEOMETRY if name in geo}
        kw.update((name, convert(doc[key]))
                  for key, (name, convert) in _PROFILE_KEYS.items() if key in doc)
        legs = {}
        for side, la in doc["legs"].items():
            legs[side] = LegAngles(thigh_pitch=Trig.from_json(la["thigh_pitch"]),
                                   knee_flexion=Trig.from_json(la["knee_flexion"]),
                                   foot_pitch=Trig.from_json(la["foot_pitch"]))
        return cls(participant=Participant(id=str(p["id"]),
                                           height=float(p["height_m"]),
                                           mass=float(p["mass_kg"])),
                   duration=float(doc["duration_s"]), legs=legs, **kw)

    @classmethod
    def load(cls, path: str | Path) -> "GaitProfile":
        return read_json_as(path, cls.from_json, "profile")

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2,
                                         sort_keys=True) + "\n")


_GEOMETRY = ("thigh_len", "shank_len", "foot_len", "ankle_height",
             "hip_half_width")

#: Top-level profile.json key -> (GaitProfile field, conversion).
_PROFILE_KEYS = {
    "pelvis_x": ("pelvis_x", Trig.from_json),
    "pelvis_z": ("pelvis_z", Trig.from_json),
    "grf_side": ("grf_side", lambda v: v),
    "ramp_s": ("ramp", float),
    "marker_dt_s": ("marker_dt", float),
    "grf_dt_s": ("grf_dt", float),
    "terrain": ("terrain", lambda v: v),
    "sand_depth_cm": ("sand_depth", lambda v: v),
    "stance_windows_s": ("stance_windows",
                         lambda w: None if w is None else [tuple(x) for x in w]),
    "cop_fixed_m": ("cop_fixed", lambda c: tuple(c) if c else None),
}


def _dir(alpha, order: int, d1=None, d2=None):
    """Unit vector (sin a, 0, -cos a) and its time derivatives."""
    s, c = np.sin(alpha), np.cos(alpha)
    zeros = np.zeros_like(alpha)
    if order == 0:
        return np.stack([s, zeros, -c], axis=-1)
    if order == 1:
        return d1[..., None] * np.stack([c, zeros, s], axis=-1)
    return (d2[..., None] * np.stack([c, zeros, s], axis=-1)
            + (d1 ** 2)[..., None] * np.stack([-s, zeros, c], axis=-1))


class _LegKinematics:
    """Analytic chain positions/derivatives for one side."""

    def __init__(self, profile: GaitProfile, side: str, t: np.ndarray):
        self.t = t
        pr = profile
        la = pr.legs[side]
        y = pr.hip_half_width * (1.0 if side == "right" else -1.0)
        zeros = np.zeros_like(t)

        a_t = la.thigh_pitch(t)
        a_t1, a_t2 = la.thigh_pitch(t, 1), la.thigh_pitch(t, 2)
        k = la.knee_flexion(t)
        a_s = a_t - k
        a_s1 = a_t1 - la.knee_flexion(t, 1)
        a_s2 = a_t2 - la.knee_flexion(t, 2)
        a_f = la.foot_pitch(t)
        a_f1, a_f2 = la.foot_pitch(t, 1), la.foot_pitch(t, 2)
        self.pitch = {"thigh": (a_t, a_t1, a_t2),
                      "shank": (a_s, a_s1, a_s2),
                      "foot": (a_f, a_f1, a_f2)}

        hip = np.stack([pr.pelvis_x(t), np.full_like(t, y), pr.pelvis_z(t)], axis=-1)
        hip_v = np.stack([pr.pelvis_x(t, 1), zeros, pr.pelvis_z(t, 1)], axis=-1)
        hip_a = np.stack([pr.pelvis_x(t, 2), zeros, pr.pelvis_z(t, 2)], axis=-1)

        def chain(base, base_v, base_a, length, ang):
            a, a1, a2 = ang
            p = base + length * _dir(a, 0)
            v = base_v + length * _dir(a, 1, a1)
            acc = base_a + length * _dir(a, 2, a1, a2)
            return p, v, acc

        knee = chain(hip, hip_v, hip_a, pr.thigh_len, self.pitch["thigh"])
        ankle = chain(*knee, pr.shank_len, self.pitch["shank"])
        toe = chain(*ankle, pr.foot_len, self.pitch["foot"])
        self.joints = {"hip": (hip, hip_v, hip_a), "knee": knee,
                       "ankle": ankle, "toe": toe}

        # heel marker rigid on the foot: behind the ankle and toward the sole
        a_f0 = self.pitch["foot"]
        back, down = 0.05, 0.9 * pr.ankle_height
        n0 = np.stack([np.cos(a_f0[0]), zeros, np.sin(a_f0[0])], axis=-1)
        self.heel = (ankle[0] - back * _dir(a_f0[0], 0) - down * n0)

    def com(self, segment: str, offset: float):
        """(pos, vel, acc) of a point ``offset`` m down the segment axis."""
        base = {"thigh": "hip", "shank": "knee", "foot": "ankle"}[segment]
        p, v, a = self.joints[base]
        ang = self.pitch[segment]
        return (p + offset * _dir(ang[0], 0),
                v + offset * _dir(ang[0], 1, ang[1]),
                a + offset * _dir(ang[0], 2, ang[1], ang[2]))


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


def _truth_events(profile: GaitProfile, thresholds: EventThresholds) -> GaitEvents:
    """Gait events from the analytic trajectories on a fine grid."""
    t = np.arange(0.0, profile.duration + 1e-9, profile.grf_dt)
    events = {}
    for side in profile.legs:
        kin = _LegKinematics(profile, side, t)
        heel_z = kin.heel[:, 2]
        toe_z = kin.joints["toe"][0][:, 2]
        heel_vx = np.gradient(kin.heel[:, 0], profile.grf_dt)
        events[side] = detect_side_events(t, heel_z, toe_z, heel_vx, thresholds)
    return GaitEvents(**events)


def synthesize_gait(profile: GaitProfile,
                    table: AnthropometricTable | None = None,
                    thresholds: EventThresholds | None = None,
                    g: float = GRAVITY) -> SynthResult:
    """Forward-generate a trial plus ground truth from a scripted profile."""
    table = table if table is not None else AnthropometricTable.default()
    thresholds = thresholds if thresholds is not None else EventThresholds()
    pr = profile
    if set(pr.legs) != set(SIDES):
        raise GenerationError(f"profile must script both legs, has {set(pr.legs)}")
    if pr.grf_side not in SIDES:
        raise GenerationError(f"unknown grf_side {pr.grf_side!r}")

    lengths = {"thigh": pr.thigh_len, "shank": pr.shank_len, "foot": pr.foot_len}
    params = segment_parameters(pr.participant, table, lengths)
    leg_mass = sum(p.mass for p in params.values())
    hat_mass = pr.participant.mass - 2 * leg_mass

    t_m = np.round(np.arange(0.0, pr.duration + 1e-9, pr.marker_dt), 9)
    t_g = np.round(np.arange(0.0, pr.duration + 1e-9, pr.grf_dt), 9)

    kin_m = {side: _LegKinematics(pr, side, t_m) for side in SIDES}
    kin_g = {side: _LegKinematics(pr, side, t_g) for side in SIDES}

    # ground-clearance feasibility
    for side in SIDES:
        for name, series in (("toe", kin_m[side].joints["toe"][0][:, 2]),
                             ("heel", kin_m[side].heel[:, 2])):
            low = float(np.min(series))
            if low < -1e-6:
                raise GenerationError(
                    f"{side} {name} penetrates the ground ({low:.4f} m)")

    # stance schedule
    is_static = all(
        not la.thigh_pitch.terms and not la.knee_flexion.terms
        and not la.foot_pitch.terms for la in pr.legs.values()
    ) and not pr.pelvis_x.terms and not pr.pelvis_z.terms \
        and pr.pelvis_x.rate == 0.0 and pr.pelvis_z.rate == 0.0
    if pr.stance_windows is not None:
        windows = list(pr.stance_windows)
        truth_events = None if is_static else _truth_events(pr, thresholds)
    else:
        truth_events = _truth_events(pr, thresholds)
        windows = [tuple(w) for w in
                   stance_windows(truth_events.side(pr.grf_side)).tolist()]
        if not windows:
            raise GenerationError("no stance window found for the plate side")

    def total_force(t, kin):
        """Whole-body Newton balance: weight plus total inertial force."""
        f = hat_mass * np.stack([pr.pelvis_x(t, 2), np.zeros_like(t),
                                 pr.pelvis_z(t, 2)], axis=-1)
        for side in SIDES:
            for seg in reversed(LEG_SEGMENTS):  # thigh first: fixed float sum
                f = f + params[seg].mass * kin[side].com(
                    seg, params[seg].com_offset)[2]
        return f + pr.participant.mass * g * E_Z[None, :]

    def cop_track(t, kin):
        """COP progressing smoothly heel -> toe inside each window (or
        pinned at ``cop_fixed`` for static trials)."""
        side = pr.grf_side
        heel_xy = kin[side].heel[:, :2].copy()
        toe_xy = kin[side].joints["toe"][0][:, :2].copy()
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

    w_g = _stance_weight(t_g, windows, pr.ramp)
    force_g = w_g[:, None] * total_force(t_g, kin_g)
    cop_g = cop_track(t_g, kin_g)
    cop3_g = np.concatenate([cop_g, np.zeros((len(t_g), 1))], axis=1)
    moment_g = np.cross(cop3_g, force_g)  # plate-origin moment, zero couple at COP

    grf = GrfData(time=t_g, force=force_g, moment=moment_g, cop=cop_g)

    # marker set
    markers = {}
    for side, tag in (("left", "L"), ("right", "R")):
        kin = kin_m[side]
        markers[f"{tag}-hip"] = kin.joints["hip"][0]
        markers[f"{tag}-knee"] = kin.joints["knee"][0]
        markers[f"{tag}-ankle"] = kin.joints["ankle"][0]
        markers[f"{tag}-toe"] = kin.joints["toe"][0]
        markers[f"{tag}-heel"] = kin.heel
        markers[f"{tag}-thigh"] = 0.5 * (kin.joints["hip"][0] + kin.joints["knee"][0]) \
            + np.array([0.0, 0.03 if side == "right" else -0.03, 0.0])
        markers[f"{tag}-shank"] = 0.5 * (kin.joints["knee"][0] + kin.joints["ankle"][0]) \
            + np.array([0.0, 0.03 if side == "right" else -0.03, 0.0])
    pelvis_center = 0.5 * (kin_m["left"].joints["hip"][0]
                           + kin_m["right"].joints["hip"][0])
    for tag, sign in (("L", -1.0), ("R", 1.0)):
        markers[f"{tag}-asis"] = pelvis_center + np.array([0.06, sign * 0.12, 0.02])
        markers[f"{tag}-psis"] = pelvis_center + np.array([-0.06, sign * 0.12, -0.02])
    marker_data = MarkerData(time=t_m, pos=markers)

    # ground-truth moments at marker timestamps
    w_m = _stance_weight(t_m, windows, pr.ramp)
    force_m = w_m[:, None] * total_force(t_m, kin_m)
    cop3_m = np.column_stack([cop_track(t_m, kin_m), np.zeros(len(t_m))])
    truth = {}
    for side in SIDES:
        kin = kin_m[side]
        loaded = ((side == pr.grf_side) & (w_m > 0.0))[:, None]
        load = ExternalLoad(
            force=np.where(loaded, force_m, 0.0),
            moment=np.zeros((len(t_m), 3)),
            r=np.where(loaded, kin.joints["toe"][0] - cop3_m, 0.0))
        states = {}
        for seg in LEG_SEGMENTS:
            angle, _, angle_dd = kin.pitch[seg]
            omega_dot = np.zeros((len(t_m), 3))
            omega_dot[:, 1] = -angle_dd
            states[seg] = FrameState(
                e=_dir(angle, 0), acc=kin.com(seg, params[seg].com_offset)[2],
                omega_dot=omega_dot)
        rec = recursive_leg(load, states, params, g)
        truth[side] = {j: rec[j][1][:, 1] for j in JOINTS}

    meta = TrialMeta(participant=pr.participant, terrain=pr.terrain,
                     sand_depth=pr.sand_depth)
    if truth_events is None:
        truth_events = GaitEvents(left=SideEvents(np.array([]), np.array([])),
                                  right=SideEvents(np.array([]), np.array([])))
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
