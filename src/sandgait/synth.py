"""Synthetic-gait forward generator (verification oracle).

A profile scripts pelvis motion and absolute segment pitch angles as small
trigonometric series, so positions, velocities, and accelerations are all
available analytically.  The generator emits marker and GRF streams in the
ingest formats together with ground-truth joint moments and gait events
for round-trip testing.  The scripted ground force balances whole-body
Newton dynamics (weight plus total inertial force) inside each stance
window, so a motionless profile yields exactly body weight on the plate.
One generator walks both legs from the hip to the toe in the sagittal
plane, x and z as 1-D arrays.  At the GRF rate it walks ``_CHAIN_BLOCK``
samples at a time and only the feet and the inertial force are kept, each
segment dropped once the next is computed; at the marker rate every
segment is kept for the markers and the truth.  The feet are kept as 1-D
x and z series, the y of each marker and of the COP being a constant of
its side.  So generation peaks at 1.8 times the arrays it returns for a
12 s walk, 1.6 times for a 20 s one.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import ExternalLoad, recursive_leg, FrameState
from .errors import (ConfigurationError, GenerationError, check_number,
                     read_json_as)
from .forces import cop_moment
from .gaitseg import (GaitEvents, SideEvents, cycle_table, detect_side_events,
                      stance_windows)
from .ingest import GrfData, MarkerData, TrialMeta, write_json
from .model import (GRAVITY, AnthropometricTable, Participant,
                    SegmentParams, segment_parameters)
from .pipeline import RunConfig
from .schema import SIDES


@dataclass(frozen=True)
class Trig:
    """a0 + rate*t + sum(amp * sin(2 pi f t + phase)), given with its first
    and second time derivative by ``at``.  Each number must be finite and
    is kept as a float, checked when the series is built; each term is
    (amp, freq, phase)."""

    a0: float = 0.0
    rate: float = 0.0
    terms: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not isinstance(self.terms, (list, tuple)):
            raise ConfigurationError(f"terms must be a list of [amp, freq, "
                                     f"phase] terms, got {self.terms!r}")
        for i, term in enumerate(self.terms):
            if not isinstance(term, (list, tuple)) or len(term) != 3:
                raise ConfigurationError(f"terms[{i}] must hold three "
                                         f"numbers, got {term!r}")
        object.__setattr__(self, "a0", check_number("a0", self.a0))
        object.__setattr__(self, "rate", check_number("rate", self.rate))
        object.__setattr__(self, "terms", tuple(
            tuple(check_number(f"terms[{i}][{j}]", v) for j, v in enumerate(term))
            for i, term in enumerate(self.terms)))

    def at(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The series and its first and second time derivative at times
        ``t``, from one sin and one cos of each term."""
        t = np.asarray(t, dtype=float)
        x = np.full_like(t, self.a0) + self.rate * t
        x1 = np.full_like(t, self.rate)
        x2 = np.zeros_like(t)
        for amp, freq, phase in self.terms:
            w = 2.0 * math.pi * freq
            arg = w * t + phase
            s = np.sin(arg)
            x = x + amp * s
            x1 = x1 + amp * w * np.cos(arg)
            x2 = x2 - amp * w * w * s
        return x, x1, x2

    def to_json(self):
        return {"a0": self.a0, "rate": self.rate,
                "terms": [list(t) for t in self.terms]}

    @classmethod
    def from_json(cls, doc, key: str = "trig"):
        """The inverse of ``to_json``; errors name profile key ``key``."""
        try:
            return cls(a0=doc.get("a0", 0.0), rate=doc.get("rate", 0.0),
                       terms=doc.get("terms", ()))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key}.{exc}") from None


@dataclass(frozen=True)
class LegAngles:
    thigh_pitch: Trig   # rad, 0 = straight down, + forward
    knee_flexion: Trig  # rad, >= 0
    foot_pitch: Trig    # rad, absolute pitch of the ankle->toe axis


@dataclass
class GaitProfile:
    """Scripted trial: geometry, trajectories, and stance schedule.  Each
    value is held to the rules of its ``profile.json`` key (``_KEYS``) when
    the profile is built, and each number in ``_RULES`` kept as a float."""

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

    def __post_init__(self):
        for name, rule in _RULES.items():
            setattr(self, name,
                    check_number(_KEYS[name], getattr(self, name), rule))
        if self.grf_side not in SIDES:
            raise ConfigurationError(f"grf_side must be one of {SIDES}, "
                                     f"got {self.grf_side!r}")
        if set(self.legs) != set(SIDES):
            raise ConfigurationError(f"legs must script {' and '.join(SIDES)}"
                                     f", got {sorted(self.legs)}")
        # the meta.json this profile writes: checks the terrain and depth
        self.sand_depth = TrialMeta(self.participant, self.terrain,
                                    self.sand_depth).sand_depth
        self.stance_windows = _stance_windows(self.stance_windows)
        self.cop_fixed = _cop_fixed(self.cop_fixed)

    def to_json(self) -> dict:
        doc = {"participant": self.participant.to_json(), "geometry": {},
               "legs": {side: {name: getattr(la, name).to_json()
                               for name in LegAngles.__dataclass_fields__}
                        for side, la in self.legs.items()}}
        for name, key in _KEYS.items():
            value = getattr(self, name)
            group, _, last = key.rpartition(".")
            (doc[group] if group else doc)[last] = (
                value.to_json() if isinstance(value, Trig) else value)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "GaitProfile":
        """The inverse of ``to_json``; a key left out keeps the field's
        default, and only ``duration_s`` must be given."""
        kw = {}
        for name, key in _KEYS.items():
            group, _, last = key.rpartition(".")
            values = doc.get(group, {}) if group else doc
            if last in values or name == "duration":
                kw[name] = values[last]
        for name in ("pelvis_x", "pelvis_z"):
            if name in kw:
                kw[name] = Trig.from_json(kw[name], name)
        legs = {side: LegAngles(**{name: Trig.from_json(
                    la[name], f"legs.{side}.{name}")
                    for name in LegAngles.__dataclass_fields__})
                for side, la in doc["legs"].items()}
        return cls(participant=Participant.from_json(doc["participant"]),
                   legs=legs, **kw)

    @classmethod
    def load(cls, path: str | Path) -> "GaitProfile":
        return read_json_as(path, cls.from_json, "profile")

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


#: Each GaitProfile field but ``participant`` and ``legs``: its profile.json
#: key, ``geometry.<name>`` for one in the "geometry" object.
_KEYS = {"duration": "duration_s",
         **{name: f"geometry.{name}" for name in (
             "thigh_len", "shank_len", "foot_len", "ankle_height",
             "hip_half_width")},
         "pelvis_x": "pelvis_x", "pelvis_z": "pelvis_z",
         "grf_side": "grf_side", "ramp": "ramp_s",
         "marker_dt": "marker_dt_s", "grf_dt": "grf_dt_s",
         "terrain": "terrain", "sand_depth": "sand_depth_cm",
         "stance_windows": "stance_windows_s", "cop_fixed": "cop_fixed_m"}

#: The rule of each number field (see ``check_number``); lengths in m,
#: times in s.
_RULES = {"duration": "> 0", "thigh_len": "> 0", "shank_len": "> 0",
          "foot_len": "> 0", "ankle_height": ">= 0", "hip_half_width": ">= 0",
          "ramp": ">= 0", "marker_dt": "> 0", "grf_dt": "> 0"}


def _cop_fixed(cop) -> tuple[float, float] | None:
    """A profile's ``cop_fixed_m``: None, or two finite numbers."""
    if cop is None:
        return None
    xy = tuple(check_number(f"cop_fixed_m[{i}]", v) for i, v in enumerate(cop))
    if len(xy) != 2:
        raise ConfigurationError(f"cop_fixed_m must be two finite numbers, "
                                 f"got {cop!r}")
    return xy


def _stance_windows(windows) -> list[tuple] | None:
    """A profile's ``stance_windows_s``: None, or (start, end) pairs of
    finite numbers (not strings or bools), start < end, kept as given."""
    key = "stance_windows_s"
    if not isinstance(windows, (list, tuple, type(None))):
        raise ConfigurationError(f"{key} must be a list of [start, end] "
                                 f"pairs, got {windows!r}")
    for i, window in enumerate(windows or ()):
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ConfigurationError(f"{key}[{i}] must be a [start, end] "
                                     f"pair, got {window!r}")
        t0, t1 = window
        for j, t in enumerate(window):
            if not isinstance(t, (int, float)):
                raise ConfigurationError(f"{key}[{i}][{j}] must be a number, "
                                         f"got {t!r}")
        if not (check_number(f"{key}[{i}][0]", t0)
                < check_number(f"{key}[{i}][1]", t1)):
            raise ConfigurationError(f"stance window {[t0, t1]} must be "
                                     f"finite with start < end")
    return None if windows is None else [tuple(w) for w in windows]


#: One leg segment at times ``t``, each vector an (x, z) pair of 1-D arrays:
#: its unit axis (sin a, -cos a) at pitch a, its COM acceleration, its pitch
#: acceleration and its proximal and distal joints.  Its ``FrameState`` is
#: its axis, its acceleration and minus its pitch acceleration.
_Segment = namedtuple("_Segment", "name axis acc pitch_dd proximal distal")


def _pitches(la: LegAngles, t: np.ndarray):
    """The pitch of the thigh, the shank and the foot at times ``t`` with
    its two time derivatives, each computed when it is asked for."""
    thigh = la.thigh_pitch.at(t)
    yield thigh
    shank = tuple(a - k for a, k in zip(thigh, la.knee_flexion.at(t)))
    del thigh
    yield shank
    del shank
    yield la.foot_pitch.at(t)


def _walk(profile: GaitProfile, t: np.ndarray,
          params: dict[str, SegmentParams], hat_mass: float):
    """Walk both legs at times ``t`` once, left then right, hip to toe in the
    sagittal plane.  Yield each side, ``_Segment`` (thigh first) and the
    inertial force so far, (x, z): the trunk's (HAT's), which moves with the
    hip, plus each walked segment's in turn, one fixed float sum."""
    pr = profile
    (x, _, x_dd), (z, _, z_dd) = pr.pelvis_x.at(t), pr.pelvis_z.at(t)
    f = (hat_mass * x_dd, hat_mass * z_dd)
    for side in SIDES:
        pos, acc = (x, z), (x_dd, z_dd)
        pitches = _pitches(pr.legs[side], t)
        for name in ("thigh", "shank", "foot"):
            a, a1, a2 = next(pitches)
            # e = (sin a, -cos a) and its second time derivative
            # a2 (cos a, sin a) - a1^2 e
            s, c = np.sin(a), np.cos(a)
            e = (s, -c)
            a1_sq = a1 ** 2
            e_dd = (a2 * c - a1_sq * e[0], a2 * s - a1_sq * e[1])
            del a, a1, s, c, a1_sq
            p = params[name]
            seg = _Segment(name, e, tuple(
                ak + p.com_offset * dk for ak, dk in zip(acc, e_dd)), a2, pos,
                tuple(pk + p.length * ek for pk, ek in zip(pos, e)))
            acc = tuple(ak + p.length * dk for ak, dk in zip(acc, e_dd))
            pos = seg.distal
            del e_dd
            f = tuple(fk + p.mass * ak for fk, ak in zip(f, seg.acc))
            yield side, seg, f


def _heel(profile: GaitProfile, ankle, foot_axis) -> tuple:
    """The heel marker's (x, z), rigid on the foot: behind the ankle and
    toward the sole, whose direction is (-e_z, e_x) of the foot's axis e."""
    (ax, az), (ex, ez) = ankle, foot_axis
    k = 0.9 * profile.ankle_height
    return ax - 0.05 * ex - k * -ez, az - 0.05 * ez - k * ex


def _xyz(xz, y: float) -> np.ndarray:
    """The (x, z) pair ``xz`` at the constant ``y`` as (N, 3) rows."""
    x, z = xz
    out = np.empty((len(x), 3))
    out[:, 0], out[:, 1], out[:, 2] = x, y, z
    return out


#: GRF-rate samples ``synthesize_gait`` walks the legs over at a time; at
#: least 3001, so a 3 s trial at 1 kHz is one block.
_CHAIN_BLOCK = 4096


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _plate(profile: GaitProfile, t: np.ndarray,
           windows: list[tuple[float, float]], inertia, heel_x: np.ndarray,
           toe_x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plate at times ``t``: its share ``w`` of the Newton balance, its
    force, ``w`` times the weight plus the (x, z) ``inertia`` force, as
    (N, 3) rows with y 0, and its COP (x, y).  Inside each window ``w`` is
    1, ramped on and off by ``_smoothstep`` over ``ramp`` seconds where the
    window is longer than two ramps, and the COP progresses smoothly from
    the plate side's heel x ``heel_x`` to its toe x ``toe_x`` at the side's
    y (or is pinned at ``cop_fixed``); outside, both are 0."""
    pr = profile
    w, cop = np.zeros_like(t), np.zeros((len(t), 2))
    y = pr.hip_half_width * (1.0 if pr.grf_side == "right" else -1.0) + 0.0
    for t0, t1 in windows:
        span = slice(np.searchsorted(t, t0, "left"),  # t0 <= t <= t1
                     np.searchsorted(t, t1, "right"))
        ts = t[span]
        if pr.ramp > 0 and t1 - t0 > 2 * pr.ramp:
            up = _smoothstep((ts - t0) / pr.ramp)
            down = _smoothstep((t1 - ts) / pr.ramp)
            np.maximum(w[span], np.minimum(up, down), out=w[span])
        else:
            w[span] = 1.0
        if pr.cop_fixed is not None:
            cop[span] = pr.cop_fixed
        else:
            u = _smoothstep((ts - t0) / (t1 - t0))
            cop[span, 0] = heel_x[span] * (1 - u) + toe_x[span] * u
            cop[span, 1] = y * (1 - u) + y * u
    fx, fz = inertia
    force = np.zeros((len(t), 3))
    force[:, 0] = w * fx
    force[:, 2] = w * (fz + pr.participant.mass * GRAVITY)
    return w, force, cop


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


def synthesize_gait(profile: GaitProfile) -> SynthResult:
    """Forward-generate a trial plus ground truth from a scripted profile."""
    pr = profile
    lengths = {"thigh": pr.thigh_len, "shank": pr.shank_len, "foot": pr.foot_len}
    params = segment_parameters(pr.participant, AnthropometricTable.default(),
                                lengths)
    hat_mass = pr.participant.mass - 2 * sum(p.mass for p in params.values())

    t_m = np.round(np.arange(0.0, pr.duration + 1e-9, pr.marker_dt), 9)
    t_g = np.round(np.arange(0.0, pr.duration + 1e-9, pr.grf_dt), 9)

    # the marker-rate walk is kept whole for the markers and the truth
    # states; its last inertial force is the total
    legs_m, heels_m = {side: [] for side in SIDES}, {}
    for side, seg, inertia_m in _walk(pr, t_m, params, hat_mass):
        legs_m[side].append(seg)
        if seg.name == "foot":  # ground-clearance feasibility
            heels_m[side] = _heel(pr, seg.proximal, seg.axis)
            for name, (_, z) in (("toe", seg.distal), ("heel", heels_m[side])):
                low = float(np.min(z))
                if low < -1e-6:
                    raise GenerationError(
                        f"{side} {name} penetrates the ground ({low:.4f} m)")

    # at 1 kHz only the feet and the inertial force are read: walk the legs
    # over at most _CHAIN_BLOCK samples at a time and keep just those, each
    # segment dropped once the next is computed; every step is elementwise,
    # so blocks give the same floats
    n_g = len(t_g)
    # per side: heel x, heel z, toe x, toe z
    feet_g = {side: tuple(np.empty(n_g) for _ in range(4)) for side in SIDES}
    inertia_g = (np.empty(n_g), np.empty(n_g))
    for start in range(0, n_g, _CHAIN_BLOCK):
        block = slice(start, start + _CHAIN_BLOCK)
        for side, seg, f in _walk(pr, t_g[block], params, hat_mass):
            if seg.name == "foot":
                for out, v in zip(feet_g[side], (
                        *_heel(pr, seg.proximal, seg.axis), *seg.distal)):
                    out[block] = v
        inertia_g[0][block], inertia_g[1][block] = f
        del seg, f, out, v

    # stance schedule
    is_static = all(
        not la.thigh_pitch.terms and not la.knee_flexion.terms
        and not la.foot_pitch.terms for la in pr.legs.values()
    ) and not pr.pelvis_x.terms and not pr.pelvis_z.terms \
        and pr.pelvis_x.rate == 0.0 and pr.pelvis_z.rate == 0.0
    if is_static and pr.stance_windows is not None:
        truth_events = GaitEvents(**{side: SideEvents(np.array([]), np.array([]))
                                     for side in SIDES})
    else:  # on the GRF grid: every event time is a written GRF sample
        cfg = RunConfig()  # the default event thresholds
        truth_events = GaitEvents(**{
            side: detect_side_events(t_g, heel_x, heel_z, toe_z, cfg)
            for side, (heel_x, heel_z, _, toe_z) in feet_g.items()})
    if pr.stance_windows is not None:
        windows = list(pr.stance_windows)
    else:
        windows = [tuple(w) for w in stance_windows(cycle_table(
            truth_events.side(pr.grf_side))).tolist()]
        if not windows:
            raise GenerationError("no stance window found for the plate side")

    # the plate side's heel x and toe x
    _, force_g, cop_g = _plate(pr, t_g, windows, inertia_g,
                               *feet_g[pr.grf_side][::2])
    del feet_g, inertia_g  # nothing after reads the 1 kHz walk
    # plate-origin moment, zero couple at COP
    grf = GrfData(time=t_g, force=force_g, moment=cop_moment(cop_g, force_g),
                  cop=cop_g)

    # marker set
    markers = {}
    for side, tag in (("left", "L"), ("right", "R")):
        # each joint's y is constant: the hip's, and that + 0.0 below it
        y = pr.hip_half_width * (1.0 if side == "right" else -1.0)
        thigh, shank, foot = legs_m[side]
        pos = {"hip": _xyz(thigh.proximal, y)} | {
            name: _xyz(xz, y + 0.0) for name, xz in (
                ("knee", shank.proximal), ("ankle", foot.proximal),
                ("toe", foot.distal), ("heel", heels_m[side]))}
        markers.update((f"{tag}-{name}", p) for name, p in pos.items())
        offset = np.array([0.0, 0.03 if side == "right" else -0.03, 0.0])
        markers[f"{tag}-thigh"] = 0.5 * (pos["hip"] + pos["knee"]) + offset
        markers[f"{tag}-shank"] = 0.5 * (pos["knee"] + pos["ankle"]) + offset
    pelvis_center = 0.5 * (markers["L-hip"] + markers["R-hip"])
    for tag, sign in (("L", -1.0), ("R", 1.0)):
        markers[f"{tag}-asis"] = pelvis_center + np.array([0.06, sign * 0.12, 0.02])
        markers[f"{tag}-psis"] = pelvis_center + np.array([-0.06, sign * 0.12, -0.02])
    marker_data = MarkerData(time=t_m, pos=markers)

    # ground-truth moments at marker timestamps
    w_m, force_m, cop_m = _plate(pr, t_m, windows, inertia_m,
                                 heels_m[pr.grf_side][0],
                                 legs_m[pr.grf_side][-1].distal[0])
    truth = {}
    for side in SIDES:
        loaded = ((side == pr.grf_side) & (w_m > 0.0))[:, None]
        toe_x, toe_z = legs_m[side][-1].distal
        load = ExternalLoad(
            force=np.where(loaded, force_m[:, [0, 2]], 0.0),
            moment=np.zeros(len(t_m)),
            # the lever from the COP, which lies on z = 0, to the toe
            r=np.where(loaded, np.column_stack([toe_x - cop_m[:, 0], toe_z]),
                       0.0))
        states = {seg.name: FrameState(e=np.column_stack(seg.axis),
                                       acc=np.column_stack(seg.acc),
                                       omega_dot=-seg.pitch_dd)
                  for seg in legs_m.pop(side)}
        truth[side] = recursive_leg(load, states, params, GRAVITY)

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
