"""Seeded inputs for the benchmark workloads.

Every input is a scripted gait profile handed to ``synthesize_gait``; the
benchmark adds only what the generator cannot script itself: the buried
force-plate record of a sand trial, the paired calibration samples, and
marker dropouts.  The same seed always gives the same inputs, and the
amount of work (trial count, durations, dropout count) never depends on
the seed, so per-trial counts repeat exactly across seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sandgait.ingest import GrfData, MarkerData
from sandgait.model import Participant
from sandgait.synth import GaitProfile, LegAngles, Trig

#: Reference geometry and timing of the built-in stride preset; a
#: participant of height H is the preset scaled by H / REF_HEIGHT.
REF_HEIGHT = 1.72
REF_PERIOD = 1.2
REF_SPEED = 1.1

#: Generating sand curve: zeta(d) = exp(-K d), so zeta(14 cm) = 0.81,
#: sampled at these depths and linearly interpolated between them.
ZETA_DEPTHS = np.arange(0.0, 20.1, 4.0)
ZETA_K = -math.log(0.81) / 14.0
ZETA_KNOTS = np.exp(-ZETA_K * ZETA_DEPTHS)


def zeta_at(depth: float) -> float:
    return float(np.interp(depth, ZETA_DEPTHS, ZETA_KNOTS))


@dataclass(frozen=True)
class Walk:
    """What the generator was asked for, kept for the output checks."""

    name: str
    profile: GaitProfile
    period: float  # s, gait cycle
    speed: float   # m/s, mean pelvis speed


def walk(name: str, participant: Participant, period: float, duration: float,
         terrain: str = "solid", sand_depth: float | None = None) -> Walk:
    """The stride preset scaled to the participant's height and cadence.

    Geometry scales with height; walking speed scales with height over
    period, so the stance foot stays nearly still as in the preset.  The
    leg phases are shifted so that no gait event falls within 0.06 s of
    either end of the trial, where event detection has no neighbours.
    """
    s = participant.height / REF_HEIGHT
    f0 = 1.0 / period
    speed = REF_SPEED * s * REF_PERIOD / period
    shift = _event_clear_shift(period, duration)
    th = -2.0 * math.pi * f0 * shift  # phase that delays every event by shift
    a_f0 = math.acos(0.08 / 0.20)

    def leg(phase: float) -> LegAngles:
        return LegAngles(
            thigh_pitch=Trig(terms=((0.30, f0, phase),)),
            knee_flexion=Trig(a0=0.32, terms=((0.28, f0, phase - 2.1),)),
            foot_pitch=Trig(a0=a_f0, terms=((0.20, f0, phase - 1.1),)))

    profile = GaitProfile(
        participant=participant, duration=duration,
        thigh_len=0.42 * s, shank_len=0.43 * s, foot_len=0.20 * s,
        ankle_height=0.08 * s, hip_half_width=0.10 * s,
        pelvis_x=Trig(rate=speed, terms=((0.012 * s, 2 * f0, 0.3 + 2 * th),)),
        pelvis_z=Trig(a0=0.955 * s, terms=((0.012 * s, 2 * f0, 1.2 + 2 * th),)),
        legs={"right": leg(th), "left": leg(math.pi + th)},
        grf_side="right", terrain=terrain, sand_depth=sand_depth)
    return Walk(name=name, profile=profile, period=period, speed=speed)


#: Event phases of the preset, as fractions of the period after t = 0:
#: right toe-off, right heel strike, left toe-off, left heel strike.
_EVENT_PHASES = np.array([0.0017, 0.33, 0.5017, 0.83])


def _event_clear_shift(period: float, duration: float,
                       margin: float = 0.06) -> float:
    """Smallest delay of the event lattice that keeps every event at least
    ``margin`` s from both trial ends (the best one if none does)."""
    shifts = np.arange(0.0, period, 0.001)
    cycles = np.arange(-1, int(duration / period) + 2)
    lattice = ((_EVENT_PHASES[:, None] + cycles[None, :]) * period).ravel()
    ev = lattice[None, :] + shifts[:, None]
    clear = np.minimum(np.abs(ev), np.abs(ev - duration)).min(axis=1)
    ok = np.nonzero(clear >= margin)[0]
    return float(shifts[ok[0]] if ok.size else shifts[np.argmax(clear)])


def participant(rng: np.random.Generator, pid: str) -> Participant:
    height = rng.uniform(1.58, 1.90)
    bmi = rng.uniform(19.0, 28.0)
    return Participant(id=pid, height=round(height, 3),
                       mass=round(bmi * height * height, 2))


def buried_record(grf: GrfData, depth: float) -> GrfData:
    """What a plate under ``depth`` cm of sand records: F_z scaled by
    zeta(depth) and the plate-origin moment of that force at the COP."""
    force = grf.force.copy()
    force[:, 2] *= zeta_at(depth)
    cop3 = np.column_stack([grf.cop, np.zeros(len(grf))])
    return GrfData(time=grf.time.copy(), force=force,
                   moment=np.cross(cop3, force), cop=grf.cop.copy())


def calibration_samples(rng: np.random.Generator, per_depth: int = 12):
    """Noiseless paired (depth, F_surface, F_buried) samples at every knot
    of the generating curve."""
    out = []
    for depth, zeta in zip(ZETA_DEPTHS, ZETA_KNOTS):
        for fs in rng.uniform(50.0, 1200.0, size=per_depth):
            out.append((float(depth), float(fs), float(zeta * fs)))
    return out


def drop_markers(markers: MarkerData, rng: np.random.Generator,
                 n_gaps: int, max_gap: int, edge: int = 20,
                 spacing: int = 10) -> MarkerData:
    """Blank ``n_gaps`` seeded marker dropouts of 1..max_gap frames (lengths
    cycle, so the total is seed-independent).  Gaps stay ``edge`` frames
    from the trial ends and ``spacing`` frames apart on one marker, so each
    is filled as one gap."""
    out = markers.copy()
    labels = sorted(out.pos)
    n = len(out)
    taken: dict[str, list[tuple[int, int]]] = {label: [] for label in labels}
    for g in range(n_gaps):
        length = 1 + g % max_gap
        while True:
            label = labels[rng.integers(len(labels))]
            start = int(rng.integers(edge, n - edge - length))
            end = start + length
            if all(end + spacing <= s or e + spacing <= start
                   for s, e in taken[label]):
                break
        taken[label].append((start, end))
        out.pos[label][start:end] = np.nan
    return out
