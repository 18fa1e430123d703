"""Anthropometric scaling.

Converts participant height/mass plus a ratio table into per-segment mass,
COM offset, and moment of inertia.  The ratio table ships as a data file
(see ``data/anthropometry.txt``) so it can be audited or swapped; the
gyration radius is taken about the segment COM (documented convention).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, check_number, read_text

GRAVITY = 9.81

#: Segments carrying inertia in the sagittal leg model.
LEG_SEGMENTS = ("foot", "shank", "thigh")


def check_participant_id(value) -> str:
    """A participant id, which must be a non-empty string: pairing by id
    must not take ``null`` and ``"None"`` for one participant."""
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"participant id must be a non-empty "
                                 f"string, got {value!r}")
    return value


@dataclass(frozen=True)
class Participant:
    """One study participant; the source of all per-body normalizers."""

    id: str
    height: float  # m
    mass: float    # kg

    def __post_init__(self):
        check_participant_id(self.id)
        for name in ("height", "mass"):
            key = f"participant {self.id!r}: {name}"
            object.__setattr__(self, name,
                               check_number(key, getattr(self, name), "> 0"))

    def to_json(self) -> dict:
        """The ``participant`` object of trial metadata and profiles."""
        return {"id": self.id, "height_m": self.height, "mass_kg": self.mass}

    @classmethod
    def from_json(cls, doc: dict) -> "Participant":
        """The inverse of ``to_json``; errors quote a number as given."""
        return cls(id=doc["id"], height=doc["height_m"],
                   mass=doc["mass_kg"])


@dataclass(frozen=True)
class SegmentRatios:
    mass_fraction: float
    com_fraction: float
    gyration_fraction: float


@dataclass(frozen=True)
class SegmentParams:
    """Scaled inertial parameters of one rigid segment."""

    mass: float        # kg
    length: float      # m
    com_offset: float  # m, proximal joint -> COM
    inertia: float     # kg m^2 about the COM


@dataclass
class AnthropometricTable:
    """Per-segment scaling ratios, all dimensionless fractions in (0, 1),
    with a row for each of ``LEG_SEGMENTS``.  The mass fractions, the leg
    segments counted twice (both legs), sum to at most 1."""

    ratios: dict[str, SegmentRatios] = field(default_factory=dict)

    def __post_init__(self):
        total = 0.0
        for name, r in self.ratios.items():
            for fname in ("mass_fraction", "com_fraction", "gyration_fraction"):
                v = getattr(r, fname)
                if not 0.0 < v < 1.0:
                    raise ConfigurationError(
                        f"anthropometric table: {fname} for segment {name!r} "
                        f"must lie in (0, 1), got {v}")
            total += r.mass_fraction * (2 if name in LEG_SEGMENTS else 1)
        if total > 1.0 + 1e-12:
            raise ConfigurationError(
                f"anthropometric table: mass fractions sum to {total:.4f} > 1 "
                f"(foot, shank and thigh count twice, once per leg)")
        if missing := [s for s in LEG_SEGMENTS if s not in self.ratios]:
            raise ConfigurationError(f"anthropometric table: no row for "
                                     f"segment(s) {', '.join(missing)}")

    def __getitem__(self, segment: str) -> SegmentRatios:
        try:
            return self.ratios[segment]
        except KeyError:
            raise ConfigurationError(
                f"anthropometric table has no entry for segment {segment!r}"
            ) from None

    @classmethod
    def from_file(cls, path: str | Path,
                  raw: bytes | None = None) -> "AnthropometricTable":
        """Read the column-delimited table, or its bytes ``raw``; '#' starts
        a comment line, and a segment has one row."""
        ratios, line_of = {}, {}
        text = read_text(path, ConfigurationError, raw)
        for lineno, row in enumerate(text.splitlines(), start=1):
            line = row.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'name mass_fraction "
                    f"com_fraction gyration_fraction', got {row!r}")
            name = parts[0]
            try:
                vals = [float(p) for p in parts[1:]]
            except ValueError:
                raise ConfigurationError(
                    f"{path}:{lineno}: non-numeric ratio in {row!r}") from None
            if name in line_of:
                raise ConfigurationError(f"{path}:{lineno}: segment {name!r}: "
                                         f"already on line {line_of[name]}")
            line_of[name] = lineno
            ratios[name] = SegmentRatios(*vals)
        if not ratios:
            raise ConfigurationError(f"{path}: no segment rows found")
        try:
            return cls(ratios)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    @classmethod
    def default(cls) -> "AnthropometricTable":
        with resources.as_file(
                resources.files("sandgait.data") / "anthropometry.txt") as p:
            return cls.from_file(p)


def segment_parameters(participant: Participant,
                       table: AnthropometricTable,
                       segment_lengths: dict[str, float],
                       ) -> dict[str, SegmentParams]:
    """Scale the participant into per-segment inertial parameters.

    ``segment_lengths`` maps segment name -> length in meters (measured from
    marker data or supplied in config).  For each segment::

        m_s   = mass_fraction * body mass
        com   = com_fraction * length
        I_s   = m_s * (gyration_fraction * length)^2
    """
    out = {}
    for name, length in segment_lengths.items():
        if not np.isfinite(length) or length <= 0:
            raise ConfigurationError(
                f"segment {name!r}: length must be positive, got {length}")
        r = table[name]
        mass = r.mass_fraction * participant.mass
        com = r.com_fraction * length
        gyr = r.gyration_fraction * length
        out[name] = SegmentParams(mass=mass, length=length,
                                  com_offset=com, inertia=mass * gyr * gyr)
    return out
