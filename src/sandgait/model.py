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
E_Z = np.array([0.0, 0.0, 1.0])

#: Segments carrying inertia in the sagittal leg model.
LEG_SEGMENTS = ("foot", "shank", "thigh")


@dataclass(frozen=True)
class Participant:
    """One study participant; the source of all per-body normalizers."""

    id: str
    height: float  # m
    mass: float    # kg

    def __post_init__(self):
        check_number(f"participant {self.id!r}: height", self.height, "> 0")
        check_number(f"participant {self.id!r}: mass", self.mass, "> 0")

    def to_json(self) -> dict:
        """The ``participant`` object of trial metadata and profiles."""
        return {"id": self.id, "height_m": self.height, "mass_kg": self.mass}

    @classmethod
    def from_json(cls, doc: dict) -> "Participant":
        return cls(id=str(doc["id"]), height=float(doc["height_m"]),
                   mass=float(doc["mass_kg"]))

    @property
    def weight(self) -> float:
        """Body weight in newtons."""
        return self.mass * GRAVITY


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
    """Per-segment scaling ratios, all dimensionless fractions in (0, 1)."""

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
            total += r.mass_fraction
        if total > 1.0 + 1e-12:
            raise ConfigurationError(
                f"anthropometric table: mass fractions sum to {total:.4f} > 1")

    def __getitem__(self, segment: str) -> SegmentRatios:
        try:
            return self.ratios[segment]
        except KeyError:
            raise ConfigurationError(
                f"anthropometric table has no entry for segment {segment!r}"
            ) from None

    def __contains__(self, segment: str) -> bool:
        return segment in self.ratios

    @classmethod
    def from_file(cls, path: str | Path) -> "AnthropometricTable":
        """Read the column-delimited table; '#' starts a comment line."""
        ratios = {}
        text = read_text(path, ConfigurationError)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'name mass_fraction "
                    f"com_fraction gyration_fraction', got {raw!r}")
            name = parts[0]
            try:
                vals = [float(p) for p in parts[1:]]
            except ValueError:
                raise ConfigurationError(
                    f"{path}:{lineno}: non-numeric ratio in {raw!r}") from None
            ratios[name] = SegmentRatios(*vals)
        if not ratios:
            raise ConfigurationError(f"{path}: no segment rows found")
        return cls(ratios)

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
