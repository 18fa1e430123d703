"""Marker schema: maps the configured marker labels to body segments.

The canonical 18-label set is defined by the bundled config file, not by
code; users supply their own file to rename or re-map markers.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, read_text

SEGMENTS = ("pelvis", "thigh", "shank", "foot")
SIDES = ("left", "right")
ROLES = ("proximal", "distal", "auxiliary")


@dataclass(frozen=True)
class MarkerAssignment:
    label: str
    segment: str
    side: str
    role: str


class MarkerSchema:
    """Label -> (segment, side, role) mapping with chain-aware lookups."""

    def __init__(self, assignments: list[MarkerAssignment]):
        self._by_label = {}
        self._by_key = {}
        for a in assignments:
            if a.segment not in SEGMENTS:
                raise ConfigurationError(f"marker {a.label!r}: unknown segment {a.segment!r}")
            if a.side not in SIDES:
                raise ConfigurationError(f"marker {a.label!r}: unknown side {a.side!r}")
            if a.role not in ROLES:
                raise ConfigurationError(f"marker {a.label!r}: unknown role {a.role!r}")
            if a.label in self._by_label:
                raise ConfigurationError(f"duplicate marker label {a.label!r}")
            self._by_label[a.label] = a
            self._by_key.setdefault((a.segment, a.side, a.role), []).append(a.label)
        for side in SIDES:
            for seg, role in (("thigh", "proximal"), ("thigh", "distal"),
                              ("shank", "distal"), ("foot", "distal")):
                if (seg, side, role) not in self._by_key:
                    raise ConfigurationError(
                        f"marker schema missing required {side} {seg} {role} marker")

    @property
    def labels(self) -> list[str]:
        return list(self._by_label)

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def label_for(self, segment: str, side: str, role: str) -> str:
        labels = self._by_key.get((segment, side, role))
        if not labels:
            raise ConfigurationError(
                f"marker schema has no {side} {segment} {role} marker")
        return labels[0]

    def joint_label(self, side: str, joint: str) -> str:
        """Marker sitting at a chain joint: hip, knee, ankle, toe, heel."""
        key = {
            "hip": ("thigh", "proximal"),
            "knee": ("thigh", "distal"),
            "ankle": ("shank", "distal"),
            "toe": ("foot", "distal"),
            "heel": ("foot", "auxiliary"),
        }
        try:
            seg, role = key[joint]
        except KeyError:
            raise ConfigurationError(f"unknown joint {joint!r}") from None
        return self.label_for(seg, side, role)

    def segment_endpoints(self, side: str, segment: str) -> tuple[str, str]:
        """(proximal, distal) marker labels for a leg segment."""
        chain = {"thigh": ("hip", "knee"),
                 "shank": ("knee", "ankle"),
                 "foot": ("ankle", "toe")}
        try:
            p, d = chain[segment]
        except KeyError:
            raise ConfigurationError(f"{segment!r} is not a leg segment") from None
        return self.joint_label(side, p), self.joint_label(side, d)

    def pelvis_labels(self) -> list[str]:
        out = []
        for side in SIDES:
            for role in ROLES:
                out.extend(self._by_key.get(("pelvis", side, role), []))
        if not out:
            raise ConfigurationError("marker schema has no pelvis markers")
        return out

    @classmethod
    def from_file(cls, path: str | Path) -> "MarkerSchema":
        assignments = []
        text = read_text(path, ConfigurationError)
        rows = [r for r in csv.reader(text.splitlines())
                if r and not r[0].lstrip().startswith("#")]
        if not rows or [c.strip() for c in rows[0]] != ["label", "segment", "side", "role"]:
            raise ConfigurationError(
                f"{path}: expected header 'label,segment,side,role'")
        for row in rows[1:]:
            if len(row) != 4:
                raise ConfigurationError(f"{path}: bad schema row {row!r}")
            assignments.append(MarkerAssignment(*[c.strip() for c in row]))
        return cls(assignments)

    @classmethod
    def default(cls) -> "MarkerSchema":
        with resources.as_file(
                resources.files("sandgait.data") / "marker_schema.csv") as p:
            return cls.from_file(p)
