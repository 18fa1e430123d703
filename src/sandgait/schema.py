"""Marker schema: the anatomical landmark each marker label sits on.

A schema file is CSV with the header ``label,side,landmark`` (blank and
``#`` lines skipped).  A landmark is ``pelvis`` (any number per side),
``hip``, ``knee``, ``ankle``, ``heel`` or ``toe`` (exactly one each per
side), or ``tracking``: a marker the trial must hold that no stage reads.
The bundled file holds the canonical 18 labels; a user file renames them.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, read_text

SIDES = ("left", "right")
_JOINTS = ("hip", "knee", "ankle", "heel", "toe")
_LANDMARKS = ("pelvis", *_JOINTS, "tracking")
_HEADER = "label,side,landmark"


class MarkerSchema:
    """The marker labels in file order, each side's label at each joint
    landmark, and the pelvis labels: the left side's in file order, then
    the right side's."""

    def __init__(self, labels: list[str], joints: dict[tuple[str, str], str],
                 pelvis: list[str]):
        self.labels = labels
        self._joints = joints
        self._pelvis = pelvis

    def joint_label(self, side: str, joint: str) -> str:
        """The label at ``side``'s hip, knee, ankle, heel or toe."""
        try:
            return self._joints[(side, joint)]
        except KeyError:
            raise ConfigurationError(f"no {side} {joint!r} landmark") from None

    def pelvis_labels(self) -> list[str]:
        return list(self._pelvis)

    def landmark_labels(self) -> list[str]:
        """The labels a stage reads: every marker but the tracking ones."""
        return [*self._joints.values(), *self._pelvis]

    @classmethod
    def from_file(cls, path: str | Path,
                  raw: bytes | None = None) -> "MarkerSchema":
        """Read a schema file, or its bytes ``raw``; an error names the
        file, and a row's error its line."""
        text = read_text(path, ConfigurationError, raw)
        rows = [(n, [c.strip() for c in line.split(",")]) for n, line
                in enumerate(text.split("\n"), 1)
                if line.strip() and not line.lstrip().startswith("#")]
        if not rows or rows[0][1] != _HEADER.split(","):
            where = f"{path}:{rows[0][0]}" if rows else path
            raise ConfigurationError(f"{where}: expected header {_HEADER!r}")
        line_of, joints, pelvis = {}, {}, {side: [] for side in SIDES}
        for n, cells in rows[1:]:
            if len(cells) != 3:
                raise ConfigurationError(f"{path}:{n}: expected 3 fields "
                                         f"({_HEADER}), got {len(cells)}")
            label, side, landmark = cells
            key = (side, landmark)
            problem = (
                f"side must be left or right, got {side!r}" if side not in SIDES
                else f"unknown landmark {landmark!r}; expected one of "
                     f"{', '.join(_LANDMARKS)}" if landmark not in _LANDMARKS
                else f"already on line {line_of[label]}" if label in line_of
                else f"second {side} {landmark} marker ({joints[key]!r} is on "
                     f"line {line_of[joints[key]]})" if key in joints
                else None)
            if problem:
                raise ConfigurationError(f"{path}:{n}: marker {label!r}: {problem}")
            line_of[label] = n
            if landmark == "pelvis":
                pelvis[side].append(label)
            elif landmark != "tracking":
                joints[key] = label
        if missing := [f"{side} {joint}" for side in SIDES for joint in _JOINTS
                       if (side, joint) not in joints]:
            raise ConfigurationError(
                f"{path}: no marker for landmark(s) {', '.join(missing)}")
        if not any(pelvis.values()):
            raise ConfigurationError(f"{path}: no pelvis marker")
        return cls(list(line_of), joints, pelvis["left"] + pelvis["right"])

    @classmethod
    def default(cls) -> "MarkerSchema":
        with resources.as_file(
                resources.files("sandgait.data") / "marker_schema.csv") as p:
            return cls.from_file(p)
