"""Trial file parsing, gap repair, and stream alignment.

Marker files are plain CSV (``time,<label>_x,<label>_y,<label>_z,...`` in
meters, missing coordinates as empty fields).  GRF files carry
``time,fx,fy,fz,mx,my,mz,copx,copy`` in N, N m, m.  The 1000 Hz GRF stream
is decimated 10:1 by boxcar averaging onto the 100 Hz marker timeline; the
raw stream is retained for peak extraction.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.interpolate import interp1d

from .errors import AlignmentError, ConfigurationError, FormatError, SchemaError
from .model import Participant
from .schema import MarkerSchema

GRF_COLUMNS = ["time", "fx", "fy", "fz", "mx", "my", "mz", "copx", "copy"]


@dataclass
class MarkerData:
    """Marker stream: ``pos[label]`` is (N, 3) with NaN where missing."""

    time: np.ndarray
    pos: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.time)

    @property
    def dt(self) -> float:
        return float(np.median(np.diff(self.time)))

    def copy(self) -> "MarkerData":
        return MarkerData(self.time.copy(), {k: v.copy() for k, v in self.pos.items()})


@dataclass
class GrfData:
    """Force-plate stream at its native rate."""

    time: np.ndarray
    force: np.ndarray   # (N, 3)
    moment: np.ndarray  # (N, 3) about the plate origin
    cop: np.ndarray     # (N, 2) in the plate frame

    def __len__(self) -> int:
        return len(self.time)


@dataclass(frozen=True)
class TrialMeta:
    participant: Participant
    terrain: str                  # "solid" | "sand"
    sand_depth: float | None = None   # cm, required iff terrain == "sand"
    sync_offset: float = 0.0          # s, added to GRF timestamps

    def __post_init__(self):
        if self.terrain not in ("solid", "sand"):
            raise ConfigurationError(f"unknown terrain {self.terrain!r}")
        if self.terrain == "sand" and self.sand_depth is None:
            raise ConfigurationError("sand terrain requires sand_depth")


@dataclass
class TrialRecord:
    """One walking trial with both sensor streams."""

    meta: TrialMeta
    markers: MarkerData
    grf: GrfData
    grf_aligned: GrfData | None = field(default=None)


def read_meta_file(path: str | Path) -> TrialMeta:
    """Trial metadata block: a small JSON file."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    try:
        p = raw["participant"]
        participant = Participant(id=str(p["id"]), height=float(p["height_m"]),
                                  mass=float(p["mass_kg"]))
        return TrialMeta(participant=participant,
                         terrain=raw["terrain"],
                         sand_depth=raw.get("sand_depth_cm"),
                         sync_offset=float(raw.get("sync_offset_s", 0.0)))
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing metadata field {exc}") from None


def write_meta_file(path: str | Path, meta: TrialMeta) -> None:
    doc = {
        "participant": {"id": meta.participant.id,
                        "height_m": meta.participant.height,
                        "mass_kg": meta.participant.mass},
        "terrain": meta.terrain,
        "sync_offset_s": meta.sync_offset,
    }
    if meta.sand_depth is not None:
        doc["sand_depth_cm"] = meta.sand_depth
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_monotone(time: np.ndarray, path, header_lines: int) -> None:
    bad = np.where(np.diff(time) <= 0)[0]
    if bad.size:
        line = int(bad[0]) + 2 + header_lines  # 1-based, after header
        raise FormatError(f"{path}:{line}: non-monotone timestamp "
                          f"({time[bad[0] + 1]:g} after {time[bad[0]]:g})")


def read_marker_file(path: str | Path, schema: MarkerSchema) -> MarkerData:
    """Parse and schema-validate a marker CSV file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty marker file") from None
        rows = list(reader)
    if not header or header[0] != "time":
        raise FormatError(f"{path}: first marker column must be 'time'")

    labels: list[str] = []
    for i in range(1, len(header), 3):
        triple = header[i:i + 3]
        stems = {c.rsplit("_", 1)[0] for c in triple}
        axes = [c.rsplit("_", 1)[-1] for c in triple]
        if len(triple) != 3 or len(stems) != 1 or axes != ["x", "y", "z"]:
            raise FormatError(f"{path}: marker columns must come in "
                              f"<label>_x,<label>_y,<label>_z triples, got {triple}")
        labels.append(stems.pop())

    expected = set(schema.labels)
    unknown = [l for l in labels if l not in expected]
    if unknown:
        raise SchemaError(f"{path}: unknown marker label(s) {unknown}; "
                          f"expected set: {sorted(expected)}")
    missing = sorted(expected - set(labels))
    if missing:
        raise SchemaError(f"{path}: marker file missing label(s) {missing}")

    n = len(rows)
    if n == 0:
        raise FormatError(f"{path}: marker file has no data rows")
    time = np.empty(n)
    data = {label: np.full((n, 3), np.nan) for label in labels}
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}:{r + 2}: expected {len(header)} fields, "
                              f"got {len(row)}")
        time[r] = float(row[0])
        for k, label in enumerate(labels):
            for ax in range(3):
                cell = row[1 + 3 * k + ax].strip()
                if cell:
                    data[label][r, ax] = float(cell)
    _check_monotone(time, path, header_lines=1)
    return MarkerData(time=time, pos=data)


def write_marker_file(path: str | Path, markers: MarkerData,
                      label_order: list[str] | None = None) -> None:
    labels = label_order if label_order is not None else sorted(markers.pos)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time"] + [f"{l}_{ax}" for l in labels for ax in "xyz"])
    for r in range(len(markers)):
        row = [f"{markers.time[r]:.6f}"]
        for l in labels:
            for v in markers.pos[l][r]:
                row.append("" if math.isnan(v) else f"{v:.9f}")
        w.writerow(row)
    Path(path).write_text(buf.getvalue())


def read_grf_file(path: str | Path) -> GrfData:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty GRF file") from None
        if [c.strip() for c in header] != GRF_COLUMNS:
            raise FormatError(f"{path}: expected header {','.join(GRF_COLUMNS)}")
        rows = list(reader)
    if not rows:
        raise FormatError(f"{path}: GRF file has no data rows")
    arr = np.empty((len(rows), len(GRF_COLUMNS)))
    for r, row in enumerate(rows):
        if len(row) != len(GRF_COLUMNS):
            raise FormatError(f"{path}:{r + 2}: expected {len(GRF_COLUMNS)} fields")
        try:
            arr[r] = [float(c) for c in row]
        except ValueError:
            raise FormatError(f"{path}:{r + 2}: non-numeric field in {row!r}") from None
    _check_monotone(arr[:, 0], path, header_lines=1)
    return GrfData(time=arr[:, 0], force=arr[:, 1:4],
                   moment=arr[:, 4:7], cop=arr[:, 7:9])


def write_grf_file(path: str | Path, grf: GrfData) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(GRF_COLUMNS)
    for r in range(len(grf)):
        w.writerow([f"{grf.time[r]:.6f}"]
                   + [f"{v:.9f}" for v in grf.force[r]]
                   + [f"{v:.9f}" for v in grf.moment[r]]
                   + [f"{v:.9f}" for v in grf.cop[r]])
    Path(path).write_text(buf.getvalue())


def parse_trial(marker_file: str | Path, grf_file: str | Path,
                meta: TrialMeta, schema: MarkerSchema | None = None) -> TrialRecord:
    """Parse and validate both trial files into a TrialRecord."""
    schema = schema if schema is not None else MarkerSchema.default()
    markers = read_marker_file(marker_file, schema)
    grf = read_grf_file(grf_file)
    if meta.sync_offset:
        grf = GrfData(time=grf.time + meta.sync_offset, force=grf.force,
                      moment=grf.moment, cop=grf.cop)
    return TrialRecord(meta=meta, markers=markers, grf=grf)


def fill_gaps(markers: MarkerData, max_gap: int = 5) -> MarkerData:
    """Fill missing-marker gaps of at most ``max_gap`` frames.

    Cubic interpolation per coordinate where enough neighbours exist
    (linear with fewer than four valid support points); longer gaps are
    left missing and poison downstream frames.
    """
    out = markers.copy()
    idx = np.arange(len(markers))
    for label, pos in out.pos.items():
        for ax in range(3):
            col = pos[:, ax]
            miss = np.isnan(col)
            if not miss.any() or miss.all():
                continue
            valid = ~miss
            # enumerate contiguous missing runs
            starts = np.where(miss & ~np.roll(miss, 1))[0]
            if miss[0]:
                starts = np.unique(np.concatenate([[0], starts]))
            for s in starts:
                e = s
                while e + 1 < len(col) and miss[e + 1]:
                    e += 1
                if e - s + 1 > max_gap or s == 0 or e == len(col) - 1:
                    continue  # too long, or runs off an edge
                vi = idx[valid]
                kind = "cubic" if vi.size >= 4 else "linear"
                f = interp1d(vi, col[valid], kind=kind, assume_sorted=True)
                col[s:e + 1] = f(idx[s:e + 1])
    return out


def align_streams(trial: TrialRecord) -> TrialRecord:
    """Resample the GRF stream onto the marker timeline (10:1 boxcar).

    Each marker timestamp receives the mean of the GRF samples in its
    centred 10-sample window; marker frames without full GRF coverage are
    dropped from the aligned stream.  The raw stream is kept on the record.
    """
    m, g = trial.markers, trial.grf
    if m.time[-1] < g.time[0] or g.time[-1] < m.time[0]:
        raise AlignmentError(
            f"marker timeline [{m.time[0]:g}, {m.time[-1]:g}] s does not "
            f"overlap GRF timeline [{g.time[0]:g}, {g.time[-1]:g}] s")
    dt_m = m.dt
    dt_g = float(np.median(np.diff(g.time)))
    ratio = max(1, int(round(dt_m / dt_g)))
    half_lo, half_hi = (ratio // 2 - 1, ratio // 2) if ratio % 2 == 0 \
        else (ratio // 2, ratio // 2)

    centers = np.searchsorted(g.time, m.time)
    centers = np.clip(centers, 0, len(g) - 1)
    # snap to the nearest raw sample
    left_ok = centers > 0
    nudge = left_ok & (np.abs(g.time[np.maximum(centers - 1, 0)] - m.time)
                       < np.abs(g.time[centers] - m.time))
    centers[nudge] -= 1

    lo = centers - half_lo
    keep = ((lo >= 0) & (centers + half_hi < len(g))
            & ~(np.abs(g.time[centers] - m.time) > dt_m))
    if not keep.any():
        raise AlignmentError("no marker frame has full GRF window coverage")
    window = lo[keep][:, None] + np.arange(half_lo + half_hi + 1)
    aligned = GrfData(time=m.time[keep], force=g.force[window].mean(axis=1),
                      moment=g.moment[window].mean(axis=1),
                      cop=g.cop[window].mean(axis=1))
    return replace(trial, grf_aligned=aligned)
