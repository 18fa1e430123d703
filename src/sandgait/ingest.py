"""Trial file parsing, gap repair, and stream alignment.

Marker files are plain CSV (``time,<label>_x,<label>_y,<label>_z,...`` in
meters, missing coordinates as empty fields).  GRF files carry
``time,fx,fy,fz,mx,my,mz,copx,copy`` in N, N m, m, all as UTF-8.  A file
is parsed from its bytes by one ``np.loadtxt`` call and written in blocks
of ``ROW_BLOCK`` rows through one printf row format, so reading or writing
holds a small multiple of the file, not of the whole table as text.
Every file sandgait writes goes through ``write_rows``, ``write_text`` or
``write_json``: UTF-8 whatever the locale, and atomic (written to
``<name>.tmp``, then renamed) so partial runs never corrupt outputs.
The 1000 Hz GRF stream is decimated 10:1 by boxcar averaging onto the
100 Hz marker timeline; the raw stream is retained for peak extraction.
"""
from __future__ import annotations

import io
import json
import os
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (AlignmentError, ConfigurationError, FormatError,
                     SchemaError, read_json_as, read_text)
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
    """Trial metadata block: a small JSON object."""
    return read_json_as(path, _meta_from_json, "metadata")


def _meta_from_json(raw: dict) -> TrialMeta:
    participant = Participant.from_json(raw["participant"])
    depth = raw.get("sand_depth_cm")
    return TrialMeta(participant=participant, terrain=raw["terrain"],
                     sand_depth=None if depth is None else float(depth),
                     sync_offset=float(raw.get("sync_offset_s", 0.0)))


def write_meta_file(path: str | Path, meta: TrialMeta) -> None:
    doc = {"participant": meta.participant.to_json(), "terrain": meta.terrain,
           "sync_offset_s": meta.sync_offset}
    if meta.sand_depth is not None:
        doc["sand_depth_cm"] = meta.sand_depth
    write_json(path, doc)


_SKIPPED_LINE = re.compile(r"^[ \t]*(?:#.*)?$", re.M)
_BLANK_LINE = re.compile(r"\n[ \t]*\n")  # the newline before and after it
_NEXT_LINE = re.compile(r"\n*([^\n]*)")  # the next line that is not empty
_EMPTY_CELL = re.compile(r",[ \t]*(?=[,\n])")
# loadtxt counts data rows from 0 in conversion errors, from 1 in width ones
_LOADTXT_ERROR = re.compile(
    r"convert string (.*) to float64 at row (\d+), column (\d+)"
    r"|columns changed from \d+ to (\d+) at row (\d+)")


def read_csv_table(path: str | Path, check_header: Callable[[list[str]], None],
                   *, comments: bool = False,
                   empty_is_nan: bool = False) -> np.ndarray:
    """A CSV file of one header line, which ``check_header`` vets first,
    and numeric rows as an (N, width of header) array; (0, 0) if empty.
    Blank lines are errors, unless ``comments`` skips them and ``#`` lines.
    ``empty_is_nan`` reads empty cells after the first column as NaN.
    Errors name ``path:line``."""
    text = read_text(path)
    if text and not text.endswith("\n"):
        text += "\n"
    if comments:
        text = _SKIPPED_LINE.sub("", text)
    elif blank := _BLANK_LINE.search("\n" + text):
        line = text.count("\n", 0, blank.start()) + 1
        raise FormatError(f"{path}:{line}: blank line")
    line = _NEXT_LINE.match(text)
    if not line[1]:
        return np.empty((0, 0))
    check_header(header := line[1].split(","))
    body_at = line.end() + 1
    if empty_is_nan and _EMPTY_CELL.search(text, body_at):
        text = text[:body_at] + _EMPTY_CELL.sub(",nan", text[body_at:])
    first_row = _NEXT_LINE.match(text, body_at)[1]
    if not first_row:
        return np.empty((0, len(header)))
    # loadtxt takes its width from the first row
    if (got := first_row.count(",") + 1) != len(header):
        raise FormatError(f"{path}:{_file_line(text, 0)}: expected "
                          f"{len(header)} fields, got {got}")
    # bytes, not a StringIO: that would hold the text at 4 bytes a character
    data = io.BytesIO(text.encode("utf-8"))
    data.seek(len(text[:body_at].encode("utf-8")))
    try:
        return np.loadtxt(data, delimiter=",", comments=None, ndmin=2,
                          encoding="utf-8")
    except ValueError as exc:
        m = _LOADTXT_ERROR.search(str(exc))
        if not m:
            raise FormatError(f"{path}: {exc}") from None
        cell, row, col, got, row_from_1 = m.groups()
        msg = (f"non-numeric field {cell} in column {header[int(col) - 1]}"
               if cell is not None else f"expected {len(header)} fields, got {got}")
        row = int(row) if cell is not None else int(row_from_1) - 1
        raise FormatError(f"{path}:{_file_line(text, row)}: {msg}") from None


def _file_line(text: str, row: int) -> int:
    """File line of data row ``row`` (from 0), loadtxt skipping empty lines."""
    return [i for i, line in enumerate(text.split("\n"), 1) if line][row + 1]


def expect_columns(path, columns: list[str]) -> Callable[[list[str]], None]:
    """A ``check_header`` for fixed columns, blanks around names allowed."""
    def check(header: list[str]) -> None:
        if [c.strip() for c in header] != columns:
            raise FormatError(f"{path}: expected header {','.join(columns)}")
    return check


def _check_monotone(time: np.ndarray, path, header_lines: int) -> None:
    bad = np.where(np.diff(time) <= 0)[0]
    if bad.size:
        line = int(bad[0]) + 2 + header_lines  # 1-based, after header
        raise FormatError(f"{path}:{line}: non-monotone timestamp "
                          f"({time[bad[0] + 1]:g} after {time[bad[0]]:g})")


def format_rows(row_format: str, table: np.ndarray) -> str:
    """Every row of a 2-D array through one printf row format."""
    return (row_format * len(table)) % tuple(table.ravel().tolist())


#: Rows formatted and written at a time by ``write_rows``.
ROW_BLOCK = 256


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text`` (or its pieces in turn) to ``<path>.tmp`` as UTF-8,
    then rename it over ``path``; if anything raises, remove the tmp file
    and leave ``path`` as it was.  ``surrogateescape`` writes back the bytes
    that argv paths decoded under the C locale stand for."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_rows(path: str | Path, header: str, row_format: str,
               columns: list[np.ndarray], *, nan_as_empty: bool = False) -> None:
    """A UTF-8 CSV file, atomically: the ``header`` line(s), then the rows
    of ``columns`` (equal-length 1-D or 2-D arrays side by side; object
    arrays for text cells) through one printf row format, ``ROW_BLOCK``
    rows at a time.  ``nan_as_empty`` writes a NaN after the first column
    as an empty cell."""
    def chunks():
        yield header + "\n"
        for i in range(0, len(columns[0]), ROW_BLOCK):
            rows = format_rows(row_format, np.column_stack(
                [c[i:i + ROW_BLOCK] for c in columns]))
            # a block ends a row, and "%.9f" prints no other token that
            # starts with "n"
            yield rows.replace(",nan", ",") if nan_as_empty else rows
    write_text(path, chunks())


def read_marker_file(path: str | Path, schema: MarkerSchema) -> MarkerData:
    """Parse and schema-validate a marker CSV file."""
    labels: list[str] = []

    def check_header(header: list[str]) -> None:
        if header[0] != "time":
            raise FormatError(f"{path}: first marker column must be 'time'")
        labels.extend(c.rsplit("_", 1)[0] for c in header[1::3])
        if header[1:] != [f"{l}_{ax}" for l in labels for ax in "xyz"]:
            raise FormatError(f"{path}: marker columns must come in "
                              f"<label>_x,<label>_y,<label>_z triples")
        expected = set(schema.labels)
        unknown = [l for l in labels if l not in expected]
        if unknown:
            raise SchemaError(f"{path}: unknown marker label(s) {unknown}; "
                              f"expected set: {sorted(expected)}")
        missing = sorted(expected - set(labels))
        if missing:
            raise SchemaError(f"{path}: marker file missing label(s) {missing}")

    arr = read_csv_table(path, check_header, empty_is_nan=True)
    if not len(arr):
        raise FormatError(f"{path}: marker file has no data rows")
    _check_monotone(arr[:, 0], path, header_lines=1)
    return MarkerData(time=arr[:, 0].copy(), pos={
        label: arr[:, 1 + 3 * k:4 + 3 * k].copy() for k, label in enumerate(labels)})


def write_marker_file(path: str | Path, markers: MarkerData,
                      label_order: list[str] | None = None) -> None:
    labels = label_order if label_order is not None else sorted(markers.pos)
    write_rows(path, ",".join(["time"] + [f"{l}_{ax}" for l in labels
                                          for ax in "xyz"]),
               "%.6f" + ",%.9f" * (3 * len(labels)) + "\n",
               [markers.time] + [markers.pos[l] for l in labels],
               nan_as_empty=True)


def read_grf_file(path: str | Path) -> GrfData:
    arr = read_csv_table(path, expect_columns(path, GRF_COLUMNS))
    if not len(arr):
        raise FormatError(f"{path}: GRF file has no data rows")
    _check_monotone(arr[:, 0], path, header_lines=1)
    return GrfData(time=arr[:, 0], force=arr[:, 1:4],
                   moment=arr[:, 4:7], cop=arr[:, 7:9])


def write_grf_file(path: str | Path, grf: GrfData) -> None:
    write_rows(path, ",".join(GRF_COLUMNS), "%.6f" + ",%.9f" * 8 + "\n",
               [grf.time, grf.force, grf.moment, grf.cop])


def parse_trial(marker_file: str | Path, grf_file: str | Path,
                meta: TrialMeta, schema: MarkerSchema | None = None) -> TrialRecord:
    """Parse and validate both trial files into a TrialRecord."""
    schema = schema if schema is not None else MarkerSchema.default()
    markers = read_marker_file(marker_file, schema)
    grf = read_grf_file(grf_file)
    if meta.sync_offset:
        grf = replace(grf, time=grf.time + meta.sync_offset)
    return TrialRecord(meta=meta, markers=markers, grf=grf)


def fill_gaps(markers: MarkerData, max_gap: int = 5) -> MarkerData:
    """Fill missing-marker gaps of at most ``max_gap`` frames.

    A marker's columns that share one missing mask (a hidden marker loses
    all three coordinates) share one not-a-knot cubic spline through their
    valid frames; a column with a mask of its own gets its own spline.  With
    fewer than four valid frames the fill is linear (``np.interp``) per
    column.  Longer gaps and runs off either end are left missing and poison
    downstream frames.
    """
    out = markers.copy()
    idx = np.arange(len(markers))
    for pos in out.pos.values():
        miss = np.isnan(pos)
        if not miss.any():
            continue
        groups: dict[bytes, list[int]] = {}
        for c, col in enumerate(miss.T):
            groups.setdefault(col.tobytes(), []).append(c)
        for cols in groups.values():
            gap = miss[:, cols[0]]
            # +1 where a missing run starts, -1 one past where it ends
            step = np.diff(gap.astype(np.int8), prepend=0, append=0)
            starts, stops = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
            ok = (stops - starts <= max_gap) & (starts > 0) & (stops < len(idx))
            if not ok.any():
                continue
            fill = gap & ok[np.cumsum(step[:-1] == 1) - 1]
            valid = ~gap
            if np.count_nonzero(valid) < 4:
                for c in cols:
                    pos[fill, c] = np.interp(idx[fill], idx[valid], pos[valid, c])
                continue
            from scipy.interpolate import make_interp_spline  # a 0.6 s import: only gaps need it
            spline = make_interp_spline(idx[valid], pos[np.ix_(valid, cols)],
                                        k=3, axis=0, check_finite=False)
            pos[np.ix_(fill, cols)] = spline(idx[fill])
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
