"""Trial file parsing, gap repair, and stream alignment.

Marker files are plain CSV (``time,<label>_x,<label>_y,<label>_z,...`` in
meters, missing coordinates as empty fields).  GRF files carry
``time,fx,fy,fz,mx,my,mz,copx,copy`` in N, N m, m, all as UTF-8.  A file
is parsed from its bytes by one ``np.loadtxt`` call and written in blocks
of ``ROW_BLOCK`` rows, so reading or writing holds a small multiple of the
file, not of the whole table as text.  A block is formatted by one printf
row format; where every cell is ``%.Nf`` over float64, as in marker and
GRF files, a numpy kernel writes the same bytes two to four times as
fast.
Every file sandgait writes goes through ``write_rows``, ``write_text`` or
``write_json``: UTF-8 whatever the locale, and atomic (written to
``<name>.tmp``, then renamed) so partial runs never corrupt outputs.
The 1000 Hz GRF stream is decimated 10:1 by boxcar averaging onto the
100 Hz marker timeline; the raw stream is retained for peak extraction.
"""
from __future__ import annotations

import functools
import io
import json
import os
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (AlignmentError, ConfigurationError, FormatError,
                     SchemaError, check_number, read_json_as, read_text)
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
        if self.sand_depth is not None:
            check_number("sand_depth_cm", self.sand_depth, "> 0")
        check_number("sync_offset_s", self.sync_offset)


@dataclass
class TrialRecord:
    """One walking trial with both sensor streams."""

    meta: TrialMeta
    markers: MarkerData
    grf: GrfData


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
    and finite numeric rows as an (N, width of header) array; (0, 0) if
    empty.  Blank lines are errors, unless ``comments`` skips them and
    ``#`` lines.  ``empty_is_nan`` reads empty cells after the first column
    as NaN, and lets a NaN stand there for a missing value.  Errors name
    ``path:line``."""
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
        table = np.loadtxt(data, delimiter=",", comments=None, ndmin=2,
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
    bad = np.isinf(table) if empty_is_nan else ~np.isfinite(table)
    bad[:, 0] |= np.isnan(table[:, 0])
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise FormatError(f"{path}:{_file_line(text, row)}: non-finite value "
                          f"{table[row, col]:g} in column {header[col].strip()}")
    return table


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
    """Every row of a 2-D array through one printf row format.  A float64
    table under a format whose cells are all ``%.Nf`` (N <= 9) is formatted
    by ``_fixed_rows``, to the same bytes; others, and tables holding a
    finite |x|·10^N of 2^53 or more (less where the N of a row differ by
    more than 3), go through printf."""
    layout = _fixed_layout(row_format)
    if (layout is not None and table.dtype == np.float64 and table.ndim == 2
            and table.shape[1] == len(layout.scale)):
        rows = _fixed_rows(layout, table)
        if rows is not None:
            return rows
    return _printf_rows(row_format, table)


def _printf_rows(row_format: str, table: np.ndarray) -> str:
    return (row_format * len(table)) % tuple(table.ravel().tolist())


# The %.Nf kernel writes each cell as 4-byte words looked up by 3-digit
# chunk, NUL bytes standing for absent characters, and deletes the NULs.
_CELL = re.compile(r"%\.(\d)f")
_EXACT = 2.0 ** 53  # below it a double holds every integer and half


def _chunk_words(kept: int = 3, lead: str = "\0", strip: bool = False,
                 zero: bool = False) -> np.ndarray:
    """The word of each chunk 0..999: byte 0 is ``lead``, bytes 1-3 the
    first ``kept`` of its three digits; ``strip`` drops leading zeros, all
    of them for the chunk 0 unless ``zero``."""
    chunk = np.arange(1000)
    words = np.zeros((1000, 4), np.uint8)
    words[:, 0] = ord(lead)
    words[:, 1:] = np.stack([chunk // 100, chunk // 10 % 10, chunk % 10],
                            axis=1) + ord("0")
    words[:, 1 + kept:] = 0
    if strip:
        words[:, 1:] *= chunk[:, None] >= [100, 10, 0 if zero else 1]
    return words.view(np.uint32).ravel()


# Integer chunks are looked up at one of four offsets, + 1000 for a chunk
# under higher digits (which keeps its zeros) or, at the top, for a minus
# sign; the units chunk always keeps its last digit.
_INT_ONES, _INT_MORE, _TOP_ONES, _TOP_MORE = 0, 2000, 4000, 6000
_FRAC = 8000  # + 1000 * (4 * point + digits kept)
_WORDS = np.concatenate(
    [_chunk_words(strip=True, zero=True), _chunk_words(),
     _chunk_words(strip=True), _chunk_words(),
     _chunk_words(strip=True, zero=True),
     _chunk_words(lead="-", strip=True, zero=True),
     _chunk_words(strip=True), _chunk_words(lead="-", strip=True)]
    + [_chunk_words(kept, lead) for lead in "\0." for kept in range(4)])
_SPECIAL = {name: np.frombuffer(name.encode().ljust(4, b"\0"), np.uint32)[0]
            for name in ("nan", "inf", "-inf")}


@dataclass(frozen=True)
class _FixedLayout:
    """A row format of ``%.Nf`` cells, per cell: 10^N; the factor that
    widens N decimals to ``3 * frac_words``; the |x|·10^N below which the
    widened integer is exact in an int64; the table offset of each
    fraction word; and the words of the text after the cell."""

    scale: np.ndarray     # (C,)
    widen: np.ndarray     # (C,)
    limit: np.ndarray     # (C,)
    frac_at: np.ndarray   # (C, frac_words)
    after: np.ndarray     # (C, S) words

    def __post_init__(self):
        for value in vars(self).values():  # the cache shares each layout
            value.flags.writeable = False


@functools.lru_cache(maxsize=32)
def _fixed_layout(row_format: str) -> _FixedLayout | None:
    """The kernel's layout of ``row_format``, or None unless every cell is
    ``%.Nf``, the row starts with one, and the text after each holds no
    ``%`` and no NUL."""
    pieces = _CELL.split(row_format)
    texts, decimals = pieces[0::2], np.array(pieces[1::2], dtype=np.int64)
    if (not len(decimals) or texts[0]
            or any("%" in t or "\0" in t for t in texts)):
        return None
    frac_words = -(-int(decimals.max()) // 3)
    widen = 10 ** (3 * frac_words - decimals)
    # fraction word j keeps the digits N - 3j of its three; the first has
    # the point
    kept = np.clip(decimals[:, None] - 3 * np.arange(frac_words), 0, 3)
    dot = (np.arange(frac_words) == 0) & (decimals[:, None] > 0)
    after = [t.encode("utf-8") for t in texts[1:]]
    width = -(-max(map(len, after)) // 4) * 4
    return _FixedLayout(
        scale=10.0 ** decimals, widen=widen,
        limit=np.minimum(_EXACT, (2.0 ** 63 - _EXACT) / widen),
        frac_at=_FRAC + 1000 * (4 * dot + kept),
        after=np.frombuffer(b"".join(t.ljust(width, b"\0") for t in after),
                            np.uint32).reshape(len(after), width // 4))


def _fixed_integers(layout: _FixedLayout, table: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """|x|·10^N of each cell rounded half-even, as an int64 widened to the
    layout's decimals (0 for a non-finite cell), and the non-finite cells
    if any; None when a finite |x|·10^N reaches the layout's limit."""
    with np.errstate(over="ignore"):  # an infinite product takes printf
        prod = np.abs(table) * layout.scale
    special = None
    if not (prod < layout.limit).all():
        special = ~np.isfinite(table)
        if (prod[~special] >= np.broadcast_to(layout.limit, table.shape)[
                ~special]).any():
            return None
        prod[special] = 0.0
    rounded = np.rint(prod)
    # a product that lands on a half may be the rounding of an exact
    # product on either side of it: its error decides
    tie = np.abs(prod - rounded) == 0.5
    if tie.any():
        err = _product_error(np.abs(table[tie]),
                             np.broadcast_to(layout.scale, table.shape)[tie])
        rounded[tie] = np.where(err == 0, rounded[tie],
                                prod[tie] + np.copysign(0.5, err))
    rest = rounded.astype(np.int64)
    rest *= layout.widen
    return rest, special


def _fixed_rows(layout: _FixedLayout, table: np.ndarray) -> str | None:
    """``format_rows`` for a layout's format: the integers of
    ``_fixed_integers`` cut into 3-digit chunks that index ``_WORDS``."""
    if not len(table):
        return ""
    fixed = _fixed_integers(layout, table)
    if fixed is None:
        return None
    rest, special = fixed
    neg = np.signbit(table)

    frac_words = layout.frac_at.shape[1]
    int_words = max(1, -(-(len(str(int(rest.max()))) - 3 * frac_words) // 3))
    digits = int_words + frac_words
    cells = np.empty(table.shape + (digits + layout.after.shape[1],),
                     np.uint32)
    cells[..., digits:] = layout.after
    words = cells[..., :digits]
    for w in range(digits - 1, -1, -1):  # last chunk first
        if w:
            higher = rest // 1000
            chunk = rest - 1000 * higher
        else:
            higher, chunk = None, rest
        if w >= int_words:
            chunk += layout.frac_at[:, w - int_words]
        elif w == 0:  # the top chunk, which takes the sign
            chunk += (_TOP_ONES if int_words == 1 else _TOP_MORE) + 1000 * neg
        else:
            chunk += ((_INT_ONES if w == int_words - 1 else _INT_MORE)
                      + 1000 * (higher > 0))
        words[..., w] = _WORDS[chunk]
        rest = higher
    if special is not None and special.any():
        words[special] = 0
        words[special, 0] = np.where(
            np.isnan(table), _SPECIAL["nan"],
            np.where(neg, _SPECIAL["-inf"], _SPECIAL["inf"]))[special]
    return cells.tobytes().translate(None, b"\0").decode("utf-8")


def _product_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b - fl(a·b), exactly (Dekker 1971), barring over- and underflow."""
    prod = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into two halves of 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


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


def align_streams(markers: MarkerData, grf: GrfData) -> GrfData:
    """The GRF stream resampled onto the marker timeline (10:1 boxcar).

    Each marker timestamp receives the mean of the GRF samples in its
    centred 10-sample window; marker frames without full GRF coverage are
    dropped from the aligned stream.
    """
    m, g = markers, grf
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
    return GrfData(time=m.time[keep], force=g.force[window].mean(axis=1),
                   moment=g.moment[window].mean(axis=1),
                   cop=g.cop[window].mean(axis=1))
