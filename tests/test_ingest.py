import ast
import contextlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import interp1d

from sandgait import ingest, model, pipeline
from sandgait.errors import (AlignmentError, ConfigurationError, FormatError,
                             SchemaError, check_number)
from sandgait.forces import read_calibration_samples
from sandgait.ingest import (CELL_BLOCK, GRF_COLUMNS, GrfData, MarkerData,
                             TrialMeta, align_streams, fill_gaps,
                             format_rows, parse_trial, plate_windows,
                             read_csv_table, read_grf_file,
                             read_marker_file, read_meta_file,
                             write_grf_file, write_marker_file,
                             write_meta_file)
from sandgait.model import AnthropometricTable
from sandgait.pipeline import RunConfig
from sandgait.schema import MarkerSchema


#: the bundled marker schema
_SCHEMA_FILE = Path(ingest.__file__).parent / "data" / "marker_schema.csv"


@pytest.fixture
def schema():
    return MarkerSchema.default()


def _make_markers(schema, n=5, dt=0.01, seed=0):
    rng = np.random.default_rng(seed)
    time = np.arange(n) * dt
    pos = {label: rng.normal(size=(n, 3)) for label in schema.labels}
    return MarkerData(time=time, pos=pos)


def _fill_gaps_loop(markers, max_gap=5):
    """Reference: one interpolant per gap, the gap runs found by a walk."""
    out = markers.copy()
    idx = np.arange(len(markers))
    for label, pos in out.pos.items():
        for ax in range(3):
            col = pos[:, ax]
            miss = np.isnan(col)
            if not miss.any() or miss.all():
                continue
            valid = ~miss
            starts = np.where(miss & ~np.roll(miss, 1))[0]
            if miss[0]:
                starts = np.unique(np.concatenate([[0], starts]))
            for s in starts:
                e = s
                while e + 1 < len(col) and miss[e + 1]:
                    e += 1
                if e - s + 1 > max_gap or s == 0 or e == len(col) - 1:
                    continue
                vi = idx[valid]
                kind = "cubic" if vi.size >= 4 else "linear"
                f = interp1d(vi, col[valid], kind=kind, assume_sorted=True)
                col[s:e + 1] = f(idx[s:e + 1])
    return out


def _rewrite_line(path, lineno, text):
    """Replace 1-based file line ``lineno`` of ``path`` by ``text``."""
    lines = path.read_text().split("\n")
    lines[lineno - 1] = text
    path.write_text("\n".join(lines))


class TestSchema:
    def test_joint_labels(self, schema):
        assert schema.joint_label("left", "knee") == "L-knee"
        assert schema.joint_label("right", "toe") == "R-toe"
        assert schema.joint_label("right", "heel") == "R-heel"

    def test_chain_inference(self, schema):
        # each leg's chain runs hip -> knee -> ankle -> toe: the shank
        # borrows the knee marker as its proximal point, the foot the ankle
        assert [schema.joint_label("left", j) for j in pipeline._CHAIN] == [
            "L-hip", "L-knee", "L-ankle", "L-toe"]
        assert [schema.joint_label("right", j) for j in pipeline._CHAIN] == [
            "R-hip", "R-knee", "R-ankle", "R-toe"]

    def test_pelvis_labels(self, schema):
        assert set(schema.pelvis_labels()) >= {"L-asis", "R-asis"}

    def test_eighteen_labels(self, schema):
        assert len(schema.labels) == 18

    def test_pelvis_order(self, schema):
        # left side first, each side in file order: this order fixes the
        # float sum of the pelvis midpoint
        assert schema.pelvis_labels() == ["L-asis", "L-psis", "R-asis", "R-psis"]

    def test_tracking_markers_are_labels_only(self, schema):
        assert {"L-thigh", "R-shank"} <= set(schema.labels)
        assert "L-thigh" not in schema.landmark_labels()
        assert "L-thigh" not in [
            schema.joint_label(side, joint) for side in ("left", "right")
            for joint in pipeline._CHAIN]

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: ["label,segment,side,role", "L-asis,pelvis,left,proximal"],
         ":1: expected header 'label,side,landmark'"),
        (lambda rows: [],
         ": expected header 'label,side,landmark'"),
        (lambda rows: rows[:1] + ["L-thigh,left"] + rows[1:],
         ":2: expected 3 fields (label,side,landmark), got 2"),
        (lambda rows: rows + ["L-mid,middle,tracking"],
         ":20: marker 'L-mid': side must be left or right, got 'middle'"),
        (lambda rows: rows + ["L-mid,left,aux"],
         ":20: marker 'L-mid': unknown landmark 'aux'; expected one of "
         "pelvis, hip, knee, ankle, heel, toe, tracking"),
        (lambda rows: rows + ["L-heel,left,tracking"],
         ":20: marker 'L-heel': already on line 16"),
        # a forefoot marker listed before the heel was once taken for it
        (lambda rows: rows[:15] + ["L-mt5,left,heel"] + rows[15:],
         ":17: marker 'L-heel': second left heel marker ('L-mt5' is on "
         "line 16)"),
        # a medial knee marker was once ignored
        (lambda rows: rows + ["L-mknee,left,knee"],
         ":20: marker 'L-mknee': second left knee marker ('L-knee' is on "
         "line 10)"),
        (lambda rows: [r for r in rows if r != "R-toe,right,toe"],
         ": no marker for landmark(s) right toe"),
        (lambda rows: [r for r in rows if not r.endswith(",pelvis")],
         ": no pelvis marker"),
    ], ids=["old_header", "empty", "two_fields", "unknown_side",
            "unknown_landmark", "duplicate_label", "forefoot_before_heel",
            "medial_knee", "missing_toe", "no_pelvis"])
    def test_bad_file_names_path_and_line(self, tmp_path, edit, message):
        # header on line 1, then the default rows from line 2 (L-knee on
        # line 10, L-heel on 16)
        rows = [line for line in _SCHEMA_FILE.read_text().splitlines()
                if not line.startswith("#")]
        path = tmp_path / "schema.csv"
        path.write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(ConfigurationError) as exc:
            MarkerSchema.from_file(path)
        assert str(exc.value) == f"{path}{message}"

    def test_comments_and_blank_lines_skipped(self, tmp_path, schema):
        path = tmp_path / "schema.csv"
        path.write_text("\n\n" + _SCHEMA_FILE.read_text().replace(
            "\nR-hip", "\n# hip\n\nR-hip"))
        back = MarkerSchema.from_file(path)
        assert back.labels == schema.labels
        assert back.pelvis_labels() == schema.pelvis_labels()
        assert [back.joint_label("right", j) for j in ("hip", "knee")] == [
            "R-hip", "R-knee"]


class TestMarkerIo:
    def test_round_trip(self, tmp_path, schema):
        markers = _make_markers(schema)
        markers.pos["L-heel"][2, 1] = np.nan  # a hole survives the trip
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        back = read_marker_file(path, schema)
        assert np.allclose(back.time, markers.time)
        for label in schema.labels:
            np.testing.assert_allclose(back.pos[label], markers.pos[label],
                                       atol=1e-9)

    def test_unknown_label(self, tmp_path, schema):
        markers = _make_markers(schema)
        markers.pos["X-extra"] = markers.pos.pop("L-heel")
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        with pytest.raises(SchemaError, match="X-extra"):
            read_marker_file(path, schema)

    def test_duplicate_label(self, tmp_path, schema):
        # a repeated triple would silently replace the first
        markers = _make_markers(schema)
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        lines = path.read_text().split("\n")
        k = lines[0].split(",").index("L-heel_x")
        path.write_text("\n".join(
            line and line + "," + ",".join(line.split(",")[k:k + 3])
            for line in lines))
        with pytest.raises(SchemaError) as exc:
            read_marker_file(path, schema)
        assert str(exc.value) == \
            f"{path}: duplicate marker label(s) ['L-heel']"

    def test_missing_label(self, tmp_path, schema):
        markers = _make_markers(schema)
        del markers.pos["R-toe"]
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        with pytest.raises(SchemaError, match="R-toe"):
            read_marker_file(path, schema)

    def test_bad_field_count_names_line(self, tmp_path, schema):
        markers = _make_markers(schema, n=3)
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + ",1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=":3:"):
            read_marker_file(path, schema)

    def test_non_monotone_time(self, tmp_path, schema):
        markers = _make_markers(schema, n=4)
        markers.time[2] = markers.time[1]
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        with pytest.raises(FormatError, match="non-monotone"):
            read_marker_file(path, schema)

    def test_bad_header(self, tmp_path, schema):
        path = tmp_path / "m.csv"
        path.write_text("frame,L-heel_x,L-heel_y,L-heel_z\n0,1,2,3\n")
        with pytest.raises(FormatError, match="time"):
            read_marker_file(path, schema)

    @pytest.mark.parametrize("lineno, edit, message", [
        (3, lambda f: ["0.01", "oops"] + f[2:], r":3: non-numeric field "
                                               r"'oops' in column \S+_x"),
        (4, lambda f: [""] + f[1:], r":4: non-numeric field '' in column time"),
        (2, lambda f: [" "] + f[1:], r":2: non-numeric field ' ' in column time"),
        (3, lambda f: [], r":3: blank line"),
        (4, lambda f: ["  "], r":4: blank line"),
        (2, lambda f: f[:-1], r":2: expected 55 fields, got 54"),
        (4, lambda f: f + ["1.0"], r":4: expected 55 fields, got 56"),
    ], ids=["non_numeric_cell", "empty_time", "blank_time", "empty_line",
            "whitespace_line", "first_row_short", "row_long"])
    def test_bad_body_names_line(self, tmp_path, schema, lineno, edit, message):
        path = tmp_path / "m.csv"
        write_marker_file(path, _make_markers(schema, n=3))
        fields = path.read_text().split("\n")[lineno - 1].split(",")
        _rewrite_line(path, lineno, ",".join(edit(fields)))
        with pytest.raises(FormatError, match=message):
            read_marker_file(path, schema)

    def test_trailing_blank_line_rejected(self, tmp_path, schema):
        path = tmp_path / "m.csv"
        write_marker_file(path, _make_markers(schema, n=3))
        path.write_text(path.read_text() + "\n")
        with pytest.raises(FormatError, match=":5: blank line"):
            read_marker_file(path, schema)

    def test_missing_final_newline(self, tmp_path, schema):
        markers = _make_markers(schema, n=3)
        last = sorted(markers.pos)[-1]
        markers.pos[last][2] = np.nan  # the last cells of the last line
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        path.write_text(path.read_text().rstrip("\n"))
        back = read_marker_file(path, schema)
        assert np.isnan(back.pos[last][2]).all()

    def test_whitespace_cell_is_missing(self, tmp_path, schema):
        markers = _make_markers(schema, n=3)
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        fields = path.read_text().split("\n")[2].split(",")
        fields[1], fields[5] = " \t ", ""
        _rewrite_line(path, 3, ",".join(fields))
        back = read_marker_file(path, schema)
        first, second = sorted(markers.pos)[:2]
        assert np.isnan(back.pos[first][1, 0])
        assert np.isnan(back.pos[second][1, 1])
        assert np.count_nonzero(np.isnan(back.pos[first])) == 1
        assert back.pos[second][1, 0] == float(f"{markers.pos[second][1, 0]:.9f}")

    def test_header_only(self, tmp_path, schema):
        path = tmp_path / "m.csv"
        write_marker_file(path, _make_markers(schema, n=0))
        with pytest.raises(FormatError, match="no data rows"):
            read_marker_file(path, schema)

    def test_crlf_reads_the_same(self, tmp_path, schema):
        markers = _make_markers(schema, n=6)
        markers.pos["L-heel"][2:4] = np.nan
        write_marker_file(tmp_path / "lf.csv", markers)
        data = (tmp_path / "lf.csv").read_bytes()
        (tmp_path / "crlf.csv").write_bytes(data.replace(b"\n", b"\r\n"))
        lf = read_marker_file(tmp_path / "lf.csv", schema)
        crlf = read_marker_file(tmp_path / "crlf.csv", schema)
        assert np.array_equal(crlf.time, lf.time)
        for label in schema.labels:
            assert np.array_equal(crlf.pos[label], lf.pos[label], equal_nan=True)


def test_rows_start_after_a_non_ascii_header(tmp_path):
    # the rows are parsed from the UTF-8 bytes: three two-byte letters in
    # the header must not shift where they start
    path = tmp_path / "t.csv"
    path.write_text("time,Zo\u00eb-\u00c5sa-\u00d8rn\n0.5,1\n1.5,2\n",
                    encoding="utf-8")
    headers = []
    table = read_csv_table(path, headers.append)
    assert headers == [["time", "Zo\u00eb-\u00c5sa-\u00d8rn"]]
    assert table.tolist() == [[0.5, 1.0], [1.5, 2.0]]


def _marker_text(schema):
    markers = _make_markers(schema, n=5)
    markers.pos["L-heel"][2] = np.nan
    labels = sorted(schema.labels)
    rows = np.column_stack([markers.pos[l] for l in labels])
    return "".join(
        [",".join(["time"] + [f"{l}_{ax}" for l in labels for ax in "xyz"])]
        + [f"\n{t:.6f}," + ",".join("" if math.isnan(v) else f"{v:.9f}"
                                    for v in row)
           for t, row in zip(markers.time, rows)]) + "\n"


#: reader -> (read a path to one array, a file of it as LF text, the
#: line and column of a cell to spoil); the samples carry comments
_CSV_READERS = {
    "grf": (lambda path: np.column_stack(
                [(g := read_grf_file(path)).time, g.force, g.moment, g.cop]),
            "time,fx,fy,fz,mx,my,mz,copx,copy\n"
            + "".join(f"{i / 1000:.6f}" + f",{i + 0.5:.9f}" * 8 + "\n"
                      for i in range(4)), 3, 3),
    "markers": (lambda path: np.column_stack(
                    [(m := read_marker_file(path, MarkerSchema.default())).time]
                    + [m.pos[l] for l in sorted(m.pos)]),
                None, 4, 7),
    "samples": (lambda path: np.array(read_calibration_samples(path)),
                "# rig 2\ndepth_cm,f_surface_n,f_buried_n\n14,100,81\n"
                "# second load\n14,200,162\n", 5, 2),
}


class TestReaderBytes:
    """The CSV readers parse bytes as the text reader before them did:
    universal newlines, UTF-8 checked, the same tables, errors and lines."""

    @pytest.fixture(params=list(_CSV_READERS))
    @staticmethod
    def reader(request, schema):
        read, text, line, col = _CSV_READERS[request.param]
        return read, text or _marker_text(schema), line, col

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_newlines_read_the_same(self, tmp_path, reader, newline):
        read, text, _, _ = reader
        (tmp_path / "lf.csv").write_bytes(text.encode())
        (tmp_path / "other.csv").write_bytes(
            text.replace("\n", newline).encode())
        assert np.array_equal(read(tmp_path / "other.csv"),
                              read(tmp_path / "lf.csv"), equal_nan=True)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_error_names_the_same_line(self, tmp_path, reader, newline):
        read, text, line, col = reader
        lines = text.split("\n")
        cells = lines[line - 1].split(",")
        cells[col] = "x1"
        lines[line - 1] = ",".join(cells)
        header = next(l for l in lines if not l.startswith("#")).split(",")
        path = tmp_path / "bad.csv"
        path.write_bytes(newline.join(lines).encode())
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == (f"{path}:{line}: non-numeric field 'x1' "
                                  f"in column {header[col]}")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_names_the_file_offset(self, tmp_path, reader,
                                                newline):
        read, text, line, _ = reader
        data = text.replace("\n", newline).encode()
        at = data.index(b",", sum(len(l) + len(newline)
                                  for l in text.split("\n")[:line - 1]))
        path = tmp_path / "bad.csv"
        path.write_bytes(data[:at] + b"\xc3(" + data[at:])
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == (f"{path}: not UTF-8 text "
                                  f"(byte 0xc3 at offset {at})")

    def test_non_ascii_comment(self, tmp_path):
        read, text, line, col = _CSV_READERS["samples"]
        path = tmp_path / "s.csv"
        path.write_text(text.replace("# rig 2", "# Bohr\u00e4nde \u2116 2"),
                        encoding="utf-8")
        assert read(path).tolist() == [[14, 100, 81], [14, 200, 162]]
        path.write_text(path.read_text(encoding="utf-8") + "1,2,x1\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match=r"s\.csv:6: non-numeric"):
            read(path)

    def test_non_ascii_grf_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(_CSV_READERS["grf"][1].replace("copy", "c\u00f6py"),
                        encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_grf_file(path)
        assert str(exc.value) == (f"{path}: expected header "
                                  f"{','.join(GRF_COLUMNS)}")

    def test_non_ascii_marker_label(self, tmp_path, schema):
        path = tmp_path / "m.csv"
        text = _marker_text(schema)
        path.write_text(text.replace("L-heel_", "L-h\u00e9el_"),
                        encoding="utf-8")
        with pytest.raises(SchemaError, match="unknown marker label.*"
                                              "'L-h\u00e9el'"):
            read_marker_file(path, schema)


def _grf_lines(n=40):
    return (["time,fx,fy,fz,mx,my,mz,copx,copy"]
            + [f"{i / 1000:.6f}" + f",{i + 0.5:.9f}" * 8 for i in range(n)])


def _offset(lines, line, newline="\n"):
    """The byte offset at which 1-based ``line`` of ``lines`` starts."""
    return sum(len(l.encode()) + len(newline) for l in lines[:line - 1])


class TestReadBlocks:
    """A file read in blocks gives what it gives read whole: the same table,
    or the same ``path:line`` message.  ``_READ_BLOCK`` is shrunk so that
    the first read stops on, or a few bytes into, the line that holds the
    feature, which then starts the second block."""

    @staticmethod
    def _outcome(read, path):
        try:
            return read(path)
        except FormatError as exc:
            return str(exc)

    def _blocked(self, monkeypatch, read, path, block):
        """``read(path)``'s table or message, read whole and in blocks of
        ``block`` bytes, which must agree."""
        whole = self._outcome(read, path)
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        blocked = self._outcome(read, path)
        if isinstance(whole, str):
            assert blocked == whole
        else:
            assert np.array_equal(blocked, whole, equal_nan=True)
        return whole

    @pytest.mark.parametrize("into", [0, 1, 5])
    def test_non_numeric_cell(self, monkeypatch, tmp_path, into):
        lines = _grf_lines()
        cells = lines[19].split(",")
        cells[3] = "x1"
        lines[19] = ",".join(cells)
        path = tmp_path / "g.csv"
        path.write_text("\n".join(lines) + "\n")
        got = self._blocked(monkeypatch, _CSV_READERS["grf"][0], path,
                            _offset(lines, 20) + into)
        assert got == f"{path}:20: non-numeric field 'x1' in column fz"

    @pytest.mark.parametrize("into", [0, 1])
    def test_blank_line(self, monkeypatch, tmp_path, into):
        # at 0 the blank line starts the second block; at 1 it ends the first
        lines = _grf_lines()
        lines.insert(19, "")
        path = tmp_path / "g.csv"
        path.write_text("\n".join(lines) + "\n")
        got = self._blocked(monkeypatch, _CSV_READERS["grf"][0], path,
                            _offset(lines, 20) + into)
        assert got == f"{path}:20: blank line"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_non_utf8_byte(self, monkeypatch, tmp_path, newline):
        # the offset is counted in the file's own bytes, CRs included
        data = newline.join(_grf_lines()).encode() + newline.encode()
        at = _offset(_grf_lines(), 20, newline) + 4
        path = tmp_path / "g.csv"
        path.write_bytes(data[:at] + b"\xc3(" + data[at:])
        got = self._blocked(monkeypatch, _CSV_READERS["grf"][0], path, at - 4)
        assert got == f"{path}: not UTF-8 text (byte 0xc3 at offset {at})"

    def test_split_utf8_letter(self, monkeypatch, tmp_path):
        # a read that stops inside a two-byte letter of a comment
        lines = ["# rig 2", "depth_cm,f_surface_n,f_buried_n", "14,100,81",
                 "# Bohrände", "14,200,162"]
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = self._blocked(monkeypatch, _CSV_READERS["samples"][0], path,
                            _offset(lines, 4) + len("# Bohr") + 1)
        assert got.tolist() == [[14, 100, 81], [14, 200, 162]]

    @pytest.mark.parametrize("into", [0, 3])
    def test_empty_marker_cell(self, monkeypatch, tmp_path, schema, into):
        markers = _make_markers(schema, n=30)
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        lines = path.read_text().split("\n")
        cells = lines[19].split(",")
        cells[1] = cells[-1] = ""  # a row's first and last marker cells
        lines[19] = ",".join(cells)
        path.write_text("\n".join(lines))
        got = self._blocked(monkeypatch, _CSV_READERS["markers"][0], path,
                            _offset(lines, 20) + into)
        assert np.isnan(got[18, [1, -1]]).all()
        assert np.count_nonzero(np.isnan(got)) == 2

    @pytest.mark.parametrize("spoiled", [False, True])
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_read_stops_after_a_cr(self, monkeypatch, tmp_path, newline,
                                   spoiled):
        # the first read ends on the CR that ends line 19; the row after it
        # is read, or named in an error, as in an LF file
        lines = _grf_lines()
        if spoiled:
            cells = lines[19].split(",")
            cells[1] = "x1"
            lines[19] = ",".join(cells)
        path = tmp_path / "g.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        read = _CSV_READERS["grf"][0]
        got = self._blocked(monkeypatch, read, path,
                            _offset(lines, 20, newline) - len(newline) + 1)
        if spoiled:
            assert got == f"{path}:20: non-numeric field 'x1' in column fx"
        else:
            lf = tmp_path / "lf.csv"
            lf.write_text("\n".join(lines) + "\n")
            assert np.array_equal(got, read(lf))


class TestGrfIo:
    def test_round_trip(self, tmp_path, rng):
        n = 7
        grf = GrfData(time=np.arange(n) * 0.001,
                      force=rng.normal(size=(n, 3)),
                      moment=rng.normal(size=(n, 3)),
                      cop=rng.normal(size=(n, 2)))
        path = tmp_path / "g.csv"
        write_grf_file(path, grf)
        back = read_grf_file(path)
        np.testing.assert_allclose(back.force, grf.force, atol=1e-9)
        np.testing.assert_allclose(back.moment, grf.moment, atol=1e-9)
        np.testing.assert_allclose(back.cop, grf.cop, atol=1e-9)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("time,fx,fy,fz\n0,1,2,3\n")
        with pytest.raises(FormatError, match="expected header"):
            read_grf_file(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("time,fx,fy,fz,mx,my,mz,copx,copy\n"
                        "0,0,0,0,0,0,0,0,0\n"
                        "0.001,0,0,oops,0,0,0,0,0\n")
        with pytest.raises(FormatError, match=":3:"):
            read_grf_file(path)

    def test_empty_cell_is_an_error(self, tmp_path):
        # only marker files read an empty cell as missing
        path = tmp_path / "g.csv"
        path.write_text("time,fx,fy,fz,mx,my,mz,copx,copy\n"
                        "0,0,0,0,0,0,0,0,0\n"
                        "0.001,0,0,,0,0,0,0,0\n")
        with pytest.raises(FormatError, match=":3: non-numeric field '' "
                                              "in column fz"):
            read_grf_file(path)


class TestWriterRoundTrip:
    # values well inside the 9-decimal precision, so reading back and
    # rewriting reproduces every digit
    finite = st.floats(-3000.0, 3000.0)
    cells = st.one_of(finite, st.just(np.nan))  # NaN: a missing marker

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 6), st.just(54)),
                  elements=cells))
    def test_markers(self, tmp_path_factory, table):
        schema = MarkerSchema.default()
        markers = MarkerData(time=np.arange(len(table)) * 0.01, pos={
            label: table[:, 3 * k:3 * k + 3]
            for k, label in enumerate(schema.labels)})
        d = tmp_path_factory.mktemp("rt")
        write_marker_file(d / "a.csv", markers)
        if not len(table):
            assert (d / "a.csv").read_text().count("\n") == 1
        if len(table) < 2:  # a trial file needs two rows to be read back
            with pytest.raises(FormatError, match="at least two are needed"):
                read_marker_file(d / "a.csv", schema)
            return
        write_marker_file(d / "b.csv", read_marker_file(d / "a.csv", schema))
        assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(8)),
                  elements=finite))  # a GRF file holds no NaN
    def test_grf(self, tmp_path_factory, table):
        grf = GrfData(time=np.arange(len(table)) * 0.001, force=table[:, :3],
                      moment=table[:, 3:6], cop=table[:, 6:])
        d = tmp_path_factory.mktemp("rt")
        write_grf_file(d / "a.csv", grf)
        if len(table) < 2:  # a trial file needs two rows to be read back
            with pytest.raises(FormatError, match="at least two are needed"):
                read_grf_file(d / "a.csv")
            return
        write_grf_file(d / "b.csv", read_grf_file(d / "a.csv"))
        assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()


class TestRowBlocks:
    """The writers format ``CELL_BLOCK`` cells at a time, in whole rows; the
    bytes are those of one printf pass over the whole table."""

    def test_markers(self, tmp_path, schema):
        block = CELL_BLOCK // (1 + 3 * len(schema.labels))  # rows
        n = 2 * block + 7
        markers = _make_markers(schema, n=n)
        labels = sorted(markers.pos)
        for row in (0, block - 1, block, n - 1):  # block edges
            markers.pos[labels[row % len(labels)]][row] = np.nan
        markers.pos[labels[-1]][block - 1] = np.nan  # ends a block
        write_marker_file(tmp_path / "m.csv", markers)
        table = np.column_stack([markers.time] + [markers.pos[l] for l in labels])
        rows = format_rows("%.6f" + ",%.9f" * (3 * len(labels)) + "\n", table)
        header = ",".join(["time"] + [f"{l}_{ax}" for l in labels for ax in "xyz"])
        assert (tmp_path / "m.csv").read_bytes() == (
            header + "\n" + rows.replace(",nan", ",")).encode()

    @pytest.mark.parametrize("cells", [CELL_BLOCK, 4],
                             ids=["cell_block", "row_wider_than_block"])
    def test_grf(self, tmp_path, rng, monkeypatch, cells):
        # a row wider than the block is written one row at a time
        monkeypatch.setattr(ingest, "CELL_BLOCK", cells)
        block = max(1, cells // 9)
        table = rng.normal(size=(2 * block + 7, 9))
        with _printf_calls() as calls:
            write_grf_file(tmp_path / "g.csv", GrfData(
                time=table[:, 0], force=table[:, 1:4], moment=table[:, 4:7],
                cop=table[:, 7:]))
        assert not calls  # every block by the %.Nf kernel
        rows = format_rows("%.6f" + ",%.9f" * 8 + "\n", table)
        assert (tmp_path / "g.csv").read_bytes() == (
            ",".join(GRF_COLUMNS) + "\n" + rows).encode()


def _printf(row_format, table):
    """The oracle: printf itself, over every cell of ``table``."""
    return (row_format * len(table)) % tuple(table.ravel().tolist())


@st.composite
def _near_half(draw):
    """A double a few ulps from (k + 1/2)/10^N: its product by 10^N may
    round onto the half without being it, or be a true half."""
    n, k = draw(st.integers(0, 9)), draw(st.integers(0, 10 ** 6))
    x = (k + 0.5) / 10 ** n
    x += draw(st.integers(-3, 3)) * np.spacing(x)
    return -x if draw(st.booleans()) else x


class TestFixedKernel:
    """``format_rows`` formats tables of ``%.Nf`` cells without printf; its
    bytes are printf's, ties, signed zeros and non-finite cells included."""

    cells = st.one_of(
        st.floats(-1e6, 1e6),
        st.floats(-1e-9, 0.0),  # -0.0 and negatives that round to zero
        st.builds(lambda m, j: m / 2.0 ** j,  # exact ties among them
                  st.integers(-2 ** 20, 2 ** 20), st.integers(0, 30)),
        _near_half(),
        st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))
    formats = st.lists(st.integers(0, 9), min_size=1, max_size=6).map(
        lambda ns: ",".join(f"%.{n}f" for n in ns) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(formats, st.data())
    def test_matches_printf(self, row_format, data):
        table = data.draw(arrays(np.float64, st.tuples(
            st.integers(1, 12), st.just(row_format.count("%"))),
            elements=self.cells))
        with _printf_calls() as calls:
            assert format_rows(row_format, table) == _printf(row_format, table)
        assert calls == []

    def test_ties_and_signed_zeros(self):
        # 2^-10 and the %.0f halves are exact ties, printed half-even;
        # 2.5e-9 and 1.5e-9 are not, though 10^9 times each rounds to a half
        table = np.array([[0.0009765625, 2.5e-9, 0.5],
                          [-0.0009765625, -1.5e-9, 2.5],
                          [-4e-10, np.nan, -0.0],
                          [1234.5, 1e6, -np.inf]])
        row_format = "%.9f,%.9f,%.0f\n"
        with _printf_calls() as calls:
            rows = format_rows(row_format, table)
        assert rows == ("0.000976562,0.000000003,0\n"
                        "-0.000976562,-0.000000001,2\n"
                        "-0.000000000,nan,-0\n"
                        "1234.500000000,1000000.000000000,-inf\n")
        assert rows == _printf(row_format, table) and calls == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.lists(st.integers(-4, 4), min_size=1,
                                       max_size=4), st.booleans())
    def test_the_exact_limit(self, n, steps, negative):
        # cells a few ulps either side of 2^53 / 10^N: a table whose
        # products are all below 2^53 takes the kernel, others printf
        edge = 2.0 ** 53 / 10 ** n
        table = np.array([[edge + s * np.spacing(edge)] for s in steps])
        table = -table if negative else table
        with _printf_calls() as calls:
            assert format_rows(f"%.{n}f\n", table) == _printf(f"%.{n}f\n", table)
        assert bool(calls) == bool((np.abs(table) * 10.0 ** n >= 2 ** 53).any())

    def test_other_formats_take_printf(self):
        table = np.array([[1.25, 2.0]])
        with _printf_calls() as calls:
            for row_format in ("%.9g,%.9f\n", "%.6f,%d\n", "%.6f,%%%.2f\n",
                               "%.10f,%.9f\n", "t=%.2f,%.2f\n"):
                assert format_rows(row_format, table) == _printf(row_format, table)
            assert format_rows("%s,%.3f\n", np.array([["a", 1.5]], dtype=object)) \
                == "a,1.500\n"
            assert format_rows("%.3f\n", np.array([[1]])) == "1.000\n"
        assert len(calls) == 7


@contextlib.contextmanager
def _printf_calls():
    """The tables ``format_rows`` hands to printf while the block runs."""
    calls, real = [], ingest._printf_rows

    def printf(row_format, table):
        calls.append(table)
        return real(row_format, table)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ingest, "_printf_rows", printf)
        yield calls


def test_failed_write_leaves_the_target(tmp_path, monkeypatch, rng):
    path = tmp_path / "g.csv"
    path.write_bytes(b"old\n")
    calls, real = [], ingest.format_rows

    def format_rows(row_format, table):  # fails on the second block
        calls.append(len(table))
        if len(calls) == 2:
            raise OSError("disk full")
        return real(row_format, table)

    monkeypatch.setattr(ingest, "format_rows", format_rows)
    block = CELL_BLOCK // 9  # rows of nine cells
    table = rng.normal(size=(2 * block, 9))
    with pytest.raises(OSError, match="disk full"):
        write_grf_file(path, GrfData(time=table[:, 0], force=table[:, 1:4],
                                     moment=table[:, 4:7], cop=table[:, 7:]))
    assert calls == [block, block]
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]


#: a call that writes a file: Path.write_text/write_bytes, os.replace, or
#: open() with a write, append, create or update mode
_FILE_WRITE = re.compile(r"""\.write_(?:text|bytes)\(|\bos\.replace\b"""
                         r"""|\bopen\([^)]*["'](?=[rbt]*[wax+])[rwabxt+]+["']""")


def test_only_ingest_writes_files():
    # every output file goes through ingest's atomic UTF-8 writers
    src = Path(ingest.__file__).parent
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "ingest.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if _FILE_WRITE.search(line)]
    assert found == []


#: a call that reads a file: Path.read_bytes/read_text, open() without a
#: write, append, create or update mode, or a numpy or json file loader
_FILE_READ = re.compile(r"""\.read_(?:bytes|text)\(|\bjson\.load\("""
                        r"""|\bnp\.(?:loadtxt|genfromtxt|fromfile|load)\("""
                        r"""|\bopen\((?![^)]*["'][rbt]*[wax+])""")


def _enclosing_functions(path: Path) -> dict[int, str]:
    """The innermost function (``Class.method``) holding each source line."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                for n in range(child.lineno, child.end_lineno + 1):
                    owner[n] = name
                name += "."
            visit(child, name)

    visit(ast.parse(path.read_text()), "")
    return owner


def test_user_files_read_in_three_places():
    # every input file is read by errors.read_text (read_json and
    # read_json_as go through it) or ingest.read_csv_table, and only the
    # resolution of a config's input files reads bytes of its own, which it
    # hashes and hands to those readers: no reader gets a private decoder
    src = Path(ingest.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        owner = _enclosing_functions(path)
        found |= {f"{path.stem}.{owner.get(n)}" for n, line
                  in enumerate(path.read_text().splitlines(), 1)
                  if _FILE_READ.search(line)}
    assert found == {"errors.read_text", "ingest.read_csv_table",
                     "pipeline.RunConfig.inputs"}


def test_marker_file_is_utf8_under_the_c_locale(tmp_path):
    # the readers take UTF-8 only, so the writers must not use the locale's
    # encoding; the label is escaped so that the C locale decodes argv
    path = tmp_path / "m.csv"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(__file__).resolve().parent.parent / "src"),
                    os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", f"""
import numpy as np
from sandgait.ingest import MarkerData, write_marker_file
write_marker_file({str(path)!r}, MarkerData(
    np.zeros(1), {{"Zo\\u00eb-heel": np.zeros((1, 3))}}))
"""], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes().split(b"\n")[0] == (
        "time,Zo\u00eb-heel_x,Zo\u00eb-heel_y,Zo\u00eb-heel_z".encode("utf-8"))


class TestMeta:
    def test_round_trip(self, tmp_path, participant):
        meta = TrialMeta(participant=participant, terrain="sand",
                         sand_depth=14.0, sync_offset=0.25)
        path = tmp_path / "meta.json"
        write_meta_file(path, meta)
        back = read_meta_file(path)
        assert back == meta

    def test_sand_requires_depth(self, participant):
        with pytest.raises(ConfigurationError, match="sand_depth"):
            TrialMeta(participant=participant, terrain="sand")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(terrain="sand", sand_depth=-3.0), "sand_depth_cm must be > 0"),
        (dict(terrain="sand", sand_depth=math.nan), "sand_depth_cm must be > 0"),
        (dict(terrain="solid", sync_offset=math.inf),
         "sync_offset_s must be finite"),
    ], ids=["negative_depth", "nan_depth", "infinite_offset"])
    def test_numbers_checked(self, participant, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            TrialMeta(participant=participant, **kwargs)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["participant"].update(mass_kg=-3),
         r"mass must be > 0, got -3$"),
        (lambda m: m.update(terrain="sand", sand_depth_cm=-3),
         r"sand_depth_cm must be > 0, got -3$"),
    ], ids=["mass", "sand_depth"])
    def test_numbers_quoted_as_given(self, tmp_path, participant, edit,
                                     message):
        path = tmp_path / "meta.json"
        write_meta_file(path, TrialMeta(participant=participant,
                                        terrain="solid"))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=message):
            read_meta_file(path)

    def test_stores_floats(self, participant):
        meta = TrialMeta(participant=participant, terrain="sand",
                         sand_depth=14, sync_offset=0)
        assert (meta.sand_depth, meta.sync_offset) == (14.0, 0.0)
        assert type(meta.sand_depth) is float
        assert type(meta.sync_offset) is float

    def test_each_key_checked_once(self, tmp_path, participant, monkeypatch):
        # the values of a meta.json are checked where the types are built,
        # and nowhere else
        path = tmp_path / "meta.json"
        write_meta_file(path, TrialMeta(participant=participant,
                                        terrain="sand", sand_depth=14.0,
                                        sync_offset=0.25))
        keys = []

        def recording(key, value, rule=None):
            keys.append(key)
            return check_number(key, value, rule)

        monkeypatch.setattr(model, "check_number", recording)
        monkeypatch.setattr(ingest, "check_number", recording)
        read_meta_file(path)
        assert sorted(keys) == ["participant 'p01': height",
                                "participant 'p01': mass",
                                "sand_depth_cm", "sync_offset_s"]

    def test_unknown_terrain(self, participant):
        with pytest.raises(ConfigurationError, match="terrain"):
            TrialMeta(participant=participant, terrain="grass")

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text('{"participant": {"id": "x", "height_m": 1.7}}')
        with pytest.raises(ConfigurationError, match="mass_kg"):
            read_meta_file(path)

    @pytest.mark.parametrize("text, message", [
        ('{"participant": {"id": "x", "height_m": 1.7, "mass_kg": "heavy"},'
         ' "terrain": "solid"}',
         "participant 'x': mass must be a number, got 'heavy'"),
        ('{"participant": {"id": "x", "height_m": null, "mass_kg": 70},'
         ' "terrain": "solid"}',
         "participant 'x': height must be a number, got None"),
        ('{"participant": {"id": "x", "height_m": 1.7, "mass_kg": 70},'
         ' "terrain": "sand", "sand_depth_cm": [14]}',
         r"sand_depth_cm must be a number, got \[14\]"),
        ('[1, 2]', "malformed metadata"),
        ('{"participant": [1.7, 70], "terrain": "solid"}',
         "malformed metadata"),
    ], ids=["mass_text", "height_null", "depth_list", "list", "participant_list"])
    def test_malformed_names_path(self, tmp_path, text, message):
        path = tmp_path / "meta.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=message) as exc:
            read_meta_file(path)
        assert str(path) in str(exc.value)


@pytest.mark.parametrize("reader, error", [
    (read_grf_file, FormatError),
    (read_meta_file, FormatError),
    (RunConfig.from_file, ConfigurationError),
    (MarkerSchema.from_file, ConfigurationError),
    (AnthropometricTable.from_file, ConfigurationError),
], ids=["grf", "meta", "config", "schema", "anthropometry"])
def test_non_utf8_file_names_path_and_offset(tmp_path, reader, error):
    path = tmp_path / "input.txt"
    head = "time,fx\n0.0,".encode()
    path.write_bytes(head + b"\xff\xfe1\n")
    with pytest.raises(error) as exc:
        reader(path)
    assert str(exc.value) == (f"{path}: not UTF-8 text "
                              f"(byte 0xff at offset {len(head)})")


class TestFillGaps:
    def test_short_gap_cubic_exact(self, schema):
        # interior gaps up to max_gap are filled; cubic interpolation is
        # exact on cubic trajectories
        markers = _make_markers(schema, n=40)
        t = markers.time
        truth = np.stack([t ** 3, 2 * t ** 2, 1 + t], axis=1)
        markers.pos["L-heel"] = truth.copy()
        markers.pos["L-heel"][10:14] = np.nan
        filled = fill_gaps(markers, max_gap=5)
        np.testing.assert_allclose(filled.pos["L-heel"], truth, atol=1e-9)

    def test_long_gap_left_missing(self, schema):
        markers = _make_markers(schema, n=40)
        markers.pos["L-heel"][10:20] = np.nan
        filled = fill_gaps(markers, max_gap=5)
        assert np.isnan(filled.pos["L-heel"][12]).all()

    def test_edge_gap_left_missing(self, schema):
        markers = _make_markers(schema, n=40)
        markers.pos["L-heel"][:3] = np.nan
        markers.pos["L-heel"][-2:] = np.nan
        filled = fill_gaps(markers, max_gap=5)
        assert np.isnan(filled.pos["L-heel"][0]).all()
        assert np.isnan(filled.pos["L-heel"][-1]).all()

    # a mask as runs of (missing?, length), padded to n frames by one more
    # run: edge runs, runs longer than max_gap, masks with fewer than four
    # valid points and all-NaN ones
    mask = st.tuples(st.lists(st.tuples(st.booleans(), st.integers(1, 8)),
                              max_size=6), st.booleans())
    # a hidden marker loses all three coordinates: one mask per marker, for
    # each column, with one column's mask sometimes drawn on its own
    marker = st.tuples(mask, st.none() | st.tuples(st.integers(0, 2), mask))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.lists(marker, min_size=2, max_size=2),
           st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
    # three valid points around a one-frame gap: linear, as cubic needs four;
    # in one column, then in all three (one k=1 spline through the three
    # columns would round differently from np.interp per column)
    @example(6, [(([], False), (0,([(False, 1), (True, 1), (False, 2)], True))),
                 (([], False), None)], 2, 0)
    @example(6, [(([(False, 1), (True, 1), (False, 2)], True), None),
                 (([], False), None)], 2, 0)
    def test_matches_per_gap_loop(self, n, markers, max_gap, seed):
        def missing(runs, pad):
            return np.concatenate([np.full(length, m) for m, length in runs]
                                  + [np.full(n, pad)])[:n]

        rng = np.random.default_rng(seed)
        pos = {"a": rng.normal(size=(n, 3)), "b": rng.normal(size=(n, 3))}
        for label, (shared, own) in zip(pos, markers):
            miss = np.repeat(missing(*shared)[:, None], 3, axis=1)
            if own is not None:
                miss[:, own[0]] = missing(*own[1])
            pos[label][miss] = np.nan
        markers = MarkerData(time=np.arange(n) * 0.01, pos=pos)
        got, want = fill_gaps(markers, max_gap), _fill_gaps_loop(markers, max_gap)
        for label in pos:
            assert got.pos[label].tobytes() == want.pos[label].tobytes()

    def test_one_spline_per_marker_mask(self, schema, monkeypatch):
        # columns that share a missing mask share one spline build
        import scipy.interpolate
        built = []
        make = scipy.interpolate.make_interp_spline

        def counting(x, y, *args, **kwargs):
            built.append(np.shape(y)[1:])
            return make(x, y, *args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "make_interp_spline", counting)
        markers = _make_markers(schema, n=40)
        markers.pos["L-heel"][10:13] = np.nan      # whole marker: one spline
        markers.pos["R-heel"][20:22] = np.nan      # x and y share a mask,
        markers.pos["R-heel"][30, 2] = np.nan      # z has its own
        markers.pos["L-toe"][5:15] = np.nan        # too long: none
        filled = fill_gaps(markers)
        assert sorted(built) == [(1,), (2,), (3,)]
        assert not np.isnan(filled.pos["L-heel"]).any()
        assert not np.isnan(filled.pos["R-heel"]).any()

    def test_input_not_mutated(self, schema):
        markers = _make_markers(schema, n=40)
        markers.pos["L-heel"][10:12] = np.nan
        fill_gaps(markers)
        assert np.isnan(markers.pos["L-heel"][10]).all()

    def test_copies_only_filled_markers(self, schema):
        # a marker with nothing filled, one whose gap is too long among
        # them, is the input's own array; a filled one is a copy
        markers = _make_markers(schema, n=40)
        markers.pos["L-heel"][10:12] = np.nan
        markers.pos["L-toe"][5:15] = np.nan
        filled = fill_gaps(markers)
        assert filled.time is markers.time
        assert [label for label in schema.labels
                if filled.pos[label] is not markers.pos[label]] == ["L-heel"]


class TestTimeGrid:
    """Each trial file's times lie on one grid: a step more than half the
    median step off it is an error naming its line."""

    @pytest.mark.parametrize("dropped, step", [(1, 0.02), (3, 0.04)])
    def test_dropped_marker_rows(self, tmp_path, schema, dropped, step):
        markers = _make_markers(schema, n=20)
        keep = np.r_[0:8, 8 + dropped:20]
        path = tmp_path / "m.csv"
        write_marker_file(path, MarkerData(markers.time[keep], {
            label: pos[keep] for label, pos in markers.pos.items()}))
        with pytest.raises(FormatError) as exc:
            read_marker_file(path, schema)
        assert str(exc.value) == (f"{path}:10: time step {step:g} s, "
                                  f"median 0.01 s")

    @pytest.mark.parametrize("time, line, step", [
        (np.r_[0:12, 13:40] * 0.001, 14, 0.002),
        (np.r_[np.arange(12), 11.4, np.arange(12, 40)] * 0.001, 14, 0.0004),
    ], ids=["dropped_row", "inserted_row"])
    def test_grf_holes(self, tmp_path, time, line, step):
        n = len(time)
        path = tmp_path / "grf.csv"
        write_grf_file(path, GrfData(time, np.ones((n, 3)), np.zeros((n, 3)),
                                     np.zeros((n, 2))))
        with pytest.raises(FormatError) as exc:
            read_grf_file(path)
        assert str(exc.value) == (f"{path}:{line}: time step {step:g} s, "
                                  f"median 0.001 s")

    def test_rounded_timestamps_pass(self, tmp_path, schema):
        # 120 Hz written with six decimals: steps of 0.008333 and 0.008334
        markers = _make_markers(schema, n=240, dt=1 / 120)
        path = tmp_path / "m.csv"
        write_marker_file(path, markers)
        np.testing.assert_allclose(read_marker_file(path, schema).time,
                                   markers.time, atol=5e-7)


class TestAlign:
    def _streams(self, grf_values, n_markers=20, ratio=10):
        markers = _make_markers(MarkerSchema.default(), n=n_markers, dt=0.01)
        ng = n_markers * ratio
        grf = GrfData(time=np.arange(ng) * 0.001,
                      force=np.column_stack([grf_values, -grf_values,
                                             2 * grf_values]),
                      moment=np.column_stack([grf_values, 3 * grf_values,
                                              grf_values]),
                      cop=np.column_stack([4 * grf_values, grf_values]))
        return markers, grf

    def test_constant_exact(self):
        plate, covered = align_streams(*self._streams(np.full(200, 5.0)))
        # F_x, F_z, M_y and COP x
        np.testing.assert_allclose(
            plate[covered], np.tile([5.0, 10.0, 15.0, 20.0], (19, 1)),
            atol=1e-12)

    def test_boxcar_mean_matches_hand_window(self):
        # 10:1 decimation: each marker frame gets the mean of the ten raw
        # samples in its window (4 before the centre, 5 after)
        values = np.arange(200, dtype=float) ** 2 / 100.0
        plate, _ = align_streams(*self._streams(values))
        i = 5  # an interior frame, centred on raw sample 50
        expected = values[46:56].mean()
        assert plate[i, 1] == pytest.approx(2 * expected, rel=1e-12)
        assert plate[i, 3] == pytest.approx(4 * expected, rel=1e-12)

    def test_frames_without_coverage_nan(self):
        markers, grf = self._streams(np.full(200, 1.0))
        plate, covered = align_streams(markers, grf)
        # the first marker frame (t=0) lacks 4 leading raw samples; the
        # last (t=0.19 s) has its 5 trailing ones
        assert covered.tolist() == [False] + [True] * 19
        assert plate.shape == (20, 4)
        assert np.isnan(plate[0]).all() and not np.isnan(plate[1:]).any()

    def test_no_overlap(self):
        markers, grf = self._streams(np.full(200, 1.0))
        grf.time += 100.0
        with pytest.raises(AlignmentError, match="no marker frame has full "
                                                 "GRF window coverage"):
            align_streams(markers, grf)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ratio=st.integers(1, 12), n=st.integers(3, 30),
           start=st.integers(-30, 30),
           line=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_linear_stream_at_every_ratio(self, ratio, n, start, line):
        # a stream linear in time averages to the line at each covered
        # frame: at the frame time for an odd ratio, half a raw sample
        # later for an even one (the window leans ahead)
        dt = 0.001
        marker_time = np.arange(n) * (ratio * dt)
        grf_time = (start + np.arange(n * ratio + 20)) * dt
        a, b = line
        values = a + b * grf_time
        markers = MarkerData(marker_time, {})
        grf = GrfData(grf_time, np.column_stack([values] * 3),
                      np.column_stack([values] * 3),
                      np.column_stack([values] * 2))
        covered, rows = plate_windows(marker_time, grf_time)
        assert rows.shape == (covered.sum(), ratio)
        if not covered.any():
            return
        plate, mask = align_streams(markers, grf)
        assert (mask == covered).all()
        at = marker_time[covered] + (dt / 2 if ratio % 2 == 0 else 0.0)
        for k in range(4):
            np.testing.assert_allclose(plate[covered, k], a + b * at,
                                       rtol=1e-9, atol=1e-9 * (1 + abs(b)))


class TestPlateCoverage:
    """``parse_trial`` holds the GRF file to the window rule: every marker
    frame but the first and the last gets a full window after the sync
    offset, or the GRF file is malformed, named with both spans."""

    @pytest.fixture
    def trial_files(self, tmp_path, participant):
        markers = _make_markers(MarkerSchema.default(), n=20, dt=0.01)
        write_marker_file(tmp_path / "markers.csv", markers)
        ng = 200
        grf = GrfData(np.arange(ng) * 0.001, np.ones((ng, 3)),
                      np.zeros((ng, 3)), np.zeros((ng, 2)))

        def parse(rows=slice(None), sync_offset=0.0):
            write_grf_file(tmp_path / "grf.csv", GrfData(
                grf.time[rows], grf.force[rows], grf.moment[rows],
                grf.cop[rows]))
            return parse_trial(
                tmp_path / "markers.csv", tmp_path / "grf.csv",
                TrialMeta(participant, "solid", sync_offset=sync_offset),
                MarkerSchema.default())
        return parse

    def test_first_frame_may_lack_its_window(self, trial_files):
        # frame 0 lacks the 4 samples before t = 0; a stream that stops at
        # 0.19 s leaves the last frame without its 5 after
        assert len(trial_files().grf) == 200
        assert len(trial_files(slice(0, 191)).grf) == 191

    @pytest.mark.parametrize("rows, sync_offset, spans, at", [
        (slice(0, 5), 0.0, "[0, 0.004] s", 0.01),
        (slice(0, 10), 0.0, "[0, 0.009] s", 0.01),
        (slice(0, 108), 0.0, "[0, 0.107] s", 0.11),
        (slice(30, 200), 0.0, "[0.03, 0.199] s", 0.01),
        (slice(None), 1000.0, "[1000, 1000.2] s", 0.01),
    ], ids=["five_rows", "ten_rows", "ends_early", "starts_late",
            "sync_offset"])
    def test_uncovered_frame_names_grf_file(self, tmp_path, trial_files,
                                            rows, sync_offset, spans, at):
        with pytest.raises(FormatError) as exc:
            trial_files(rows, sync_offset)
        assert str(exc.value) == (
            f"{tmp_path / 'grf.csv'}: GRF span {spans} does not cover marker "
            f"span [0, 0.19] s: no full window for the marker frame at "
            f"{at:g} s")
