import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import interp1d

from sandgait.errors import (AlignmentError, ConfigurationError, FormatError,
                             SchemaError)
from sandgait.ingest import (GrfData, MarkerData, TrialMeta, TrialRecord,
                             align_streams, fill_gaps, read_grf_file,
                             read_marker_file, read_meta_file,
                             write_grf_file, write_marker_file,
                             write_meta_file)
from sandgait.model import AnthropometricTable
from sandgait.pipeline import RunConfig
from sandgait.schema import MarkerSchema


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
        # the shank borrows the knee marker as its proximal point, the
        # foot borrows the ankle marker
        assert schema.segment_endpoints("left", "shank") == ("L-knee", "L-ankle")
        assert schema.segment_endpoints("right", "foot") == ("R-ankle", "R-toe")
        assert schema.segment_endpoints("left", "thigh") == ("L-hip", "L-knee")

    def test_pelvis_labels(self, schema):
        assert set(schema.pelvis_labels()) >= {"L-asis", "R-asis"}

    def test_eighteen_labels(self, schema):
        assert len(schema.labels) == 18


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
        write_marker_file(path, markers, label_order=schema.labels)
        fields = path.read_text().split("\n")[2].split(",")
        fields[1], fields[5] = " \t ", ""
        _rewrite_line(path, 3, ",".join(fields))
        back = read_marker_file(path, schema)
        first, second = schema.labels[0], schema.labels[1]
        assert np.isnan(back.pos[first][1, 0])
        assert np.isnan(back.pos[second][1, 1])
        assert np.count_nonzero(np.isnan(back.pos[first])) == 1
        assert back.pos[second][1, 0] == float(f"{markers.pos[second][1, 0]:.9f}")

    def test_header_only(self, tmp_path, schema):
        path = tmp_path / "m.csv"
        write_marker_file(path, _make_markers(schema, n=0))
        with pytest.raises(FormatError, match="no data rows"):
            read_marker_file(path, schema)


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
    cells = st.one_of(st.floats(-3000.0, 3000.0), st.just(np.nan))

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
            return
        write_marker_file(d / "b.csv", read_marker_file(d / "a.csv", schema))
        assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(8)),
                  elements=cells))
    def test_grf(self, tmp_path_factory, table):
        grf = GrfData(time=np.arange(len(table)) * 0.001, force=table[:, :3],
                      moment=table[:, 3:6], cop=table[:, 6:])
        d = tmp_path_factory.mktemp("rt")
        write_grf_file(d / "a.csv", grf)
        write_grf_file(d / "b.csv", read_grf_file(d / "a.csv"))
        assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()


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
         ' "terrain": "solid"}', "malformed metadata .*'heavy'"),
        ('{"participant": {"id": "x", "height_m": null, "mass_kg": 70},'
         ' "terrain": "solid"}', "malformed metadata .*NoneType"),
        ('{"participant": {"id": "x", "height_m": 1.7, "mass_kg": 70},'
         ' "terrain": "sand", "sand_depth_cm": [14]}',
         "malformed metadata .*list"),
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


class TestAlign:
    def _trial(self, participant, grf_values, n_markers=20, ratio=10):
        schema = MarkerSchema.default()
        markers = _make_markers(schema, n=n_markers, dt=0.01)
        ng = n_markers * ratio
        grf = GrfData(time=np.arange(ng) * 0.001,
                      force=np.column_stack([grf_values, grf_values,
                                             grf_values]),
                      moment=np.zeros((ng, 3)), cop=np.zeros((ng, 2)))
        meta = TrialMeta(participant=participant, terrain="solid")
        return TrialRecord(meta=meta, markers=markers, grf=grf)

    def test_constant_exact(self, participant):
        trial = self._trial(participant, np.full(200, 5.0))
        out = align_streams(trial)
        assert out.grf_aligned is not None
        np.testing.assert_allclose(out.grf_aligned.force[:, 2], 5.0,
                                   atol=1e-12)

    def test_boxcar_mean_matches_hand_window(self, participant):
        # 10:1 decimation: each marker frame gets the mean of the ten raw
        # samples in its centred window (4 before, 5 after)
        values = np.arange(200, dtype=float) ** 2 / 100.0
        trial = self._trial(participant, values)
        out = align_streams(trial)
        a = out.grf_aligned
        i = 5  # an interior aligned frame
        c = int(round(a.time[i] / 0.001))
        expected = values[c - 4:c + 6].mean()
        assert a.force[i, 2] == pytest.approx(expected, rel=1e-12)

    def test_frames_without_coverage_dropped(self, participant):
        trial = self._trial(participant, np.full(200, 1.0))
        out = align_streams(trial)
        # the first marker frame (t=0) lacks 4 leading raw samples
        assert out.grf_aligned.time[0] > 0.0
        assert len(out.grf_aligned) < len(trial.markers)

    def test_no_overlap(self, participant):
        trial = self._trial(participant, np.full(200, 1.0))
        trial.grf.time += 100.0
        with pytest.raises(AlignmentError, match="overlap"):
            align_streams(trial)
