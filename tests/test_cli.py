import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sandgait import ingest, synth
from sandgait.cli import main
from sandgait.pipeline import RunConfig


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "trial"
    assert main(["simulate", "--preset", "stride", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("bundle") / "b"
    code = main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                 "--grf", str(sim_dir / "grf.csv"),
                 "--meta", str(sim_dir / "meta.json"),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def gappy_bundle_dir(tmp_path_factory, sim_dir):
    """The stride trial with seeded whole-marker dropouts of 1..5 frames and
    one 3-frame gap in a single coordinate, all short enough to be filled,
    analysed."""
    trial = tmp_path_factory.mktemp("gappy")
    lines = (sim_dir / "markers.csv").read_text().split("\n")
    rows = [line.split(",") for line in lines[1:-1]]
    rng = np.random.default_rng(14)
    taken: dict[int, list[tuple[int, int]]] = {}

    def free_run(marker, length):
        # 10 frames from either end and from the marker's other gaps
        while True:
            start = int(rng.integers(10, len(rows) - 10 - length))
            if all(start + length + 10 <= s or e + 10 <= start
                   for s, e in taken.setdefault(marker, [])):
                taken[marker].append((start, start + length))
                return rows[start:start + length]

    for g in range(24):
        marker = int(rng.integers(len(lines[0].split(",")) // 3))
        for row in free_run(marker, 1 + g % 5):
            row[1 + 3 * marker:4 + 3 * marker] = ["", "", ""]
    for row in free_run(marker, 3):
        row[2 + 3 * marker] = ""
    (trial / "markers.csv").write_text(
        "\n".join([lines[0]] + [",".join(r) for r in rows] + [""]))
    out = tmp_path_factory.mktemp("gappy_bundle") / "b"
    assert main(["analyze", "--markers", str(trial / "markers.csv"),
                 "--grf", str(sim_dir / "grf.csv"),
                 "--meta", str(sim_dir / "meta.json"),
                 "--out", str(out)]) == 0
    return out


#: the plate-side knee marker hidden for frames [80, 88) of the stride
#: trial: longer than ``max_gap_frames``, so the gap is left NaN
UNFILLED_GAP = ("R-knee", 80, 88)


@pytest.fixture(scope="module")
def unfilled_gap_bundle_dir(tmp_path_factory, sim_dir):
    """The stride trial with one interior leg-joint gap too long to fill,
    analysed: its NaN frames go through the smoother into the bundle."""
    trial = tmp_path_factory.mktemp("unfilled")
    lines = (sim_dir / "markers.csv").read_text().split("\n")
    label, start, stop = UNFILLED_GAP
    col = lines[0].split(",").index(f"{label}_x")
    for i in range(1 + start, 1 + stop):
        cells = lines[i].split(",")
        cells[col:col + 3] = ["", "", ""]
        lines[i] = ",".join(cells)
    (trial / "markers.csv").write_text("\n".join(lines))
    out = tmp_path_factory.mktemp("unfilled_bundle") / "b"
    assert main(["analyze", "--markers", str(trial / "markers.csv"),
                 "--grf", str(sim_dir / "grf.csv"),
                 "--meta", str(sim_dir / "meta.json"),
                 "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_files_emitted(self, sim_dir):
        for name in ("markers.csv", "grf.csv", "meta.json", "profile.json",
                     "truth_events.csv", "truth_moments.csv"):
            assert (sim_dir / name).exists(), name

    def test_standing_grf_constant(self, tmp_path):
        out = tmp_path / "standing"
        assert main(["simulate", "--preset", "standing",
                     "--out", str(out)]) == 0
        rows = (out / "grf.csv").read_text().splitlines()[1:]
        fz = np.array([float(r.split(",")[3]) for r in rows])
        np.testing.assert_allclose(fz, 74.5 * 9.81, rtol=1e-9)


class TestAnalyze:
    def test_bundle_contents(self, bundle_dir):
        for name in ("meta.json", "events.csv", "angles_cycle.csv",
                     "moments.csv", "moments_stance.csv", "grf_stance.csv",
                     "knee_loop.csv", "stride_metrics.csv", "features.json"):
            assert (bundle_dir / name).exists(), name

    def test_config_hash_embedded_everywhere(self, bundle_dir):
        h = json.loads((bundle_dir / "meta.json").read_text())["config_hash"]
        assert h == RunConfig().config_hash()
        for path in bundle_dir.glob("*.csv"):
            assert path.read_text().splitlines()[0] == f"# config_hash={h}"
        feats = json.loads((bundle_dir / "features.json").read_text())
        assert feats["config_hash"] == h

    def test_rerun_byte_identical(self, sim_dir, bundle_dir, tmp_path):
        out = tmp_path / "again"
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--out", str(out)]) == 0
        for path in sorted(bundle_dir.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), \
                path.name

    def test_missing_input_exits_one(self, sim_dir, tmp_path):
        assert main(["analyze", "--markers", "/nonexistent.csv",
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--out", str(tmp_path / "x")]) == 1

    def test_sand_without_depth_exits_one(self, sim_dir, tmp_path):
        meta = json.loads((sim_dir / "meta.json").read_text())
        meta["terrain"] = "sand"
        meta.pop("sand_depth_cm", None)
        bad = tmp_path / "meta.json"
        bad.write_text(json.dumps(meta))
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(bad),
                     "--out", str(tmp_path / "x")]) == 1

    def test_processing_failure_exits_two(self, sim_dir, tmp_path):
        # push the force-plate stream out of overlap: an alignment failure,
        # not an input-format one
        meta = json.loads((sim_dir / "meta.json").read_text())
        meta["sync_offset_s"] = 1000.0
        bad = tmp_path / "meta.json"
        bad.write_text(json.dumps(meta))
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(bad),
                     "--out", str(tmp_path / "x")]) == 2

    def test_biased_plate_skips_grf_features(self, sim_dir, tmp_path, caplog):
        # 300 N on every fx cell: both fx peaks forward, a valid record
        lines = (sim_dir / "grf.csv").read_text().split("\n")
        for i in range(1, len(lines) - 1):
            cells = lines[i].split(",")
            cells[1] = f"{float(cells[1]) + 300:.9f}"
            lines[i] = ",".join(cells)
        (tmp_path / "grf.csv").write_text("\n".join(lines))
        out = tmp_path / "b"
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(tmp_path / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--out", str(out)]) == 0
        assert (out / "grf_stance.csv").exists()
        assert "grf" not in json.loads((out / "features.json").read_text())
        warning = "GRF features not computed: fx peaks must straddle zero"
        assert warning in json.loads((out / "meta.json").read_text())["warnings"]
        assert warning in caplog.text

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus"])
        assert exc.value.code == 1

    def test_bad_config_key_exits_one(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"not_a_knob": 1}')
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1


def _run_python(*args, text=True, **env):
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=text, env=env, timeout=120)


def _run_cli(*argv, **kw):
    return _run_python("-m", "sandgait.cli", *argv, **kw)


#: the C locale, with Python's UTF-8 mode and locale coercion off: stdout
#: is ASCII and argv arrives surrogate-escaped
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


class TestCLocale:
    """Non-ASCII ids and paths under the C locale exit 0 and write UTF-8."""

    def test_analyze_escapes_the_id_it_prints(self, tmp_path):
        trial, out = tmp_path / "Zo\u00eb-trial", tmp_path / "Zo\u00eb-bundle"
        proc = _run_cli("simulate", "--out", str(trial), text=False, **C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(
            f"simulated trial written to {trial} (".encode())
        meta = json.loads((trial / "meta.json").read_text())
        meta["participant"]["id"] = "Zo\u00eb"
        (trial / "meta.json").write_text(json.dumps(meta))
        proc = _run_cli("analyze", "--markers", str(trial / "markers.csv"),
                        "--grf", str(trial / "grf.csv"),
                        "--meta", str(trial / "meta.json"), "--out", str(out),
                        text=False, **C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"analyzed Zo\\xeb (solid): ")
        assert proc.stdout.endswith(f"bundle written to {out}\n".encode())

    def test_compare_non_ascii_dirs(self, bundle_dir, tmp_path):
        a, b = tmp_path / "Zo\u00eb-a", tmp_path / "Zo\u00eb-b"
        for group in (a, b):
            for pid in ("p1", "p2"):
                _relabelled_copy(bundle_dir, group / pid, pid)

        def report(out, **env):
            proc = _run_cli("compare", "--a", str(a), "--b", str(b),
                            "--out", str(tmp_path / out), text=False, **env)
            assert proc.returncode == 0, proc.stderr
            assert sorted(p.name for p in (tmp_path / out).iterdir()) == [
                "report.csv", "report.json"]
            return (tmp_path / out / "report.csv").read_bytes()

        c = report("c", **C_LOCALE)
        assert c == report("utf8", PYTHONUTF8="1")
        assert f"a={a} b={b}\n".encode() in c


def test_simulate_and_analyze_import_no_scipy(tmp_path):
    # scipy costs most of a process's start; only gap-filling and compare
    # need it
    trial, bundle = tmp_path / "trial", tmp_path / "bundle"
    proc = _run_python("-c", f"""
import sys
from sandgait.cli import main
assert main(["simulate", "--out", {str(trial)!r}]) == 0
assert main(["analyze", "--markers", {str(trial / "markers.csv")!r},
             "--grf", {str(trial / "grf.csv")!r},
             "--meta", {str(trial / "meta.json")!r}, "--out", {str(bundle)!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _bad_marker_cell(sim, tmp):
    lines = (sim / "markers.csv").read_text().split("\n")
    fields = lines[4].split(",")
    fields[7] = "12x"
    lines[4] = ",".join(fields)
    (tmp / "markers.csv").write_text("\n".join(lines))
    return {"--markers": tmp / "markers.csv"}, "markers.csv:5:"


def _curve(name, rows, named):
    """A malformed-input case: a sand trial at 10 cm analysed with a
    calibration curve of ``rows``."""
    def fixture(sim, tmp):
        (tmp / "curve.csv").write_text("depth_cm,zeta,residual,n\n" + rows)
        return ({"--calibration": tmp / "curve.csv", "--terrain": "sand",
                 "--sand-depth": "10"}, f"curve.csv{named}")
    fixture.__name__ = name
    return fixture


def _samples(name, rows, named):
    """A malformed-input case for ``calibrate``: samples of ``rows``."""
    def fixture(sim, tmp):
        (tmp / "samples.csv").write_text("depth_cm,f_surface_n,f_buried_n\n"
                                         + rows)
        return {"--samples": tmp / "samples.csv"}, f"samples.csv{named}"
    fixture.__name__ = name
    return fixture


def _flags(name, flags, named):
    """A malformed-input case: the trial analysed with extra ``flags``."""
    def fixture(sim, tmp):
        return flags, named
    fixture.__name__ = name
    return fixture


def _heavy_meta(sim, tmp):
    meta = json.loads((sim / "meta.json").read_text())
    meta["participant"]["mass_kg"] = "heavy"
    (tmp / "meta.json").write_text(json.dumps(meta))
    return {"--meta": tmp / "meta.json"}, "'heavy'"


def _list_meta(sim, tmp):
    (tmp / "meta.json").write_text("[1, 2]\n")
    return {"--meta": tmp / "meta.json"}, "meta.json"


def _non_utf8_markers(sim, tmp):
    data = (sim / "markers.csv").read_bytes()
    at = data.index(b"\n", data.index(b"\n") + 1) + 3  # inside row 2
    (tmp / "markers.csv").write_bytes(data[:at] + b"\xff\xfe" + data[at:])
    return ({"--markers": tmp / "markers.csv"},
            f"markers.csv: not UTF-8 text (byte 0xff at offset {at})")


def _trial_cell(name, file, column, value, lines, named):
    """A malformed-input case: ``value`` in ``column`` of the trial's
    ``file`` on the given file lines (every data line if None)."""
    def fixture(sim, tmp):
        text = (sim / file).read_text().split("\n")
        col = text[0].split(",").index(column)
        for i in lines or range(2, len(text)):
            cells = text[i - 1].split(",")
            cells[col] = value
            text[i - 1] = ",".join(cells)
        (tmp / file).write_text("\n".join(text))
        return {f"--{file.split('.')[0]}": tmp / file}, f"{file}:{named}"
    fixture.__name__ = name
    return fixture


def _meta(name, edit, named):
    """A malformed-input case: the trial's meta.json changed by ``edit``."""
    def fixture(sim, tmp):
        meta = json.loads((sim / "meta.json").read_text())
        edit(meta)
        (tmp / "meta.json").write_text(json.dumps(meta))
        return {"--meta": tmp / "meta.json"}, f"meta.json: {named}"
    fixture.__name__ = name
    return fixture


def _config(name, text, named):
    """A malformed-input case: ``--config`` given a file holding ``text``."""
    def fixture(sim, tmp):
        (tmp / "cfg.json").write_text(text)
        return {"--config": tmp / "cfg.json"}, f"cfg.json: {named}"
    fixture.__name__ = name
    return fixture


def _edit_json(change):
    """A text edit that applies ``change`` to the parsed JSON document."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def _truncate(text):
    return text[:len(text) // 2]


def _bad_stride_cell(text):
    lines = text.split("\n")
    cells = lines[2].split(",")
    cells[3] = "0.4x"
    lines[2] = ",".join(cells)
    return "\n".join(lines)


def _profile(name, edit, named):
    """A malformed-input case for ``simulate``: ``--profile`` given the
    stride preset's profile.json with its text changed by ``edit``."""
    def fixture(sim, tmp):
        (tmp / "profile.json").write_text(edit((sim / "profile.json").read_text()))
        return {"--profile": tmp / "profile.json"}, f"profile.json: {named}"
    fixture.__name__ = name
    return fixture


def _bundle(name, file, edit, named):
    """A malformed-input case for ``compare``: condition A is a copy of the
    bundle with the text of ``file`` changed by ``edit``."""
    def fixture(bundle, tmp):
        shutil.copytree(bundle, tmp / "a")
        (tmp / "a" / file).write_text(edit((tmp / "a" / file).read_text()))
        return {"--a": tmp / "a", "--b": bundle}, f"{file}{named}"
    fixture.__name__ = name
    return fixture


#: (subcommand, fixture) rows; a ``compare`` fixture gets the bundle, the
#: others the ``simulate`` output.
_MALFORMED = [
    ("analyze", _bad_marker_cell),
    ("analyze", _curve("_bad_zeta_cell", "0,1,0,0\n20,0.7x,0,12\n", ":3:")),
    ("analyze", _heavy_meta), ("analyze", _list_meta),
    ("analyze", _non_utf8_markers),
    ("analyze", _trial_cell("_grf_nan_time", "grf.csv", "time", "nan", [5],
                            "5: non-finite value nan in column time")),
    ("analyze", _trial_cell("_grf_all_nan_fz", "grf.csv", "fz", "nan", None,
                            "2: non-finite value nan in column fz")),
    ("analyze", _trial_cell("_grf_inf_fz", "grf.csv", "fz", "inf", [100],
                            "100: non-finite value inf in column fz")),
    ("analyze", _trial_cell("_markers_nan_time", "markers.csv", "time", "nan",
                            [5], "5: non-finite value nan in column time")),
    ("analyze", _trial_cell("_markers_inf_cell", "markers.csv", "L-knee_z",
                            "-inf", [7],
                            "7: non-finite value -inf in column L-knee_z")),
    ("analyze", _meta("_negative_mass",
                      lambda m: m["participant"].update(mass_kg=-3),
                      "participant 'synthetic': mass must be > 0")),
    ("analyze", _meta("_nan_sand_depth",
                      lambda m: m.update(terrain="sand", sand_depth_cm=math.nan),
                      "sand_depth_cm must be > 0, got nan")),
    ("analyze", _flags("_sand_depth_flag_nan",
                       {"--terrain": "sand", "--sand-depth": "nan"},
                       "sand_depth_cm must be > 0, got nan")),
    ("analyze", _flags("_sand_depth_flag_negative",
                       {"--terrain": "sand", "--sand-depth": "-3"},
                       "sand_depth_cm must be > 0, got -3.0")),
    ("analyze", _curve("_curve_zeta_above_one", "0,1,0,0\n20,1.5,0,12\n",
                       ": zeta values must lie in (0, 1]")),
    ("analyze", _curve("_curve_nan_zeta", "0,1,0,0\n20,nan,0,12\n",
                       ":3: non-finite value nan in column zeta")),
    ("calibrate", _samples("_samples_nan_cell", "10,100,81\n10,200,nan\n",
                           ":3: non-finite value nan in column f_buried_n")),
    ("analyze", _meta("_unknown_terrain", lambda m: m.update(terrain="gravel"),
                      "unknown terrain 'gravel'")),
    ("analyze", _meta("_sand_without_depth",
                      lambda m: (m.update(terrain="sand"),
                                 m.pop("sand_depth_cm", None)),
                      "sand terrain requires sand_depth")),
    ("analyze", _config("_config_number", "5\n", "expected a JSON object")),
    ("analyze", _config("_config_window_string", '{"filter_window": "7"}',
                        "filter_window must be an integer, got '7'")),
    ("analyze", _config("_config_window_null", '{"filter_window": null}',
                        "filter_window must be an integer, got None")),
    ("analyze", _config("_config_window_bool", '{"filter_window": true}',
                        "filter_window must be an integer, got True")),
    ("analyze", _config("_config_window_even", '{"event_filter_window": 4}',
                        "event_filter_window must be odd and >= 1, got 4")),
    ("analyze", _config("_config_negative_threshold",
                        '{"plate_threshold_bw": -0.5}',
                        "plate_threshold_bw must be >= 0, got -0.5")),
    ("analyze", _config("_config_huge_integer",
                        '{"gravity": 1%s}' % ("0" * 400),
                        "malformed config (int too large to convert to "
                        "float)")),
    ("simulate", _profile("_truncated_profile", _truncate, "invalid JSON")),
    ("simulate", _profile("_profile_thigh_len_string",
                          _edit_json(lambda d: d["geometry"].update(
                              thigh_len="long")),
                          "malformed profile")),
    ("simulate", _profile("_profile_without_duration",
                          _edit_json(lambda d: d.pop("duration_s")),
                          "missing profile field 'duration_s'")),
    ("simulate", _profile("_profile_zero_marker_dt",
                          _edit_json(lambda d: d.update(marker_dt_s=0)),
                          "marker_dt_s must be > 0, got 0")),
    ("simulate", _profile("_profile_negative_duration",
                          _edit_json(lambda d: d.update(duration_s=-1)),
                          "duration_s must be > 0, got -1")),
    ("simulate", _profile("_profile_negative_grf_dt",
                          _edit_json(lambda d: d.update(grf_dt_s=-0.001)),
                          "grf_dt_s must be > 0, got -0.001")),
    ("simulate", _profile("_profile_infinite_duration",
                          _edit_json(lambda d: d.update(duration_s=math.inf)),
                          "duration_s must be finite, got inf")),
    ("simulate", _profile("_profile_middle_grf_side",
                          _edit_json(lambda d: d.update(grf_side="middle")),
                          "grf_side must be one of ('left', 'right'), "
                          "got 'middle'")),
    ("simulate", _profile("_profile_unknown_terrain",
                          _edit_json(lambda d: d.update(terrain="mud")),
                          "unknown terrain 'mud'")),
    ("simulate", _profile("_profile_negative_ramp",
                          _edit_json(lambda d: d.update(ramp_s=-1)),
                          "ramp_s must be >= 0, got -1")),
    ("simulate", _profile("_profile_reversed_stance_window",
                          _edit_json(lambda d: d.update(
                              stance_windows_s=[[0.5, 0.2]])),
                          "stance window [0.5, 0.2] must be finite with "
                          "start < end")),
    ("simulate", _profile("_profile_sand_depth_string",
                          _edit_json(lambda d: d.update(terrain="sand",
                                                        sand_depth_cm="deep")),
                          "malformed profile (could not convert string to "
                          "float: 'deep')")),
    ("simulate", _profile("_profile_negative_sand_depth",
                          _edit_json(lambda d: d.update(terrain="sand",
                                                        sand_depth_cm=-5)),
                          "sand_depth_cm must be > 0, got -5")),
    ("simulate", _profile("_profile_one_cop_fixed",
                          _edit_json(lambda d: d.update(
                              cop_fixed_m=[0.1],
                              stance_windows_s=[[0.2, 0.8]])),
                          "cop_fixed_m must be two finite numbers, got [0.1]")),
    ("simulate", _profile("_profile_two_value_term",
                          _edit_json(lambda d: d["legs"]["right"][
                              "thigh_pitch"].update(terms=[[0.3, 0.8]])),
                          "legs.right.thigh_pitch.terms[0] must hold three "
                          "numbers, got [0.3, 0.8]")),
    ("simulate", _profile("_profile_negative_thigh_len",
                          _edit_json(lambda d: d["geometry"].update(
                              thigh_len=-0.4)),
                          "geometry.thigh_len must be > 0, got -0.4")),
    ("compare", _bundle("_truncated_features", "features.json", _truncate,
                        ": invalid JSON")),
    ("compare", _bundle("_truncated_bundle_meta", "meta.json", _truncate,
                        ": invalid JSON")),
    ("compare", _bundle("_bad_stride_cell", "stride_metrics.csv",
                        _bad_stride_cell, ":3: non-numeric")),
    ("compare", _bundle("_bundle_without_participant", "meta.json",
                        _edit_json(lambda m: m.pop("participant_id")),
                        ": missing bundle metadata field 'participant_id'")),
    ("compare", _bundle("_features_grf_list", "features.json",
                        _edit_json(lambda f: f.update(grf=[1.0])),
                        ": malformed features")),
]


class TestMalformedInput:
    """Each malformed input exits 1 with an error naming it, no traceback."""

    @pytest.mark.parametrize("command, fixture", _MALFORMED,
                             ids=[f.__name__ for _, f in _MALFORMED])
    def test_exits_one_without_traceback(self, sim_dir, bundle_dir, tmp_path,
                                         command, fixture):
        args = {"analyze": {"--markers": sim_dir / "markers.csv",
                            "--grf": sim_dir / "grf.csv",
                            "--meta": sim_dir / "meta.json",
                            "--out": tmp_path / "bundle"},
                "simulate": {"--out": tmp_path / "trial"},
                "compare": {"--out": tmp_path / "report"},
                "calibrate": {"--out": tmp_path / "curve.csv"}}[command]
        changed, named = fixture(bundle_dir if command == "compare"
                                 else sim_dir, tmp_path)
        args.update(changed)
        proc = _run_cli(command, *(str(x) for kv in args.items() for x in kv))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr


def _numeric_leaves(doc, path=()):
    """The path of every number in a JSON document, bools left out."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _dotted(path):
    """A leaf's keys, dotted, with list indexes in brackets."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path)[1:]


def _leaf_name(path):
    """How an error names a leaf: a participant number by its field
    (``height``, ``mass``), any other by its dotted keys."""
    if path[0] == "participant":
        return f": {path[1].split('_')[0]} must be"
    return f"{_dotted(path)} must be"


def _documents():
    """The stride preset's profile.json and meta.json as ``simulate``
    writes them, and a config that sets every number of ``RunConfig``."""
    profile = synth.stride_profile()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "meta.json"
        ingest.write_meta_file(path, ingest.TrialMeta(
            profile.participant, profile.terrain, profile.sand_depth))
        meta = json.loads(path.read_text())
    config = {key: value for key, value in asdict(RunConfig()).items()
              if value is not None}
    return {"profile.json": profile.to_json(), "meta.json": meta,
            "cfg.json": config}


_DOCUMENTS = _documents()
_LEAVES = [(name, path, value) for name, doc in _DOCUMENTS.items()
           for path in _numeric_leaves(doc) for value in ("NaN", "Infinity")]


class TestEveryDocumentNumber:
    """Each number of each document, made NaN or infinite, exits 1 with one
    error line naming the file and the key, and leaves no output."""

    @pytest.mark.parametrize(
        "name, path, value", _LEAVES,
        ids=[f"{n}:{_dotted(p)}:{v}" for n, p, v in _LEAVES])
    def test_non_finite_exits_one(self, sim_dir, tmp_path, caplog, capsys,
                                  name, path, value):
        doc = json.loads(json.dumps(_DOCUMENTS[name]))
        if name != "cfg.json":  # the files the preset writes
            assert json.loads((sim_dir / name).read_text()) == doc
        leaf = doc
        for key in path[:-1]:
            leaf = leaf[key]
        leaf[path[-1]] = float(value)
        (tmp_path / name).write_text(json.dumps(doc))
        out = tmp_path / "out"
        if name == "profile.json":
            argv = ["simulate", "--profile", str(tmp_path / name)]
        else:
            argv = ["analyze", "--markers", str(sim_dir / "markers.csv"),
                    "--grf", str(sim_dir / "grf.csv"),
                    "--meta", str((tmp_path if name == "meta.json"
                                   else sim_dir) / "meta.json")]
            if name == "cfg.json":
                argv += ["--config", str(tmp_path / name)]
        assert main(argv + ["--out", str(out)]) == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1, errors
        assert errors[0].startswith(f"{tmp_path / name}: ")
        assert _leaf_name(path) in errors[0]
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "markers.csv").exists()
        assert not (out / "meta.json").exists()


class TestInternalError:
    """A failure that is no ``GaitError`` is a fault of sandgait itself."""

    def _analyze(self, sim_dir, tmp_path, *flags):
        return main([*flags, "analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--out", str(tmp_path / "b")])

    @pytest.fixture
    def broken_stage(self, monkeypatch):
        def analyze_trial(trial, cfg):
            raise RuntimeError("stage broke")
        monkeypatch.setattr("sandgait.cli.analyze_trial", analyze_trial)

    def test_exits_two_with_one_line(self, sim_dir, tmp_path, broken_stage,
                                     caplog, capsys):
        assert self._analyze(sim_dir, tmp_path) == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "RuntimeError: stage broke" in errors[0].getMessage()
        assert "\n" not in errors[0].getMessage()
        assert "Traceback" not in capsys.readouterr().err

    def test_verbose_reraises(self, sim_dir, tmp_path, broken_stage):
        with pytest.raises(RuntimeError, match="stage broke"):
            self._analyze(sim_dir, tmp_path, "--verbose")


class TestPinnedBytes:
    """The stride-preset ``simulate`` files, the bundle analysed from them
    (written to CSV and read back) and the bundles of a gappy copy and of
    a copy with one gap too long to fill, by SHA-256, as recorded with
    numpy 2.4.6 and scipy 1.17.1.  Reruns of one commit are compared
    elsewhere; these digests catch a change of output bytes between
    commits.  A change that alters them on purpose re-records them and
    says why; so does a numpy or scipy upgrade that alters them."""

    SIMULATE = {
        "grf.csv": "c299a83151a49ee3aab1498a898a323f88d9c84d31d200ba6adcb904f9903f2d",
        "markers.csv": "4582e070b3dc49784d7d5789064f7fc91484882bb9f9c848382070254ec41b5d",
        "meta.json": "0b405ae0ee5f930c9dfd9e12ddca50794b6c64df9176ad316c58dd9bba514a8c",
        "profile.json": "8067161399768faa12be136d176e36ffaa5bd8cac12d85aab1b329fe202daca0",
        "truth_events.csv": "80bd54595afd8bca6e1ed50788380bc405138ef0d3a1950b5d68e590b12c649b",
        "truth_moments.csv": "6dbef70f65a2b5072787384f5bdd88f57edb6dd64fd829dd48b15fcd074b9bdf",
    }
    BUNDLE = {
        "angles_cycle.csv": "7f7e1ae3158b389c23f11ca7741833d6762546b29b90c798f9c928c3f7ce875d",
        "events.csv": "5c05e2d475008ea9dec518d9424b8e297ed9fb1f00b3ff06b1679798bfd3f033",
        "features.json": "bb654a81a525fa7ca326ca5e9851e6f9dd4c53985a3f32079890eb3c702c7d9e",
        "grf_stance.csv": "445e9a4dcc7127b8aa04f927a984f224c7b12d0fbc6520fdb9bf9b1b9d9821ff",
        "knee_loop.csv": "c4cc69f7d1ce5095e47b4695d4208b9e6d37081b210453de2fe776e1b05f16ef",
        "meta.json": "1d8a5615c43e10d869155ca4db55b09d4fc7c278289eca3bedecf7121bd4c909",
        "moments.csv": "4a28058e6f2bcd2cf55916bebabbec6f0335904e9fe120fb4fd72229ea6d0fad",
        "moments_stance.csv": "18d94ab5e773b4d33169ab685ce2bfa49f15918d6bab193fd8a9b1c48f034ebd",
        "stride_metrics.csv": "70903c379aeafc617e8e04ce87647f2c67f803aa4a6c4f16189a5ee8fb54c1ff",
    }

    #: the bundle of ``gappy_bundle_dir``: these pin the gap-filled values
    GAPPY_BUNDLE = {
        "angles_cycle.csv": "d781dfe7d91c98f83fd3075112430e870fa2fe9577d578503030450c34944f91",
        "events.csv": "5c05e2d475008ea9dec518d9424b8e297ed9fb1f00b3ff06b1679798bfd3f033",
        "features.json": "d7ce4d3a749fcb039a9f772c38dff4eb3fce65e245d6cd23a0b83b3652559c63",
        "grf_stance.csv": "445e9a4dcc7127b8aa04f927a984f224c7b12d0fbc6520fdb9bf9b1b9d9821ff",
        "knee_loop.csv": "296b16fde499364b623cccbe2338617aa070cc0cccd19ba2b0116693de51f627",
        "meta.json": "1d8a5615c43e10d869155ca4db55b09d4fc7c278289eca3bedecf7121bd4c909",
        "moments.csv": "623368cbd9af18e3b6585aa72379cae85514658b8bda6208b71cbd0c04e874e4",
        "moments_stance.csv": "e6a973fb044624a6aa314c2eae257681f1847f7a79a62079a3affaf01de068cf",
        "stride_metrics.csv": "ddc671814d284976b28a40b5f6de872dfbcbaebd9256d22fd3a0b74f4afa15cf",
    }

    #: the bundle of ``unfilled_gap_bundle_dir``: these pin NaN frames
    #: carried through the smoother, the dynamics and the curves
    UNFILLED_GAP_BUNDLE = {
        "angles_cycle.csv": "499e301c2d413c6e6d1f43f43d45222483c368906fdd60bd5b12a499e4c30364",
        "events.csv": "5c05e2d475008ea9dec518d9424b8e297ed9fb1f00b3ff06b1679798bfd3f033",
        "features.json": "8412bcbd176ec749d55d78b9c65342834b52ffd4e48cb938537532e5981578b5",
        "grf_stance.csv": "445e9a4dcc7127b8aa04f927a984f224c7b12d0fbc6520fdb9bf9b1b9d9821ff",
        "knee_loop.csv": "934adb9e66e1b41713fb0b2c068f1c5a41cebc5f5c9046233d2f4b435c93936f",
        "meta.json": "1d8a5615c43e10d869155ca4db55b09d4fc7c278289eca3bedecf7121bd4c909",
        "moments.csv": "a4aa9eecf46df218e359570a97f4508f29a8fc1d5efad3fdc0f7b2de3803b66b",
        "moments_stance.csv": "836cc5b3764ea28a291f37c9dfbc0ed57d260a0df974f1f123c6c24e55be9b53",
        "stride_metrics.csv": "70903c379aeafc617e8e04ce87647f2c67f803aa4a6c4f16189a5ee8fb54c1ff",
    }

    @staticmethod
    def _digests(directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.iterdir())}

    def test_simulate_files(self, sim_dir):
        assert self._digests(sim_dir) == self.SIMULATE

    def test_bundle_files(self, bundle_dir):
        assert self._digests(bundle_dir) == self.BUNDLE

    def test_gappy_bundle_files(self, gappy_bundle_dir):
        assert self._digests(gappy_bundle_dir) == self.GAPPY_BUNDLE

    def test_unfilled_gap_bundle_files(self, unfilled_gap_bundle_dir):
        moments = (unfilled_gap_bundle_dir / "moments.csv").read_text()
        assert ",right,nan,nan,nan,nan,nan,nan\n" in moments
        assert (self._digests(unfilled_gap_bundle_dir)
                == self.UNFILLED_GAP_BUNDLE)

    #: ``compare`` of three participants, the gappy bundle swapped into
    #: one condition or the other and one metric shifted, run on relative
    #: paths
    COMPARE = {
        "report.csv": "aad34c09579758b36668599f23a14be795617a93a762a1558b0fe34b2722dc3d",
        "report.json": "300d4ab0260cde71d88eaf0fc07a90a3db2942739651714e92cd9bc9f61be99d",
    }
    #: ``calibrate`` of ``_calibration_samples``
    CURVE = "58d2da097a95a1cacad9959ae6609087f0f46ab3f21269963b523fea1c232387"

    def test_compare_files(self, bundle_dir, gappy_bundle_dir, tmp_path,
                           monkeypatch):
        monkeypatch.chdir(tmp_path)  # report.csv names both directories
        for group, bundles in (("a", (bundle_dir, bundle_dir, gappy_bundle_dir)),
                               ("b", (gappy_bundle_dir, gappy_bundle_dir,
                                      bundle_dir))):
            for k, bundle in enumerate(bundles, 1):
                _relabelled_copy(bundle, Path(group, f"p{k}"), f"p{k}")
        for k in (1, 2, 3):  # one metric 0.1 to 0.12 higher in b: significant
            path = Path("b", f"p{k}", "features.json")
            feats = json.loads(path.read_text())
            feats["grf"]["fz_hs_peak"] += 0.09 + 0.01 * k
            path.write_text(json.dumps(feats))
        assert main(["compare", "--a", "a", "--b", "b", "--out", "r"]) == 0
        assert self._digests(Path("r")) == self.COMPARE

    def test_trial_files_skip_printf(self, tmp_path, monkeypatch):
        # markers.csv and grf.csv take the %.Nf kernel, not printf, and
        # keep their digests; so does a marker file with empty cells
        monkeypatch.setattr(ingest, "_printf_rows", _no_printf)
        result = synth.synthesize_gait(synth.stride_profile())
        ingest.write_marker_file(tmp_path / "markers.csv", result.markers)
        ingest.write_grf_file(tmp_path / "grf.csv", result.grf)
        assert self._digests(tmp_path) == {
            name: self.SIMULATE[name] for name in ("grf.csv", "markers.csv")}

        markers, labels = result.markers.copy(), sorted(result.markers.pos)
        rng = np.random.default_rng(18)
        for g in range(24):
            start = int(rng.integers(len(markers) - 5))
            markers.pos[labels[g % len(labels)]][start:start + 1 + g % 5, g % 3:] = np.nan
        ingest.write_marker_file(tmp_path / "gappy.csv", markers)
        table = np.column_stack([markers.time] + [markers.pos[l] for l in labels])
        row_format = "%.6f" + ",%.9f" * (3 * len(labels)) + "\n"
        rows = (row_format * len(table)) % tuple(table.ravel().tolist())
        lines = (tmp_path / "gappy.csv").read_text().split("\n", 1)
        assert lines[1] == rows.replace(",nan", ",")

    def test_calibrate_curve(self, tmp_path):
        samples, out = tmp_path / "s.csv", tmp_path / "curve.csv"
        samples.write_text(_calibration_samples())
        assert main(["calibrate", "--samples", str(samples),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CURVE


def _no_printf(row_format, table):
    raise AssertionError(f"printf took a block of {row_format!r}")


def _relabelled_copy(bundle, dst, pid):
    """A copy of ``bundle`` at ``dst`` whose participant id is ``pid``."""
    shutil.copytree(bundle, dst)
    meta = json.loads((dst / "meta.json").read_text())
    meta["participant_id"] = pid
    (dst / "meta.json").write_text(json.dumps(meta))


def _calibration_samples():
    """Four buried depths, six loads each, off the fitted line by +-0.5 N."""
    lines = ["depth_cm,f_surface_n,f_buried_n"]
    for depth, zeta in ((2.5, 0.97), (6, 0.91), (10, 0.86), (14, 0.81)):
        lines += [f"{depth},{fs},{zeta * fs + 0.5 * (-1) ** fs}"
                  for fs in range(50, 301, 50)]
    return "\n".join(lines) + "\n"


class TestCalibrate:
    def test_stepped_loads(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        lines = ["depth_cm,f_surface_n,f_buried_n"]
        for fs in np.arange(25.0, 201.0, 25.0):
            lines.append(f"14,{fs},{0.81 * fs}")
        samples.write_text("\n".join(lines) + "\n")
        out = tmp_path / "curve.csv"
        assert main(["calibrate", "--samples", str(samples),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        depth14 = [r for r in rows if r.startswith("14")][0]
        assert float(depth14.split(",")[1]) == pytest.approx(0.81, abs=1e-9)

    def test_empty_file_exits_one(self, tmp_path, caplog):
        samples = tmp_path / "s.csv"
        samples.write_text("")
        assert main(["calibrate", "--samples", str(samples),
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "no samples" in caplog.text

    def test_identity_depth_zero(self, tmp_path):
        samples = tmp_path / "s.csv"
        samples.write_text("depth_cm,f_surface_n,f_buried_n\n"
                           "0,100,100\n0,200,200\n")
        out = tmp_path / "c.csv"
        assert main(["calibrate", "--samples", str(samples),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1
        depth, zeta = rows[0].split(",")[:2]
        assert float(depth) == 0.0 and float(zeta) == 1.0


class TestCompare:
    def _sets(self, tmp_path, bundle_dir, ids_a, ids_b):
        for group, ids in (("a", ids_a), ("b", ids_b)):
            for pid in ids:
                _relabelled_copy(bundle_dir, tmp_path / group / pid, pid)
        return tmp_path / "a", tmp_path / "b"

    def test_identical_sets_all_p_one(self, tmp_path, bundle_dir):
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2", "p3"],
                          ["p1", "p2", "p3"])
        out = tmp_path / "report"
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["participants"] == ["p1", "p2", "p3"]
        for row in report["rows"]:
            assert row["p"] == 1.0 and not row["significant"]
        body = (out / "report.csv").read_text()
        assert "*" not in body.splitlines()[-1]

    def test_unpaired_participant_warned_and_excluded(self, tmp_path,
                                                      bundle_dir, caplog):
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2", "p9"],
                          ["p1", "p2"])
        out = tmp_path / "report"
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(out)]) == 0
        assert "p9" in caplog.text
        report = json.loads((out / "report.json").read_text())
        assert report["participants"] == ["p1", "p2"]

    def test_too_few_pairs_exits_two(self, tmp_path, bundle_dir):
        a, b = self._sets(tmp_path, bundle_dir, ["p1"], ["p1"])
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(tmp_path / "r")]) == 2

    def test_failed_analyze_leaves_no_bundle(self, tmp_path, bundle_dir,
                                             sim_dir):
        # an analyze that fails on its last write leaves no meta.json, so
        # compare does not take the directory for a bundle with missing
        # metrics; an older bundle there loses its meta.json first
        pid = json.loads((sim_dir / "meta.json").read_text())["participant"]["id"]
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2", pid],
                          ["p1", "p2", pid])
        (a / pid / "features.json").unlink()
        (a / pid / "features.json").mkdir()
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--out", str(a / pid)]) == 2
        assert not (a / pid / "meta.json").exists()
        (a / pid / "features.json").rmdir()
        out = tmp_path / "report"
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["participants"] == ["p1", "p2"]
        assert len(report["rows"]) == 25

    def test_header_only_stride_metrics(self, tmp_path, bundle_dir):
        # a stride file with no rows adds no stride metrics; the metrics it
        # leaves out of the intersection are named in one warning
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2"], ["p1", "p2"])
        sm = a / "p2" / "stride_metrics.csv"
        sm.write_text("".join(sm.read_text().splitlines(True)[:2]))
        out = tmp_path / "report"
        proc = _run_cli("compare", "--a", str(a), "--b", str(b),
                        "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        warned = [line for line in proc.stderr.splitlines()
                  if "excluded: " in line]
        assert len(warned) == 1 and "stride_length" in warned[0]
        report = json.loads((out / "report.json").read_text())
        metrics = {row["metric"] for row in report["rows"]}
        assert "stride_length" not in metrics and "fz_hs_peak" in metrics
