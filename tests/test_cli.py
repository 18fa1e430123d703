import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from sandgait import forces, ingest, pipeline, synth
from sandgait.cli import main
from sandgait.pipeline import RunConfig
from sandgait.schema import MarkerSchema


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


def _simulate_sand(out, depth):
    """``simulate`` of the stride preset walked over a plate under
    ``depth`` cm of sand; returns the profile and the trial directory."""
    profile = replace(synth.stride_profile(), terrain="sand",
                      sand_depth=depth)
    path = out.parent / f"sand_{depth:g}.json"
    profile.save(path)
    assert main(["simulate", "--profile", str(path), "--out", str(out)]) == 0
    return profile, out


@pytest.fixture(scope="module")
def sand_sim_dir(tmp_path_factory):
    return _simulate_sand(tmp_path_factory.mktemp("sand") / "trial", 14.0)[1]


def _side_moments(path, side):
    """The (time, ankle, knee, hip) N m rows of one side of a moments CSV."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line[:1].isdigit()]
    return np.array([[float(c) for c in [r[0]] + r[2:5]]
                     for r in rows if r[1] == side])


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


class TestSandSimulate:
    @pytest.mark.parametrize("depth", [6.0, 14.0])
    def test_analyze_recovers_surface_moments(self, tmp_path, depth):
        # simulate writes what the buried plate reads, and analyze divides
        # it by the same zeta(depth): plate-side stance moments within
        # criterion 2's 1% RMS of the surface truth
        profile, trial = _simulate_sand(tmp_path / "trial", depth)
        assert main(["analyze", "--markers", str(trial / "markers.csv"),
                     "--grf", str(trial / "grf.csv"),
                     "--meta", str(trial / "meta.json"),
                     "--out", str(tmp_path / "bundle")]) == 0
        est = _side_moments(tmp_path / "bundle" / "moments.csv", "right")
        truth = _side_moments(trial / "truth_moments.csv", "right")
        t = truth[:, 0]
        np.testing.assert_allclose(est[:, 0], t, atol=1e-6)
        inside = np.zeros(len(t), dtype=bool)
        for a, b in synth.synthesize_gait(profile).stance_windows:
            inside |= (t >= a + 0.05) & (t <= b - 0.05)
        for k, joint in enumerate(("ankle", "knee", "hip"), 1):
            err = (np.sqrt(np.mean((est[inside, k] - truth[inside, k]) ** 2))
                   / np.sqrt(np.mean(truth[inside, k] ** 2)))
            assert err < 0.01, f"{joint}: {100 * err:.2f}% RMS"

    def test_buried_vertical_force(self, sim_dir, sand_sim_dir):
        # only F_z (scaled by zeta(14) = 0.81) and the moment change
        def columns(trial):
            rows = (trial / "grf.csv").read_text().splitlines()[1:]
            return np.array([[float(c) for c in r.split(",")] for r in rows])

        firm, sand = columns(sim_dir), columns(sand_sim_dir)
        for k in (0, 1, 2, 7, 8):  # time, fx, fy, copx, copy
            np.testing.assert_array_equal(sand[:, k], firm[:, k])
        np.testing.assert_allclose(sand[:, 3], 0.81 * firm[:, 3], atol=1e-6)

    def test_depth_past_the_curve_exits_two(self, tmp_path, caplog):
        profile = tmp_path / "deep.json"
        replace(synth.stride_profile(), terrain="sand",
                sand_depth=16.0).save(profile)
        assert main(["simulate", "--profile", str(profile),
                     "--out", str(tmp_path / "trial")]) == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == ["depth 16 cm outside calibrated range [0, 14] cm"]
        assert not (tmp_path / "trial").exists()


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

    def test_processing_failure_exits_two(self, sim_dir, tmp_path, caplog):
        # a firm trial read as sand past the calibrated depths: valid
        # input that the calibration stage cannot use
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--terrain", "sand", "--sand-depth", "16",
                     "--out", str(tmp_path / "x")]) == 2
        assert [r.getMessage() for r in caplog.records
                if r.levelname == "ERROR"] == [
            "depth 16 cm outside calibrated range [0, 14] cm"]

    @pytest.mark.parametrize("rows, sync_offset, span, at", [
        (10, 0.0, "[0, 0.009]", 0.01), (509, 0.0, "[0, 0.508]", 0.51),
        (None, 1000.0, "[1000, 1003]", 0.01)],
        ids=["first_10_rows", "cut_at_0.508_s", "sync_offset_1000_s"])
    def test_grf_not_covering_the_markers_exits_one(
            self, sim_dir, tmp_path, caplog, rows, sync_offset, span, at):
        # a plate stream that leaves an interior marker frame without its
        # window is bad input, named with both spans when the trial is read
        lines = (sim_dir / "grf.csv").read_text().split("\n")
        grf = tmp_path / "grf.csv"
        grf.write_text("\n".join(lines[:1 + rows] + [""] if rows else lines))
        meta = json.loads((sim_dir / "meta.json").read_text())
        meta["sync_offset_s"] = sync_offset
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(grf), "--meta", str(tmp_path / "meta.json"),
                     "--out", str(tmp_path / "x")]) == 1
        assert [r.getMessage() for r in caplog.records
                if r.levelname == "ERROR"] == [
            f"{grf}: GRF span {span} s does not cover marker span [0, 3] s: "
            f"no full window for the marker frame at {at:g} s"]

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


def _analyze_argv(sim, out, *flags):
    return ["analyze", "--markers", str(sim / "markers.csv"),
            "--grf", str(sim / "grf.csv"), "--meta", str(sim / "meta.json"),
            "--out", str(out), *(str(f) for f in flags)]


def _without_config_hash(directory):
    """Each file's text under ``directory`` with its config-hash line (the
    CSV comment, the JSON key) dropped."""
    return {p.name: [line for line in p.read_text().split("\n")
                     if "config_hash" not in line]
            for p in sorted(directory.iterdir())}


#: Plug-in-Gait-style name and landmark of each default label's part
_PIG = {"asis": ("ASI", "pelvis"), "psis": ("PSI", "pelvis"),
        "hip": ("HJC", "hip"), "thigh": ("THI", "tracking"),
        "knee": ("KNE", "knee"), "shank": ("TIB", "tracking"),
        "ankle": ("ANK", "ankle"), "heel": ("HEE", "heel"),
        "toe": ("TOE", "toe")}


_DATA = resources.files("sandgait.data")
_BUNDLED_TABLE = (_DATA / "anthropometry.txt").read_text()


class TestConfigFiles:
    """The marker schema, anthropometric table and calibration curve a
    config names, and the config file itself."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Every file read, in order, and the count of schema parses.  A
        file is read whole by ``Path.read_bytes`` or in blocks from one
        ``Path.open`` in a read mode; each counts once."""
        reads = {"files": [], "schema_parses": 0}
        open_, init = Path.open, MarkerSchema.__init__

        def opening(path, mode="r", *args, **kwargs):
            if not set(mode) & set("wax+"):
                reads["files"].append(Path(path).name)
            return open_(path, mode, *args, **kwargs)

        def reading(path):
            with Path(path).open("rb") as fh:
                return fh.read()

        def parsing(schema, *args):
            reads["schema_parses"] += 1
            init(schema, *args)

        monkeypatch.setattr(Path, "open", opening)
        monkeypatch.setattr(Path, "read_bytes", reading)
        monkeypatch.setattr(MarkerSchema, "__init__", parsing)
        return reads

    def test_each_config_file_read_once(self, sim_dir, tmp_path, reads):
        # the config, meta.json, then each file the config names, once, and
        # only then the trial files; the schema is parsed once
        (tmp_path / "schema.csv").write_bytes(
            (_DATA / "marker_schema.csv").read_bytes())
        (tmp_path / "table.txt").write_text(_BUNDLED_TABLE)
        forces.write_calibration_curve(tmp_path / "curve.csv",
                                       forces.default_calibration_curve())
        (tmp_path / "cfg.json").write_text(json.dumps({
            "marker_schema": str(tmp_path / "schema.csv"),
            "anthropometry": str(tmp_path / "table.txt"),
            "calibration": str(tmp_path / "curve.csv")}))
        del reads["files"][:]
        assert main(_analyze_argv(sim_dir, tmp_path / "b", "--config",
                                  tmp_path / "cfg.json")) == 0
        assert reads == {"files": ["cfg.json", "meta.json", "schema.csv",
                                   "table.txt", "curve.csv", "markers.csv",
                                   "grf.csv"], "schema_parses": 1}

    def test_bundled_schema_parsed_once(self, sim_dir, tmp_path, reads):
        assert main(_analyze_argv(sim_dir, tmp_path / "b")) == 0
        assert reads == {"files": ["meta.json", "marker_schema.csv",
                                   "anthropometry.txt", "markers.csv",
                                   "grf.csv"], "schema_parses": 1}

    @pytest.fixture
    def stage_calls(self, monkeypatch):
        """The calls of the first stage that reads both trial streams."""
        calls = []
        monkeypatch.setattr(pipeline, "align_streams",
                            lambda *a: calls.append(a))
        return calls

    def test_renamed_labels_same_bundle(self, sim_dir, bundle_dir, tmp_path):
        # every label renamed, the rows listed by side: the bundle differs
        # from the default run only in its config hash
        (tmp_path / "schema.csv").write_text(
            "# Plug-in-Gait-style labels\nlabel,side,landmark\n" + "".join(
                f"{side[0].upper()}{name},{side},{landmark}\n"
                for side in ("left", "right") for name, landmark in _PIG.values()))
        lines = (sim_dir / "markers.csv").read_text().split("\n", 1)
        header = ",".join(
            c if c == "time" else c[0] + _PIG[c[2:-2]][0] + c[-2:]
            for c in lines[0].split(","))
        (tmp_path / "markers.csv").write_text(header + "\n" + lines[1])
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"marker_schema": str(tmp_path / "schema.csv")}))
        out = tmp_path / "b"
        assert main(["analyze", "--markers", str(tmp_path / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 0
        assert _snapshot(out) != _snapshot(bundle_dir)
        assert _without_config_hash(out) == _without_config_hash(bundle_dir)

    def test_config_from_environment(self, sim_dir, tmp_path, monkeypatch):
        # SANDGAIT_CONFIG gives the bundle --config gives; --config wins
        env, flag = tmp_path / "env.json", tmp_path / "flag.json"
        env.write_text('{"filter_window": 9}')
        flag.write_text('{"filter_window": 5}')

        def bundle(name, *flags):
            assert main(_analyze_argv(sim_dir, tmp_path / name, *flags)) == 0
            return _snapshot(tmp_path / name)

        env_by_flag = bundle("env_by_flag", "--config", env)
        flag_only = bundle("flag_only", "--config", flag)
        assert env_by_flag != flag_only
        monkeypatch.setenv("SANDGAIT_CONFIG", str(env))
        assert bundle("env_only") == env_by_flag
        assert bundle("both", "--config", flag) == flag_only

    @pytest.mark.parametrize("key, text, named", [
        ("marker_schema", "label,segment,side,role\nL-asis,pelvis,left,proximal\n",
         ":1: expected header 'label,side,landmark'"),
        ("marker_schema", "label,side,landmark\nL-asis,left,pelvis\n"
         "L-hip,left,hjc\n", ":3: marker 'L-hip': unknown landmark 'hjc'"),
        ("marker_schema", "label,side,landmark\nL-heel,left,heel\n"
         "L-mt5,left,heel\n", ":3: marker 'L-mt5': second left heel marker "
         "('L-heel' is on line 2)"),
        ("marker_schema", "label,side,landmark\nL-asis,left,pelvis\n",
         ": no marker for landmark(s) left hip, left knee, left ankle, "
         "left heel, left toe, right hip"),
        ("marker_schema", "label,side,landmark\n" + "".join(
            f"{side[0].upper()}{name},{side},{landmark}\n"
            for side in ("left", "right") for name, landmark in _PIG.values()
            if landmark != "pelvis"), ": no pelvis marker"),
        ("anthropometry", "foot 0.0145 0.50 0.475\nshank 0.0465 0.433 1.302\n",
         ": anthropometric table: gyration_fraction for segment 'shank' "
         "must lie in (0, 1), got 1.302"),
        ("anthropometry", "foot 0.05 0.5 0.475\nshank 0.15 0.433 0.302\n"
         "thigh 0.35 0.433 0.323\nhat 0.40 0.626 0.496\n",
         ": anthropometric table: mass fractions sum to 1.5000 > 1"),
        ("anthropometry", _BUNDLED_TABLE + "foot 0.0145 0.40 0.475\n",
         ":14: segment 'foot': already on line 10"),
    ], ids=["old_schema_header", "unknown_landmark", "second_heel",
            "missing_landmarks", "no_pelvis", "gyration_over_one",
            "two_leg_mass", "repeated_segment"])
    def test_bad_file_fails_before_any_stage(self, sim_dir, tmp_path, caplog,
                                             stage_calls, key, text, named):
        # one ERROR line naming the file, exit 1, and no stage has run
        (tmp_path / "file.txt").write_text(text)
        (tmp_path / "cfg.json").write_text(
            json.dumps({key: str(tmp_path / "file.txt")}))
        assert main(_analyze_argv(sim_dir, tmp_path / "b", "--config",
                                  tmp_path / "cfg.json")) == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1, errors
        assert f"{tmp_path / 'file.txt'}{named}" in errors[0]
        assert stage_calls == []
        assert not (tmp_path / "b").exists()

    def test_missing_calibration_fails_before_any_stage(self, sim_dir,
                                                        tmp_path, stage_calls):
        # a firm trial never uses the curve, but reads it before any stage
        assert main(_analyze_argv(sim_dir, tmp_path / "b", "--calibration",
                                  tmp_path / "curve.csv")) == 1
        assert stage_calls == []


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


def _duplicate_marker_label(sim, tmp):
    # an extra, zeroed L-heel triple would replace the real one
    lines = (sim / "markers.csv").read_text().split("\n")
    lines = [lines[0] + ",L-heel_x,L-heel_y,L-heel_z"] + [
        line + ",0,0,0" if line else line for line in lines[1:]]
    (tmp / "markers.csv").write_text("\n".join(lines))
    return ({"--markers": tmp / "markers.csv"},
            "markers.csv: duplicate marker label(s) ['L-heel']")


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


def _markers_first_column(sim, tmp):
    text = (sim / "markers.csv").read_text()
    assert text.startswith("time,")
    (tmp / "markers.csv").write_text("t" + text[len("time"):])
    return ({"--markers": tmp / "markers.csv"},
            "markers.csv: first marker column must be 'time'")


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


def _first_row(name, file, named):
    """A malformed-input case: the trial's ``file`` cut to its header and
    first data row."""
    def fixture(sim, tmp):
        lines = (sim / file).read_text().split("\n")
        (tmp / file).write_text("\n".join(lines[:2]) + "\n")
        return ({f"--{file.split('.')[0]}": tmp / file},
                f"{tmp / file}: {named}; at least two are needed")
    fixture.__name__ = name
    return fixture


def _short_markers(name, frames, config, named):
    """A malformed-input case: the trial's markers cut to their header and
    ``frames`` rows, analysed under the config keys ``config``."""
    def fixture(sim, tmp):
        lines = (sim / "markers.csv").read_text().split("\n")
        (tmp / "markers.csv").write_text("\n".join(lines[:1 + frames]) + "\n")
        (tmp / "cfg.json").write_text(json.dumps(config))
        return ({"--markers": tmp / "markers.csv", "--config": tmp / "cfg.json"},
                named)
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
    ("analyze", _bad_marker_cell), ("analyze", _duplicate_marker_label),
    ("analyze", _curve("_bad_zeta_cell", "0,1,0,0\n20,0.7x,0,12\n", ":3:")),
    ("analyze", _heavy_meta), ("analyze", _list_meta),
    ("analyze", _non_utf8_markers), ("analyze", _markers_first_column),
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
    ("analyze", _flags("_sand_depth_flag_infinite",
                       {"--terrain": "sand", "--sand-depth": "inf"},
                       "--sand-depth: sand_depth_cm must be finite, got inf")),
    ("analyze", _curve("_curve_zeta_above_one", "0,1,0,0\n20,1.5,0,12\n",
                       ": zeta values must lie in (0, 1]")),
    ("analyze", _curve("_curve_nan_zeta", "0,1,0,0\n20,nan,0,12\n",
                       ":3: non-finite value nan in column zeta")),
    ("calibrate", _samples("_samples_nan_cell", "10,100,81\n10,200,nan\n",
                           ":3: non-finite value nan in column f_buried_n")),
    ("calibrate", _samples("_samples_negative_depth", "-3,100,81\n14,100,81\n",
                           ": negative depth_cm -3")),
    ("analyze", _curve("_curve_fractional_n", "0,1,0,0\n20,0.8,0.1,2.7\n",
                       ": sample count n must be a whole number in "
                       "[0, 2**63), got 2.7")),
    ("analyze", _curve("_curve_huge_negative_n",
                       "0,1,0,0\n20,0.8,0.1,-1e30\n",
                       ": sample count n must be a whole number in "
                       "[0, 2**63), got -1e+30")),
    ("analyze", _curve("_curve_negative_residual",
                       "0,1,0,0\n20,0.8,-0.1,12\n",
                       ": calibration residuals must be >= 0, got -0.1")),
    ("analyze", _meta("_boolean_height",
                      lambda m: m["participant"].update(height_m=True),
                      "participant 'synthetic': height must be a number, "
                      "got True")),
    ("analyze", _meta("_unknown_terrain", lambda m: m.update(terrain="gravel"),
                      "unknown terrain 'gravel'")),
    ("analyze", _meta("_null_participant_id",
                      lambda m: m["participant"].update(id=None),
                      "participant id must be a non-empty string, got None")),
    ("analyze", _meta("_numeric_participant_id",
                      lambda m: m["participant"].update(id=0),
                      "participant id must be a non-empty string, got 0")),
    ("analyze", _meta("_sand_without_depth",
                      lambda m: (m.update(terrain="sand"),
                                 m.pop("sand_depth_cm", None)),
                      "sand terrain requires sand_depth")),
    ("analyze", _short_markers("_markers_under_filter_window", 6, {},
                               "markers hold 6 frames, fewer than "
                               "filter_window 7")),
    ("analyze", _short_markers("_markers_under_event_window", 8,
                               {"event_filter_window": 9},
                               "markers hold 8 frames, fewer than "
                               "event_filter_window 9")),
    ("analyze", _config("_config_number", "5\n", "expected a JSON object")),
    ("analyze", _config("_config_list", "[1, 2]\n",
                        "expected a JSON object of config keys, "
                        "got [1, 2]")),
    ("analyze", _curve("_curve_empty", "", ": empty calibration curve")),
    ("analyze", _curve("_curve_not_from_depth_zero",
                       "5,1,0,0\n20,0.8,0,12\n",
                       ": calibration curve must start at depth 0")),
    ("analyze", _config("_config_empty_schema_path", '{"marker_schema": ""}',
                        "marker_schema must name a file, got ''")),
    ("analyze", _config("_config_empty_table_path", '{"anthropometry": ""}',
                        "anthropometry must name a file, got ''")),
    ("analyze", _config("_config_empty_curve_path", '{"calibration": ""}',
                        "calibration must name a file, got ''")),
    ("analyze", _flags("_calibration_flag_empty", {"--calibration": ""},
                       "--calibration must name a file, got ''")),
    ("analyze", _first_row("_markers_one_row", "markers.csv",
                           "marker file has one data row")),
    ("analyze", _first_row("_grf_one_row", "grf.csv",
                           "GRF file has one data row")),
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
                        "gravity must be finite, got an integer too large "
                        "for a float")),
    ("simulate", _profile("_truncated_profile", _truncate, "invalid JSON")),
    ("simulate", _profile("_profile_thigh_len_string",
                          _edit_json(lambda d: d["geometry"].update(
                              thigh_len="long")),
                          "geometry.thigh_len must be a number, got 'long'")),
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
    ("simulate", _profile("_profile_stance_window_strings",
                          _edit_json(lambda d: d.update(
                              stance_windows_s=[["0.2", "0.8"]])),
                          "stance_windows_s[0][0] must be a number, "
                          "got '0.2'")),
    ("simulate", _profile("_profile_stance_window_triple",
                          _edit_json(lambda d: d.update(
                              stance_windows_s=[[0.1, 0.5, 0.9]])),
                          "stance_windows_s[0] must be a [start, end] pair, "
                          "got [0.1, 0.5, 0.9]")),
    ("simulate", _profile("_profile_stance_window_number",
                          _edit_json(lambda d: d.update(
                              stance_windows_s=[0.3])),
                          "stance_windows_s[0] must be a [start, end] pair, "
                          "got 0.3")),
    ("simulate", _profile("_profile_stance_window_single",
                          _edit_json(lambda d: d.update(
                              stance_windows_s=[[0.1]])),
                          "stance_windows_s[0] must be a [start, end] pair, "
                          "got [0.1]")),
    ("simulate", _profile("_profile_sand_depth_string",
                          _edit_json(lambda d: d.update(terrain="sand",
                                                        sand_depth_cm="deep")),
                          "sand_depth_cm must be a number, got 'deep'")),
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
    ("simulate", _profile("_profile_null_terms",
                          _edit_json(lambda d: d["pelvis_z"].update(
                              terms=None)),
                          "pelvis_z.terms must be a list of [amp, freq, "
                          "phase] terms, got None")),
    ("simulate", _profile("_profile_negative_thigh_len",
                          _edit_json(lambda d: d["geometry"].update(
                              thigh_len=-0.4)),
                          "geometry.thigh_len must be > 0, got -0.4")),
    ("simulate", _profile("_profile_one_leg",
                          _edit_json(lambda d: d["legs"].pop("left")),
                          "legs must script left and right, got ['right']")),
    ("compare", _bundle("_truncated_features", "features.json", _truncate,
                        ": invalid JSON")),
    ("compare", _bundle("_truncated_bundle_meta", "meta.json", _truncate,
                        ": invalid JSON")),
    ("compare", _bundle("_features_without_scalars", "features.json",
                        _edit_json(lambda f: f.pop("scalars")),
                        ": no 'scalars' object; re-run analyze")),
    ("compare", _bundle("_bundle_without_participant", "meta.json",
                        _edit_json(lambda m: m.pop("participant_id")),
                        ": missing bundle metadata field 'participant_id'")),
    ("compare", _bundle("_null_bundle_participant", "meta.json",
                        _edit_json(lambda m: m.update(participant_id=None)),
                        ": participant id must be a non-empty string, "
                        "got None")),
    ("compare", _bundle("_scalar_not_a_number", "features.json",
                        _edit_json(lambda f: f["scalars"].update(
                            fz_hs_peak="1.2")),
                        ": scalar 'fz_hs_peak' is not a number, got '1.2'; "
                        "re-run analyze")),
]


def _compare_a_file(sim, bundle, tmp):
    target = tmp / "a.txt"
    target.write_text("not a bundle\n")
    return ["compare", "--a", target, "--b", bundle,
            "--out", tmp / "report"], target


def _analyze_markers_dir(sim, bundle, tmp):
    return ["analyze", "--markers", sim, "--grf", sim / "grf.csv",
            "--meta", sim / "meta.json", "--out", tmp / "bundle"], sim


def _analyze_out_file(sim, bundle, tmp):
    target = tmp / "bundle"
    target.write_text("kept\n")
    return ["analyze", "--markers", sim / "markers.csv",
            "--grf", sim / "grf.csv", "--meta", sim / "meta.json",
            "--out", target], target


def _simulate_out_file(sim, bundle, tmp):
    target = tmp / "trial"
    target.write_text("kept\n")
    return ["simulate", "--out", target], target


def _calibrate_out_dir(sim, bundle, tmp):
    (tmp / "samples.csv").write_text(_calibration_samples())
    target = tmp / "curve"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    return ["calibrate", "--samples", tmp / "samples.csv",
            "--out", target], target


def _analyze_missing_calibration(sim, bundle, tmp):
    # a firm trial never reads the curve, but the config hash does
    target = tmp / "curve.csv"
    return ["analyze", "--markers", sim / "markers.csv",
            "--grf", sim / "grf.csv", "--meta", sim / "meta.json",
            "--calibration", target, "--out", tmp / "bundle"], target


def _analyze_short_grf(sim, bundle, tmp):
    # five GRF rows cannot fill one marker frame's ten-sample window
    target = tmp / "grf.csv"
    lines = (sim / "grf.csv").read_text().split("\n")
    target.write_text("\n".join(lines[:6]) + "\n")
    return ["analyze", "--markers", sim / "markers.csv", "--grf", target,
            "--meta", sim / "meta.json", "--out", tmp / "bundle"], target


#: Paths that cannot be read or written as given: each case gives its argv
#: and the path the error must name.
_PATH_ERRORS = [_compare_a_file, _analyze_markers_dir, _analyze_out_file,
                _simulate_out_file, _calibrate_out_dir,
                _analyze_missing_calibration, _analyze_short_grf]


def _snapshot(path):
    """A file's bytes, every file's bytes under a directory, or None where
    there is no file."""
    if not path.exists():
        return None
    if path.is_dir():
        return {p.relative_to(path): p.read_bytes()
                for p in sorted(path.rglob("*")) if p.is_file()}
    return path.read_bytes()


class TestMalformedInput:
    """Each malformed input exits 1 with an error naming it, no traceback."""

    @pytest.mark.parametrize("case", _PATH_ERRORS,
                             ids=[c.__name__ for c in _PATH_ERRORS])
    def test_path_error_exits_one(self, sim_dir, bundle_dir, tmp_path,
                                  caplog, case):
        # one ERROR line naming the path, the path as it was, no other
        # output and no .tmp file
        argv, target = case(sim_dir, bundle_dir, tmp_path)
        before = _snapshot(target)
        assert main([str(x) for x in argv]) == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1, errors
        assert str(target) in errors[0]
        assert "internal error" not in errors[0]
        assert _snapshot(target) == before
        out = argv[argv.index("--out") + 1]
        assert out == target or not out.exists()
        assert not list(target.parent.rglob("*.tmp"))

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
    says why; so does a numpy or scipy upgrade that alters them.

    The moment-derived digests (``moments.csv``, ``moments_stance.csv``,
    ``knee_loop.csv``, ``features.json`` and ``COMPARE``) were re-recorded
    when the ground moment took one sign in every formulation: the aligned
    record's couple at its COP (the covariance of moment, COP and force
    over the alignment window) had been added with the wrong sign, and the
    bundle moments moved by at most 0.81 N m (0.0108 N m/kg).

    The three ``features.json`` digests were re-recorded again when
    ``features.json`` took its ``scalars`` object, the one map ``compare``
    reads: every other key of the file, and every other file, is as it
    was, and ``COMPARE`` holds."""

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
        "features.json": "a1795b20bff50668c4c443833b24998d8ec7fdebd6dc29e572989a1b43db2c35",
        "grf_stance.csv": "445e9a4dcc7127b8aa04f927a984f224c7b12d0fbc6520fdb9bf9b1b9d9821ff",
        "knee_loop.csv": "f7215ad60d63bc27ac8bfdd791a51dfb4184a84ed98eab27e5e0476e384303a6",
        "meta.json": "1d8a5615c43e10d869155ca4db55b09d4fc7c278289eca3bedecf7121bd4c909",
        "moments.csv": "b7e753a9efb5b1616ca3e6ed4e9fa480698a1a685c0f25131257411377ce845b",
        "moments_stance.csv": "555ba7becb7af50cc4ae3d37039157e4b97e8437e4ce48cd862cd4c5a7be3532",
        "stride_metrics.csv": "70903c379aeafc617e8e04ce87647f2c67f803aa4a6c4f16189a5ee8fb54c1ff",
    }

    #: the bundle of ``gappy_bundle_dir``: these pin the gap-filled values
    GAPPY_BUNDLE = {
        "angles_cycle.csv": "d781dfe7d91c98f83fd3075112430e870fa2fe9577d578503030450c34944f91",
        "events.csv": "5c05e2d475008ea9dec518d9424b8e297ed9fb1f00b3ff06b1679798bfd3f033",
        "features.json": "4d7fb219564a36601749d8e07cfa3d5f792bf012feeb12b255200a006ee8aff4",
        "grf_stance.csv": "445e9a4dcc7127b8aa04f927a984f224c7b12d0fbc6520fdb9bf9b1b9d9821ff",
        "knee_loop.csv": "34e89c82fb8414f65334f72a9c20989558a3b05ba02caa075d568ea7917483b4",
        "meta.json": "1d8a5615c43e10d869155ca4db55b09d4fc7c278289eca3bedecf7121bd4c909",
        "moments.csv": "c2e8d40ea0a108869deecfaea4ea0d8c24663fdfb329b7252b9a59abb925f2ac",
        "moments_stance.csv": "79bf0ce7698429a9c749f0d0d6e15dcd72f51c110a34ecc0b453210c0833b074",
        "stride_metrics.csv": "ddc671814d284976b28a40b5f6de872dfbcbaebd9256d22fd3a0b74f4afa15cf",
    }

    #: the bundle of ``unfilled_gap_bundle_dir``: these pin NaN frames
    #: carried through the smoother, the dynamics and the curves
    UNFILLED_GAP_BUNDLE = {
        "angles_cycle.csv": "499e301c2d413c6e6d1f43f43d45222483c368906fdd60bd5b12a499e4c30364",
        "events.csv": "5c05e2d475008ea9dec518d9424b8e297ed9fb1f00b3ff06b1679798bfd3f033",
        "features.json": "5b448dab9db052471ba1a0e11f03f01de2468ec24dc4d549e976f3c94c7f22c3",
        "grf_stance.csv": "445e9a4dcc7127b8aa04f927a984f224c7b12d0fbc6520fdb9bf9b1b9d9821ff",
        "knee_loop.csv": "8242fe18d7eea6a9ddd5c66311d30d04ec7648a68b9e0382c33e32fd1267c7df",
        "meta.json": "1d8a5615c43e10d869155ca4db55b09d4fc7c278289eca3bedecf7121bd4c909",
        "moments.csv": "97fc1edd414e5949bba511f37ecd038d4ff795d62715d02b6e08026394da55f3",
        "moments_stance.csv": "d6545703fb722a7708b04bc7af38c7280d395b1a7e0a11cfcb65d3e2de099e67",
        "stride_metrics.csv": "70903c379aeafc617e8e04ce87647f2c67f803aa4a6c4f16189a5ee8fb54c1ff",
    }

    @staticmethod
    def _digests(directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.iterdir())}

    #: ``simulate`` of the stride preset over a plate under 14 cm of sand:
    #: F_z and the moment of the buried record, every other file as firm
    SAND_SIMULATE = {
        **SIMULATE,
        "grf.csv": "c088055db1b930f5ba353afd4ed9905165f0ace1060afbdf869d4325a3765f02",
        "meta.json": "0f92b882be6b01a6df31bd64e858568c1bf40fcdcfab1c45b30d882101b7e807",
        "profile.json": "55f144fda51ccdd8062200f40bd5c927a7b8c4b784bf33000f0c062122615626",
    }

    #: ``simulate`` of four more trials, each by its own branch of the
    #: generator: a 5 s stride walk (5001 GRF samples, so two
    #: ``synth._CHAIN_BLOCK`` blocks), the stride preset with the hips on
    #: the midline (``hip_half_width`` 0, the left hip's y is -0.0), the
    #: stride preset with the plate under the left foot (the COP on the left
    #: foot, the ground load on the left leg's truth) and the standing preset
    #: (fixed COP, stance windows given, no events)
    MORE_SIMULATE = {
        "stride_5s": {
            "grf.csv": "395dee722f68284b760b1d50c0a16227143e813b2f2d7109e800285454b1535d",
            "markers.csv": "a23361b3639b3aa15e8cae7852d3a5a97860cb37bacf0b070c08a96017f7265a",
            "meta.json": "0b405ae0ee5f930c9dfd9e12ddca50794b6c64df9176ad316c58dd9bba514a8c",
            "profile.json": "bae490e38bd71dcc8ba41e4432297dea19834d75b582c06800a1698c5e71a405",
            "truth_events.csv": "40a8385d6b27e79d5ad7b987589060685dd0ab7191ecb0d8db74b543450bdf74",
            "truth_moments.csv": "3109396de32f910e346a2d9b2546873701592da673a0aac746aaa9903301d61c",
        },
        "midline_hips": {
            **SIMULATE,
            "grf.csv": "e0245bbd499476b2a1baa94aab1918458ec493418d7847e4e0588b2636f87773",
            "markers.csv": "de2bb42b18a32e07613a699a429e64b4012176839cc3f7f0321e8ed3867f693f",
            "profile.json": "40323b188e165f341cc7be1940552511c259a345001d8919dca763de0d6af895",
        },
        "left_plate": {
            **SIMULATE,
            "grf.csv": "f27a6acf70e7d485e7fe3ca0e236d449023b0c1cf2f29dadee799a0dd9ca4b91",
            "profile.json": "e88a431816b6b63204f9b93d1fe929b41d7f8cc5925b27738f9135a9d55d82b3",
            "truth_moments.csv": "98256fb4d8fb88da2d7e0e033ae518784187809596701b81f8d83f81a9549b11",
        },
        "standing": {
            "grf.csv": "eded9079f77eadf8125be2c24b12ac82234b839a50f7f02ca31046adf88f5a39",
            "markers.csv": "7d280a9d8952e3fe3a0dec719800452ed7d5eb99e48533066c71ff34489e50d0",
            "meta.json": "0b405ae0ee5f930c9dfd9e12ddca50794b6c64df9176ad316c58dd9bba514a8c",
            "profile.json": "29080b8d5889fde8865bf26f106b90b99d84bb5369939a039b4f760897fac042",
            "truth_events.csv": "539d61e3bb731034ff02403e2af8eabfebdc989d693babdd50d3c171639386c1",
            "truth_moments.csv": "17fbc992cc8ed29a592c30aec654a1a3656a0117ad1eadd0f7c6a16165b3d92c",
        },
    }

    def test_simulate_files(self, sim_dir):
        assert self._digests(sim_dir) == self.SIMULATE

    #: the stride-preset change of each ``MORE_SIMULATE`` trial but
    #: ``standing``
    MORE_PROFILES = {"stride_5s": {"duration": 5.0},
                     "midline_hips": {"hip_half_width": 0.0},
                     "left_plate": {"grf_side": "left"}}

    @pytest.mark.parametrize("name", sorted(MORE_SIMULATE))
    def test_more_simulate_files(self, tmp_path, name):
        if name == "standing":
            argv = ["--preset", "standing"]
        else:
            profile = replace(synth.stride_profile(),
                              **self.MORE_PROFILES[name])
            profile.save(tmp_path / "profile.json")
            argv = ["--profile", str(tmp_path / "profile.json")]
        out = tmp_path / "trial"
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        assert self._digests(out) == self.MORE_SIMULATE[name]

    def test_sand_simulate_files(self, sand_sim_dir):
        assert self._digests(sand_sim_dir) == self.SAND_SIMULATE

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
    #: paths; both files re-recorded with the moment-derived digests above
    #: (the knee stiffness slopes moved)
    COMPARE = {
        "report.csv": "c34f029ec893530fa2050e3dbf2d0fb9bd3102d6e0fa7012fd3711f9ffd572d8",
        "report.json": "ba4807adc7f23a62e9fd621f9e6502c201f0739e0c6a76744fb654dc7eb0c859",
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
            feats["scalars"]["fz_hs_peak"] += 0.09 + 0.01 * k
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
        # an analyze that fails on its last write (a path error, exit 1)
        # leaves no meta.json, so compare does not take the directory for a
        # bundle with missing metrics; an older bundle there loses its
        # meta.json first
        pid = json.loads((sim_dir / "meta.json").read_text())["participant"]["id"]
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2", pid],
                          ["p1", "p2", pid])
        (a / pid / "features.json").unlink()
        (a / pid / "features.json").mkdir()
        assert main(["analyze", "--markers", str(sim_dir / "markers.csv"),
                     "--grf", str(sim_dir / "grf.csv"),
                     "--meta", str(sim_dir / "meta.json"),
                     "--out", str(a / pid)]) == 1
        assert not (a / pid / "meta.json").exists()
        (a / pid / "features.json").rmdir()
        out = tmp_path / "report"
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["participants"] == ["p1", "p2"]
        assert len(report["rows"]) == 25

    def test_missing_scalar_excluded_with_one_warning(self, tmp_path,
                                                      bundle_dir):
        # a scalar one bundle lacks is left out of the intersection and
        # named in one warning
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2"], ["p1", "p2"])
        _edit_features(a / "p2", lambda s: s.pop("stride_length"))
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

    def test_reads_meta_and_features_only(self, tmp_path, bundle_dir,
                                          monkeypatch):
        # per bundle, meta.json and then features.json, and no other file
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2"], ["p1", "p2"])
        reads, read_bytes = [], Path.read_bytes

        def reading(path):
            reads.append(Path(path).relative_to(tmp_path).as_posix())
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", reading)
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(tmp_path / "report")]) == 0
        assert reads == [f"{g}/{pid}/{name}" for g in "ab"
                         for pid in ("p1", "p2")
                         for name in ("meta.json", "features.json")]

    def test_new_scalar_reaches_the_report(self, tmp_path, sim_dir,
                                           monkeypatch):
        # a scalar that bundle_scalars adds is tested with no edit to compare
        original = pipeline.bundle_scalars
        monkeypatch.setattr(pipeline, "bundle_scalars", lambda result: {
            **original(result), "dummy_scalar": 2.5})
        assert main(_analyze_argv(sim_dir, tmp_path / "bundle")) == 0
        a, b = self._sets(tmp_path, tmp_path / "bundle", ["p1", "p2"],
                          ["p1", "p2"])
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(tmp_path / "report")]) == 0
        rows = (tmp_path / "report" / "report.csv").read_text().splitlines()
        assert "dummy_scalar,2,2.5,0,2.5,0,0,1,0," in rows

    def test_equal_nonzero_differences_keep_the_report(self, tmp_path,
                                                       bundle_dir):
        # both participants' GRF features are higher in b by the same
        # amount: those rows read t = -inf, p = 0, and every other row is
        # still written
        grf = ("fx_bwd_peak", "fx_fwd_peak", "fz_hs_peak", "fz_hump1",
               "fz_hump2")
        a, b = self._sets(tmp_path, bundle_dir, ["p1", "p2"], ["p1", "p2"])
        for pid in ("p1", "p2"):
            _edit_features(b / pid, lambda s: s.update(
                {key: s[key] + 0.125 for key in grf}))
        out = tmp_path / "report"
        assert main(["compare", "--a", str(a), "--b", str(b),
                     "--out", str(out)]) == 0
        rows = {r["metric"]: r for r in
                json.loads((out / "report.json").read_text())["rows"]}
        assert len(rows) == 25
        for metric, row in rows.items():
            want = ((-math.inf, 0.0, True) if metric in grf
                    else (0.0, 1.0, False))
            assert (row["t"], row["p"], row["significant"]) == want, metric
        lines = (out / "report.csv").read_text().splitlines()
        assert sum(",-inf,0," in line and line.endswith(",*")
                   for line in lines) == len(grf)

    def test_round_off_difference_is_none(self, tmp_path, sim_dir):
        # firm: the stride preset; sand: its own record buried under 6 cm
        # by simulate and rescaled by analyze.  Each participant is analysed
        # at the default filter window and at 9.  The zeta round trip moves
        # fz_hs_peak by about 1e-13 BW alike in both pairs: no difference.
        # (The knee stiffness slopes, fitted to moments of the %.9f GRF
        # text, differ by about 1e-11 of their values and are not checked.)
        _, sand = _simulate_sand(tmp_path / "trial", 6.0)
        (tmp_path / "cfg.json").write_text('{"filter_window": 9}')
        for pid, config in (("p1", []), ("p2", ["--config",
                                                str(tmp_path / "cfg.json")])):
            for group, trial in (("a", sim_dir), ("b", sand)):
                bundle = tmp_path / group / pid
                assert main(["analyze", *config,
                             "--markers", str(trial / "markers.csv"),
                             "--grf", str(trial / "grf.csv"),
                             "--meta", str(trial / "meta.json"),
                             "--out", str(bundle)]) == 0
                meta = json.loads((bundle / "meta.json").read_text())
                meta["participant_id"] = pid
                (bundle / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "report"
        assert main(["compare", "--a", str(tmp_path / "a"),
                     "--b", str(tmp_path / "b"), "--out", str(out)]) == 0
        rows = {r["metric"]: r for r in
                json.loads((out / "report.json").read_text())["rows"]}
        assert len(rows) == 25
        for metric in ("fx_bwd_peak", "fx_fwd_peak", "fz_hs_peak",
                       "fz_hump1", "fz_hump2"):
            row = rows[metric]
            assert (row["t"], row["p"], row["cohens_d"],
                    row["significant"]) == (0.0, 1.0, 0.0, False), metric


def _edit_features(bundle, change):
    """Apply ``change`` to the ``scalars`` object of a bundle's
    features.json."""
    path = bundle / "features.json"
    feats = json.loads(path.read_text())
    change(feats["scalars"])
    path.write_text(json.dumps(feats))
