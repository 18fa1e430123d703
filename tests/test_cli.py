import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _run_cli(*argv):
    return _run_python("-m", "sandgait.cli", *argv)


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


def _bad_zeta_cell(sim, tmp):
    (tmp / "curve.csv").write_text("depth_cm,zeta,residual,n\n"
                                   "0,1,0,0\n20,0.7x,0,12\n")
    return ({"--calibration": tmp / "curve.csv", "--terrain": "sand",
             "--sand-depth": "10"}, "curve.csv:3:")


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
    ("analyze", _bad_marker_cell), ("analyze", _bad_zeta_cell),
    ("analyze", _heavy_meta), ("analyze", _list_meta),
    ("analyze", _non_utf8_markers),
    ("analyze", _meta("_negative_mass",
                      lambda m: m["participant"].update(mass_kg=-3),
                      "participant 'synthetic': mass must be > 0")),
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
                "compare": {"--out": tmp_path / "report"}}[command]
        changed, named = fixture(bundle_dir if command == "compare"
                                 else sim_dir, tmp_path)
        args.update(changed)
        proc = _run_cli(command, *(str(x) for kv in args.items() for x in kv))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr


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
    (written to CSV and read back) and the bundle of a gappy copy, by
    SHA-256, as recorded with numpy 2.4.6 and scipy 1.17.1.  Reruns of one
    commit are compared elsewhere; these digests catch a change of output
    bytes between commits.  A change that alters them on purpose re-records
    them and says why; so does a numpy or scipy upgrade that alters them."""

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
                dst = tmp_path / group / pid
                shutil.copytree(bundle_dir, dst)
                meta = json.loads((dst / "meta.json").read_text())
                meta["participant_id"] = pid
                (dst / "meta.json").write_text(json.dumps(meta))
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
