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
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sandgait.cli", "compare", "--a", str(a),
             "--b", str(b), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        warned = [line for line in proc.stderr.splitlines()
                  if "excluded: " in line]
        assert len(warned) == 1 and "stride_length" in warned[0]
        report = json.loads((out / "report.json").read_text())
        metrics = {row["metric"] for row in report["rows"]}
        assert "stride_length" not in metrics and "fz_hs_peak" in metrics
