"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check must pass on the program's real output and fail once that
output is perturbed by a little more than the check allows.  Exits 0 when
every check does both.
"""
import copy
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from sandgait import forces, synth  # noqa: E402
from sandgait.model import Participant  # noqa: E402

FAILURES = []


def expect(name: str, errors: list[str], should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    print(f"{'ok  ' if ok else 'BAD '} {name}: "
          f"{errors[0] if errors else 'passes'}")
    if not ok:
        FAILURES.append(name)


def trial_checks(work: Path) -> None:
    p = Participant(id="t01", height=1.76, mass=71.0)
    w = inputs.walk("firm/t01", p, 1.15, workloads.TRIAL_S)
    res = synth.synthesize_gait(w.profile)
    workloads.write_trial(work / "in", res.markers, res.grf, res.meta)
    result = workloads.analyze(work / "in", work / "out")
    check = workloads.trial_check(w, res)
    expect("trial checks on real output", check(result), False)

    dt = w.profile.marker_dt
    bad = copy.deepcopy(result)
    for joint in checks.JOINTS:
        bad.moments["right"].normalized[joint] *= 1.05
    expect("moments x1.05", check(bad), True)

    bad = copy.deepcopy(result)
    bad.moments["right"].normalized["knee"][len(result.time) // 2:] = np.nan
    expect("moments with NaN frames", check(bad), True)

    bad = copy.deepcopy(result)
    bad.events.right.heel_strikes[0] += 2 * dt
    expect("heel strike shifted two frames", check(bad), True)

    bad = copy.deepcopy(result)
    bad.stride_rows[0]["swing_time"] += 3 * dt
    expect("stride time three frames long", check(bad), True)

    bad = copy.deepcopy(result)
    bad.stride_rows[0]["avg_velocity"] *= 1.02
    expect("stride speed x1.02", check(bad), True)

    bad = copy.deepcopy(result)
    bad.stride_rows[-1]["stride_length"] += 0.01
    expect("stride length +1 cm", check(bad), True)

    bad = copy.deepcopy(result)
    bad.grf_stance["fz"].values *= 1.015
    expect("stance F_z x1.015", check(bad), True)

    # a sand trial fails the moment check, and only that one
    s = inputs.walk("sand/t01", p, 1.25, workloads.TRIAL_S, "sand", 10.0)
    res = synth.synthesize_gait(s.profile)
    grf = inputs.buried_record(res.grf, 10.0)
    workloads.write_trial(work / "sand", res.markers, grf, res.meta)
    curve = work / "curve.csv"
    forces.write_calibration_curve(curve, forces.fit_calibration(
        inputs.calibration_samples(np.random.default_rng(0))))
    result = workloads.analyze(work / "sand", work / "sand-out", curve)
    errors = workloads.trial_check(s, res)(result)
    expect("sand trial (known fault)", errors, True)
    expect("sand trial fails only on moments",
           [e for e in errors if not e.startswith("moments:")], False)


def calibration_checks(work: Path) -> None:
    fitted = forces.fit_calibration(
        inputs.calibration_samples(np.random.default_rng(1)))
    path = work / "curve.csv"
    forces.write_calibration_curve(path, fitted)
    expect("calibration on real fit",
           checks.calibration(path, inputs.ZETA_DEPTHS, inputs.ZETA_KNOTS), False)
    fitted.zeta[3] += 2e-6
    forces.write_calibration_curve(path, fitted)
    expect("calibration zeta +2e-6",
           checks.calibration(path, inputs.ZETA_DEPTHS, inputs.ZETA_KNOTS), True)


def compare_checks(work: Path) -> None:
    rng = np.random.default_rng(7)
    for k in range(3):
        p = inputs.participant(rng, f"c{k}")
        period = rng.uniform(1.05, 1.30)
        for cond, per in (("firm", period), ("sand", period * 1.1)):
            w = inputs.walk(f"{cond}/{p.id}", p, per, workloads.TRIAL_S)
            res = synth.synthesize_gait(w.profile)
            workloads.write_trial(work / "in" / w.name, res.markers, res.grf,
                                   res.meta)
            workloads.analyze(work / "in" / w.name, work / "out" / w.name)
    firm, sand, report = work / "out" / "firm", work / "out" / "sand", work / "rep"
    assert workloads.run_cli(["compare", "--a", str(firm), "--b", str(sand),
                           "--out", str(report)]) == 0
    path = report / "report.json"
    expect("compare on real report", checks.compare(path, firm, sand), False)
    doc = json.loads(path.read_text())

    for key, scale in (("t", 1 + 1e-6), ("p", 1 + 1e-6), ("cohens_d", 1 + 1e-6)):
        bad = copy.deepcopy(doc)
        for row in bad["rows"]:
            if row["metric"] == "stride_length":
                row[key] *= scale
        path.write_text(json.dumps(bad))
        expect(f"compare {key} x(1+1e-6)", checks.compare(path, firm, sand), True)
    bad = copy.deepcopy(doc)
    for row in bad["rows"]:
        if row["metric"] == "avg_velocity":
            row["significant"] = False
    path.write_text(json.dumps(bad))
    expect("compare avg_velocity not significant",
           checks.compare(path, firm, sand), True)
    path.write_text(json.dumps(doc))
    expect("compare with conditions swapped", checks.compare(path, sand, firm), True)


def simulate_checks(work: Path) -> None:
    p = Participant(id="s01", height=1.66, mass=60.0)
    w = inputs.walk("sim", p, 1.2, workloads.TRIAL_S)
    w.profile.save(work / "sim.json")
    out = work / "sim"
    assert workloads.run_cli(["simulate", "--profile", str(work / "sim.json"),
                           "--out", str(out)]) == 0
    expect("simulate on real files",
           checks.simulated_files(out, w), False)

    for name, column, delta in (("marker R-knee_x +1e-6 m", "R-knee_x", 1e-6),
                                ("plate moment my +1e-4 N m", "my", 1e-4)):
        path = out / ("grf.csv" if column == "my" else "markers.csv")
        original = path.read_text()
        lines = original.splitlines()
        col = lines[0].split(",").index(column)
        cells = lines[50].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[50] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        expect(name, checks.simulated_files(out, w), True)
        path.write_text(original)

    expect("simulate against another period", checks.simulated_files(
        out, dataclasses.replace(w, period=1.25)), True)


def main() -> int:
    work = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for part in (trial_checks, calibration_checks, compare_checks,
                     simulate_checks):
            sub = work / part.__name__
            sub.mkdir()
            part(sub)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES
          else "every check passes real output and fails perturbed output")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
