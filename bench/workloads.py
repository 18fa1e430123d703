"""The three workloads: how each builds its inputs and which operations it
times.  Each ``setup_*`` function generates the workload's inputs from the
seed, writes them where the program reads them, and returns the operations
in the order they are timed plus one warm-up operation.

An operation is one call sequence a user of ``sandgait`` would make:
``sandgait analyze`` (read the trial, analyze it, write the bundle),
``sandgait calibrate``, ``sandgait compare`` or ``sandgait simulate``.
"""
from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sandgait import cli, ingest, pipeline, synth

import checks
import inputs

TRIAL_S = 3.0          # study and short simulate trials
COHORT = 20            # participants, each walking on firm ground and on sand
PERIOD_S = (1.15, 1.35)  # firm gait cycle; at 1.05 s the filter error nears 1%
SAND_SLOWER = (1.06, 1.14)  # sand cycle / firm cycle
LONG_S = 20.0          # long_trial walks
LONG_WALKS = 2
LONG_PASSES = 3        # each long walk is analysed this many times
LONG_GAPS = 90         # marker dropouts per long walk, 1..max_gap_frames long
SIM_PROFILES = 12      # every fourth is SIM_LONG_S long, the rest TRIAL_S
SIM_LONG_S = 12.0


@dataclass
class Op:
    """One timed operation and the check of its output."""

    run: Callable[[], object]
    check: Callable[[object], list[str]]
    frames: int = 0           # marker frames handled
    trial: bool = True        # counted in trial_ms_p50
    fault: str | None = None  # check allowed to fail: a known program fault
    bundle: Path | None = None


def run_cli(argv: list[str]) -> int:
    """``sandgait <argv>``, with its progress line kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def analyze(trial_dir: Path, out: Path, calibration: Path | None = None):
    """What ``sandgait analyze`` does for one trial."""
    meta = ingest.read_meta_file(trial_dir / "meta.json")
    cfg = pipeline.RunConfig(calibration=str(calibration) if calibration else None)
    trial = ingest.parse_trial(trial_dir / "markers.csv", trial_dir / "grf.csv",
                               meta, schema=cfg.load_schema())
    result = pipeline.analyze_trial(trial, cfg)
    pipeline.write_bundle(result, out)
    return result


def write_trial(d: Path, markers, grf, meta) -> None:
    d.mkdir(parents=True, exist_ok=True)
    ingest.write_marker_file(d / "markers.csv", markers)
    ingest.write_grf_file(d / "grf.csv", grf)
    ingest.write_meta_file(d / "meta.json", meta)


def trial_check(w: inputs.Walk, res) -> Callable[[object], list[str]]:
    """All checks of one analysed trial against its synthesized truth."""
    dt = w.profile.marker_dt
    mass = w.profile.participant.mass

    def check(result) -> list[str]:
        return (checks.events(result, res.truth_events, dt)
                + checks.moments(result, res.truth_moments, res.stance_windows,
                                 res.marker_time, mass)
                + checks.strides(result, w.period, w.speed, dt)
                + checks.stance_grf(result, res.grf, res.stance_windows,
                                    mass * 9.81))
    return check


def setup_study(rng, work: Path, tracer):
    """A cohort in the paper's design: every participant walks about 3 s on
    firm ground and, more slowly, on sand over a buried plate; the timed
    phase fits the sand curve, analyses every trial and compares the two
    conditions."""
    samples = work / "calibration_samples.csv"
    with open(samples, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["depth_cm", "f_surface_n", "f_buried_n"])
        w.writerows([repr(v) for v in row]
                    for row in inputs.calibration_samples(rng))
    curve = work / "curve.csv"

    trials = []
    for i in range(COHORT):
        p = inputs.participant(rng, f"p{i + 1:02d}")
        period = rng.uniform(*PERIOD_S)
        slow = rng.uniform(*SAND_SLOWER)
        depth = round(float(rng.uniform(4.0, 16.0)), 1)
        trials.append(inputs.walk(f"firm/{p.id}", p, period, TRIAL_S))
        trials.append(inputs.walk(f"sand/{p.id}", p, period * slow, TRIAL_S,
                                  "sand", depth))

    ops = [Op(run=lambda: run_cli(["calibrate", "--samples", str(samples),
                                "--out", str(curve)]),
              check=lambda rc: [f"calibrate exited {rc}"] if rc else
              checks.calibration(curve, inputs.ZETA_DEPTHS, inputs.ZETA_KNOTS),
              trial=False)]
    for k, w in enumerate(trials):
        tracer.request = ("input", k)
        res = synth.synthesize_gait(w.profile)
        grf = res.grf
        if w.profile.terrain == "sand":
            grf = inputs.buried_record(grf, w.profile.sand_depth)
        write_trial(work / "in" / w.name, res.markers, grf, res.meta)
        sand = w.profile.terrain == "sand"
        out = work / "out" / w.name
        ops.append(Op(
            run=lambda w=w, out=out, sand=sand: analyze(
                work / "in" / w.name, out, curve if sand else None),
            check=trial_check(w, res), frames=len(res.marker_time),
            # analyze_trial rescales F_z by 1/zeta but keeps the recorded
            # plate-origin moment, so sand moments are wrong
            fault="moments:" if sand else None, bundle=out))
    tracer.request = None

    report = work / "report"
    ops.append(Op(
        run=lambda: run_cli(["compare", "--a", str(work / "out" / "firm"),
                          "--b", str(work / "out" / "sand"),
                          "--out", str(report)]),
        check=lambda rc: [f"compare exited {rc}"] if rc else checks.compare(
            report / "report.json", work / "out" / "firm", work / "out" / "sand"),
        trial=False))
    warmup = lambda: analyze(work / "in" / trials[0].name, work / "warmup")
    return ops, warmup


def setup_long_trial(rng, work: Path, tracer):
    """A few long continuous firm walks with short seeded marker dropouts,
    none longer than the gap filler's limit; every walk is analysed
    LONG_PASSES times."""
    max_gap = pipeline.RunConfig().max_gap_frames
    walks = []
    for k in range(LONG_WALKS):
        tracer.request = ("input", k)
        p = inputs.participant(rng, f"w{k + 1}")
        w = inputs.walk(f"walk{k + 1}", p, rng.uniform(*PERIOD_S), LONG_S)
        res = synth.synthesize_gait(w.profile)
        markers = inputs.drop_markers(res.markers, rng, LONG_GAPS, max_gap)
        write_trial(work / "in" / w.name, markers, res.grf, res.meta)
        walks.append((w, res))
    tracer.request = None

    ops = []
    for n in range(LONG_PASSES):
        for w, res in walks:
            out = work / "out" / f"{w.name}-{n}"
            ops.append(Op(
                run=lambda w=w, out=out: analyze(work / "in" / w.name, out),
                check=trial_check(w, res), frames=len(res.marker_time),
                bundle=out))
    warmup = lambda: analyze(work / "in" / walks[0][0].name, work / "warmup")
    return ops, warmup


def setup_simulate(rng, work: Path, tracer):
    """``sandgait simulate`` on a seeded mix of short and long profiles;
    every fourth profile is long."""
    ops = []
    for k in range(SIM_PROFILES):
        duration = SIM_LONG_S if k % 4 == 3 else TRIAL_S
        p = inputs.participant(rng, f"s{k + 1:02d}")
        w = inputs.walk(f"sim{k + 1:02d}", p, rng.uniform(*PERIOD_S), duration)
        path = work / f"{w.name}.json"
        w.profile.save(path)
        out = work / "out" / w.name
        ops.append(Op(
            run=lambda path=path, out=out: run_cli(
                ["simulate", "--profile", str(path), "--out", str(out)]),
            check=lambda rc, out=out, w=w: [f"simulate exited {rc}"] if rc else
            checks.simulated_files(out, w),
            frames=int(round(duration / w.profile.marker_dt)) + 1))
    first = work / "sim01.json"
    warmup = lambda: run_cli(["simulate", "--profile", str(first),
                              "--out", str(work / "warmup")])
    return ops, warmup


SETUP = {"study": setup_study, "long_trial": setup_long_trial,
         "simulate": setup_simulate}
