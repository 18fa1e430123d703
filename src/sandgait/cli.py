"""Batch command-line interface.

Exit codes: 0 success, 1 bad input or configuration, 2 numerical or
data-contract failure during processing.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import forces, ingest, metrics, synth
from .errors import (ConfigurationError, FormatError, GaitError,
                     GaitInputError, InsufficientDataError)
from .pipeline import RunConfig, analyze_trial, atomic_write, write_bundle

log = logging.getLogger("sandgait")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROCESSING = 2

CONFIG_ENV = "SANDGAIT_CONFIG"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad arguments are an
    # input problem here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _load_config(args) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    return RunConfig.from_file(path) if path else RunConfig()


def cmd_calibrate(args) -> int:
    samples = forces.read_calibration_samples(args.samples)
    curve = forces.fit_calibration(samples)
    forces.write_calibration_curve(args.out, curve)
    for depth, zeta, resid, n in zip(curve.depths, curve.zeta,
                                     curve.residual, curve.n):
        print(f"depth {depth:5.1f} cm  zeta {zeta:.4f}  "
              f"rms residual {resid:.3g} N  (n={n})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    if args.calibration:
        cfg.calibration = args.calibration
    meta = ingest.read_meta_file(args.meta)
    if args.terrain or args.sand_depth is not None:
        meta = ingest.TrialMeta(
            participant=meta.participant,
            terrain=args.terrain or meta.terrain,
            sand_depth=(args.sand_depth if args.sand_depth is not None
                        else meta.sand_depth),
            sync_offset=meta.sync_offset)
    trial = ingest.parse_trial(args.markers, args.grf, meta,
                               schema=cfg.load_schema())
    result = analyze_trial(trial, cfg)
    write_bundle(result, args.out)
    for w in result.warnings:
        log.warning("%s", w)
    n_ev = sum(len(ev.heel_strikes) + len(ev.toe_offs)
               for ev in (result.events.left, result.events.right) if ev)
    print(f"analyzed {result.participant_id} ({result.terrain}): "
          f"{n_ev} gait events, plate side {result.plate_side}, "
          f"bundle written to {args.out}")
    return EXIT_OK


def _bundle_dirs(root: Path) -> list[Path]:
    if (root / "meta.json").exists():
        return [root]
    dirs = sorted(p for p in root.iterdir()
                  if p.is_dir() and (p / "meta.json").exists())
    if not dirs:
        raise ConfigurationError(f"{root}: no analysis bundles found")
    return dirs


def _bundle_scalars(bundle: Path) -> tuple[str, dict[str, float]]:
    """Flatten one bundle into participant id + scalar metric values."""
    meta = json.loads((bundle / "meta.json").read_text())
    out: dict[str, float] = {}

    sm = bundle / "stride_metrics.csv"
    if sm.exists():
        with open(sm) as fh:
            reader = csv.DictReader(
                line for line in fh if not line.startswith("#"))
            rows = list(reader)
        for key in reader.fieldnames or ():
            if key in ("side", "cycle_start_s"):
                continue
            vals = [float(r[key]) for r in rows
                    if r[key] and not math.isnan(float(r[key]))]
            if vals:
                out[key] = float(np.mean(vals))

    fj = bundle / "features.json"
    if fj.exists():
        feats = json.loads(fj.read_text())
        grf = feats.get("grf", {})
        for key in ("fx_fwd_peak", "fx_bwd_peak", "fz_hs_peak",
                    "fz_hump1", "fz_hump2"):
            if grf.get(key) is not None:
                out[key] = float(grf[key])
        stiff = feats.get("knee_stiffness", {})
        for key in ("k_flexion", "k_extension", "k_swing"):
            if key in stiff:
                out[key] = float(stiff[key]["slope"])
        for side, joints in feats.get("peak_angles_deg", {}).items():
            for joint, v in joints.items():
                out[f"peak_{joint}_{side}"] = float(v)
        fracs = [c["stance_fraction"]
                 for cycles in feats.get("stance_fractions", {}).values()
                 for c in cycles]
        if fracs:
            out["stance_fraction"] = float(np.mean(fracs))
    return meta["participant_id"], out


def cmd_compare(args) -> int:
    groups = {}
    for name, root in (("a", Path(args.a)), ("b", Path(args.b))):
        groups[name] = {}
        for bundle in _bundle_dirs(root):
            pid, scalars = _bundle_scalars(bundle)
            if pid in groups[name]:
                log.warning("duplicate bundle for participant %s in %s; "
                            "keeping the first", pid, root)
                continue
            groups[name][pid] = scalars

    paired = sorted(set(groups["a"]) & set(groups["b"]))
    for name in ("a", "b"):
        for pid in sorted(set(groups[name]) - set(paired)):
            log.warning("participant %s has no pair in the other condition; "
                        "excluded", pid)
    if len(paired) < 2:
        raise InsufficientDataError(
            f"need at least 2 paired participants, got {len(paired)}")

    found = [set(groups[g][pid]) for g in ("a", "b") for pid in paired]
    common = sorted(set.intersection(*found))
    missing = sorted(set.union(*found) - set(common))
    if missing:
        log.warning("metrics missing from some bundles; excluded: %s",
                    ", ".join(missing))
    report = []
    for metric in common:
        a = [groups["a"][pid][metric] for pid in paired]
        b = [groups["b"][pid][metric] for pid in paired]
        row = {"metric": metric, **metrics.paired_compare(a, b)}
        report.append(row)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["metric", "n", "mean_a", "sd_a", "mean_b", "sd_b",
              "t", "p", "cohens_d", "significant"]
    lines = ["# paired comparison: a=%s b=%s" % (args.a, args.b),
             "# effect size: Cohen's d with pooled condition SD",
             ",".join(header)]
    for row in report:
        cells = []
        for key in header:
            v = row[key]
            if key == "significant":
                cells.append("*" if v else "")
            elif isinstance(v, float):
                cells.append(f"{v:.9g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    atomic_write(out / "report.csv", "\n".join(lines) + "\n")
    atomic_write(out / "report.json",
                 json.dumps({"participants": paired, "rows": report},
                            indent=2, sort_keys=True) + "\n")
    n_sig = sum(r["significant"] for r in report)
    print(f"compared {len(paired)} paired participants across "
          f"{len(report)} metrics; {n_sig} significant at p < 0.05")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.profile:
        profile = synth.GaitProfile.load(args.profile)
    elif args.preset == "standing":
        profile = synth.standing_profile()
    else:
        profile = synth.stride_profile()
    result = synth.synthesize_gait(profile)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_marker_file(out / "markers.csv", result.markers)
    ingest.write_grf_file(out / "grf.csv", result.grf)
    ingest.write_meta_file(out / "meta.json", result.meta)
    profile.save(out / "profile.json")

    # ground truth for test harnesses
    lines = ["side,event,time_s"]
    for side in ("left", "right"):
        ev = result.truth_events.side(side)
        pairs = ([(t, "heel_strike") for t in ev.heel_strikes]
                 + [(t, "toe_off") for t in ev.toe_offs])
        lines += [f"{side},{kind},{t:.6f}" for t, kind in sorted(pairs)]
    atomic_write(out / "truth_events.csv", "\n".join(lines) + "\n")

    lines = ["time,side,ankle_nm,knee_nm,hip_nm"]
    for side in ("left", "right"):
        tm = result.truth_moments[side]
        for i, t in enumerate(result.marker_time):
            lines.append(f"{t:.6f},{side},"
                         + ",".join(f"{tm[j][i]:.9f}"
                                    for j in ("ankle", "knee", "hip")))
    atomic_write(out / "truth_moments.csv", "\n".join(lines) + "\n")
    print(f"simulated trial written to {out} "
          f"({len(result.markers)} marker frames, {len(result.grf)} GRF samples)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sandgait",
                     description="Gait analysis on solid ground and sand: "
                                 "calibration, trial analysis, paired "
                                 "comparison, and synthetic trials.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate",
                       help="fit a sand-depth force calibration curve")
    p.add_argument("--samples", required=True,
                   help="CSV of depth_cm,f_surface_n,f_buried_n samples")
    p.add_argument("--out", required=True, help="output curve CSV")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("analyze", help="analyze one walking trial")
    p.add_argument("--markers", required=True, help="marker trajectory CSV")
    p.add_argument("--grf", required=True, help="force-plate CSV")
    p.add_argument("--meta", required=True, help="trial metadata JSON")
    p.add_argument("--config",
                   help=f"pipeline config JSON (default: ${CONFIG_ENV})")
    p.add_argument("--terrain", choices=("solid", "sand"),
                   help="override the metadata terrain")
    p.add_argument("--sand-depth", type=float,
                   help="override the metadata sand depth (cm)")
    p.add_argument("--calibration", help="calibration curve CSV")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare",
                       help="paired comparison of two bundle sets")
    p.add_argument("--a", required=True, help="bundle directory, condition A")
    p.add_argument("--b", required=True, help="bundle directory, condition B")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="generate a synthetic trial")
    p.add_argument("--profile", help="gait profile JSON")
    p.add_argument("--preset", choices=("stride", "standing"),
                   default="stride", help="built-in profile (default: stride)")
    p.add_argument("--out", required=True, help="output trial directory")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except GaitInputError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except GaitError as exc:
        log.error("%s", exc)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
