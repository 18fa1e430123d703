"""Batch command-line interface.

Exit codes: 0 success, 1 bad input or configuration, 2 numerical or
data-contract failure during processing.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import forces, ingest, metrics, synth
from .errors import (ConfigurationError, GaitError, GaitInputError,
                     InsufficientDataError, read_json_as)
from .model import check_participant_id
from .pipeline import RunConfig, analyze_trial, write_bundle
from .schema import SIDES

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


def _echo(line: str) -> None:
    """``print(line)``, escaping what stdout cannot encode; under the C
    locale an argv path still prints as its surrogate-escaped bytes."""
    while True:
        try:
            return print(line)
        except UnicodeEncodeError as e:
            bad = line[e.start:e.end].encode("ascii", "backslashreplace")
            line = line[:e.start] + bad.decode() + line[e.end:]


def _load_config(args) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    return RunConfig.from_file(path) if path else RunConfig()


def cmd_calibrate(args) -> int:
    samples = forces.read_calibration_samples(args.samples)
    curve = forces.fit_calibration(samples)
    forces.write_calibration_curve(args.out, curve)
    for depth, zeta, resid, n in zip(curve.depths, curve.zeta,
                                     curve.residual, curve.n):
        _echo(f"depth {depth:5.1f} cm  zeta {zeta:.4f}  "
              f"rms residual {resid:.3g} N  (n={n})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    if args.calibration is not None:
        if not args.calibration:
            raise ConfigurationError("--calibration must name a file, got ''")
        cfg = replace(cfg, calibration=args.calibration)
    meta = ingest.read_meta_file(args.meta)
    try:
        meta = replace(meta, terrain=args.terrain or meta.terrain,
                       sand_depth=(args.sand_depth if args.sand_depth is not None
                                   else meta.sand_depth))
    except ConfigurationError as exc:  # the file's values passed on reading
        if args.sand_depth is None:
            raise
        raise ConfigurationError(f"--sand-depth: {exc}") from None
    # the config's files are read before the trial's, and parsed once
    trial = ingest.parse_trial(args.markers, args.grf, meta, cfg.load_schema())
    result = analyze_trial(trial, cfg)
    write_bundle(result, args.out)
    for w in result.warnings:
        log.warning("%s", w)
    n_ev = len(result.events.rows())
    _echo(f"analyzed {result.participant_id} ({result.terrain}): "
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


def _scalars(feats) -> dict[str, float]:
    """The ``scalars`` object of a bundle's features.json, every value a
    number; without one the bundle must be re-analysed."""
    scalars = feats.get("scalars") if isinstance(feats, dict) else None
    if not isinstance(scalars, dict):
        raise ConfigurationError("no 'scalars' object; re-run analyze")
    for key, v in scalars.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigurationError(f"scalar {key!r} is not a number, got "
                                     f"{v!r}; re-run analyze")
    return scalars


def _bundle_scalars(bundle: Path) -> tuple[str, dict[str, float]]:
    """Flatten one bundle into participant id + scalar metric values."""
    pid = read_json_as(bundle / "meta.json",
                       lambda meta: check_participant_id(
                           meta["participant_id"]),
                       "bundle metadata")
    return pid, read_json_as(bundle / "features.json", _scalars, "features")


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
    keys = ["metric", "n", "mean_a", "sd_a", "mean_b", "sd_b", "t", "p",
            "cohens_d"]
    ingest.write_rows(
        out / "report.csv", f"# paired comparison: a={args.a} b={args.b}\n"
        f"# effect size: Cohen's d with pooled condition SD\n"
        f"{','.join(keys)},significant", "%s,%d" + ",%.9g" * 7 + ",%s\n",
        [np.array([[r[k] for k in keys] + ["*" if r["significant"] else ""]
                   for r in report], dtype=object)])
    ingest.write_json(out / "report.json", {"participants": paired, "rows": report})
    n_sig = sum(r["significant"] for r in report)
    _echo(f"compared {len(paired)} paired participants across "
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
    grf = result.grf
    if profile.terrain == "sand":  # what a plate under the sand layer reads
        zeta = forces.default_calibration_curve().zeta_at(profile.sand_depth)
        grf = forces.with_vertical_force(grf, grf.force[:, 2] * zeta)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_marker_file(out / "markers.csv", result.markers)
    ingest.write_grf_file(out / "grf.csv", grf)
    ingest.write_meta_file(out / "meta.json", result.meta)
    profile.save(out / "profile.json")

    # ground truth for test harnesses
    ingest.write_rows(out / "truth_events.csv", "side,event,time_s",
                      "%s,%s,%.6f\n",
                      [np.array(result.truth_events.rows(), dtype=object)])

    # the rows of one side, then the other's: each side is text of its row
    # format, so every cell is a number
    tm = result.truth_moments
    ingest.write_row_groups(
        out / "truth_moments.csv", "time,side,ankle_nm,knee_nm,hip_nm",
        [(f"%.6f,{side},%.9f,%.9f,%.9f\n", [result.marker_time]
          + [tm[side][j] for j in ("ankle", "knee", "hip")])
         for side in SIDES])
    _echo(f"simulated trial written to {out} "
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
    except OSError as exc:  # a path that cannot be read or written
        log.error("%s", exc)
        return EXIT_INPUT
    except GaitError as exc:
        log.error("%s", exc)
        return EXIT_PROCESSING
    except Exception as exc:  # a fault of sandgait itself, not of the input
        if args.verbose:
            raise
        log.error("internal error: %s: %s (rerun with --verbose for the "
                  "traceback)", type(exc).__name__, exc)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
