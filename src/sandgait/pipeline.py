"""End-to-end trial analysis, plus the on-disk artifact bundle.

``analyze_trial`` runs named stages on whole arrays: ``_surface_grf`` (the
sand rescale), gap-fill and alignment, ``_plate_load`` (the plate side, its
ground load and the frames it loads, under the one plate threshold), then
one ``(N, k, 3)`` stack of every landmark a later stage reads, from which
come the segment lengths, the smoothing (once per window), one
``kinematics.segment_states`` call per leg, the events and one cycle table
per side, inverse dynamics, ``_plate_stance`` (the plate row), then the
outcome curves and scalars, read from rows of the two cycle tables.  This
module is the only analysis module that reads the marker schema.  Each
intermediate is released after the last stage that reads it, so one
analysis holds little more than the stage it runs.  Every output embeds
the config hash.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import dynamics, forces, gaitseg, kinematics, metrics
from .errors import (ConfigurationError, GaitError, InsufficientDataError,
                     ParameterError, check_number, read_json_as)
from .forces import CalibrationCurve
from .gaitseg import HS, NEXT_HS, TO, GaitEvents, NormalizedCurve
from .ingest import (GrfData, MarkerData, TrialRecord, align_streams,
                     fill_gaps, write_json, write_rows)
from .model import (GRAVITY, LEG_SEGMENTS, AnthropometricTable,
                    segment_parameters)
from .schema import SIDES, MarkerSchema

#: Config keys that must be odd and >= 1, and those that must be >= 0; every
#: other number must be > 0.  Each is finite.
_ODD_WINDOWS = ("filter_window", "event_filter_window", "grf_smooth_window")
_NON_NEGATIVE = ("max_gap_frames", "plate_threshold_bw")

#: Each leg's landmark chain, proximal to distal, and its segments in order.
_CHAIN = ("hip", "knee", "ankle", "toe")
_CHAIN_SEGMENTS = LEG_SEGMENTS[::-1]  # thigh, shank, foot

#: Each config key that names an input file: its reader, given the path and
#: the file's bytes, and the bundled default that a null key takes.
_INPUT_FILES = {
    "marker_schema": (MarkerSchema.from_file, MarkerSchema.default),
    "anthropometry": (AnthropometricTable.from_file, AnthropometricTable.default),
    "calibration": (forces.read_calibration_curve, forces.default_calibration_curve),
}


@dataclass(frozen=True)
class RunConfig:
    """Pipeline knobs; all numeric defaults are surfaced in reports."""

    marker_schema: str | None = None
    anthropometry: str | None = None
    calibration: str | None = None
    filter_window: int = 7        # frames, marker smoothing before differencing
    event_filter_window: int = 3  # frames, event-detection series smoothing
    grf_smooth_window: int = 21   # raw-rate samples, GRF smoothing
    max_gap_frames: int = 5
    plate_threshold_bw: float = 0.05
    hs_forward_speed: float = 0.2    # m/s, heel speed a strike is under
    to_vertical_speed: float = 0.05  # m/s, toe speed a toe-off rises past
    min_stance_s: float = 0.2        # s, shortest heel strike -> toe-off
    min_swing_s: float = 0.15        # s, shortest toe-off -> heel strike
    gravity: float = GRAVITY

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if problem := _config_problem(f.name, value, f.default):
                raise ConfigurationError(f"{f.name} {problem}, got {value!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return read_json_as(path, cls._from_json, "config", ConfigurationError)

    @classmethod
    def _from_json(cls, doc) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"expected a JSON object of config keys, "
                                     f"got {doc!r}")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
        return cls(**doc)

    @cached_property
    def inputs(self) -> tuple[str, MarkerSchema, AnthropometricTable,
                              CalibrationCurve]:
        """The config hash and what ``_INPUT_FILES`` hold, resolved once:
        each file a key names is read once, and the hash takes the SHA-256
        of those bytes in place of its path before they are parsed."""
        raw = {key: Path(path).read_bytes() for key in _INPUT_FILES
               if (path := getattr(self, key)) is not None}
        doc = asdict(self) | {key: hashlib.sha256(b).hexdigest()
                              for key, b in raw.items()}
        blob = json.dumps(doc, sort_keys=True).encode()
        return (hashlib.sha256(blob).hexdigest()[:16], *(
            read(getattr(self, key), raw[key]) if key in raw else default()
            for key, (read, default) in _INPUT_FILES.items()))

    def config_hash(self) -> str:
        return self.inputs[0]

    def load_schema(self) -> MarkerSchema:
        return self.inputs[1]


def _config_problem(key: str, value, default) -> str | None:
    """What is wrong with one config value's type, taken from the field's
    default (a path is a non-empty string or null, an int field takes no
    bool, a float field takes an int or a float), or with an odd window;
    any other number is held to its rule by ``check_number``."""
    if default is None:
        return (None if value is None or isinstance(value, str) and value
                else "must name a file" if value == ""
                else "must be a path string or null")
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            return "must be an integer"
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    if key in _ODD_WINDOWS:
        return None if value >= 1 and value % 2 else "must be odd and >= 1"
    check_number(key, value, ">= 0" if key in _NON_NEGATIVE else "> 0")
    return None


@dataclass
class AnalysisResult:
    participant_id: str
    terrain: str
    config_hash: str
    events: GaitEvents
    angle_cycle: dict[str, dict[str, NormalizedCurve]]
    moments: dict[str, dynamics.JointMomentSeries]
    moment_stance: dict[str, NormalizedCurve]            # joint -> curve (plate side)
    grf_stance: dict[str, NormalizedCurve]               # "fx"/"fz" in BW
    grf_features: forces.GrfFeatures | None
    stride_rows: list[dict]
    peak_angles: dict[str, dict[str, float]]             # side -> joint -> deg
    stiffness: metrics.StiffnessResult | None
    stance_fractions: dict[str, list[dict]]
    plate_side: str
    time: np.ndarray
    knee_loop: dict[str, np.ndarray]                     # over the plate cycle
    warnings: list[str] = field(default_factory=list)


def _mean_segment_lengths(chains: np.ndarray) -> dict[str, float]:
    """Each leg segment's length: the mean over the sides of its mean over
    the frames it is seen on, from the unsmoothed ``(N, side, 4, 3)`` leg
    chains."""
    norms = np.linalg.norm(np.diff(chains, axis=2), axis=3)  # (N, side, seg)
    lengths = {}
    for j, seg in enumerate(_CHAIN_SEGMENTS):
        per_side = []
        for s, side in enumerate(SIDES):
            seen = norms[:, s, j][np.isfinite(norms[:, s, j])]
            if seen.size == 0:
                raise ConfigurationError(
                    f"cannot measure {side} {seg} length: no valid frames")
            per_side.append(float(seen.mean()))
        lengths[seg] = float(np.mean(per_side))
    return lengths


def _surface_grf(trial: TrialRecord, curve: CalibrationCurve) -> GrfData:
    """The plate record as the surface load: on sand, F_z divided by
    zeta(depth) of ``curve`` with the free couple kept at the COP; on firm
    ground ``trial.grf``.  The longitudinal force passes through
    uncalibrated."""
    grf = trial.grf
    if trial.meta.terrain != "sand":
        return grf
    return forces.with_vertical_force(grf, forces.calibrate_grf(
        grf.force[:, 2], trial.meta.sand_depth, curve))


def _plate_load(plate: np.ndarray, covered: np.ndarray, markers: MarkerData,
                schema: MarkerSchema, threshold: float
                ) -> tuple[str, dynamics.ExternalLoad, np.ndarray]:
    """The leg standing on the instrumented plate, the plate's sagittal
    wrench (F_x, F_z, M_y) on the marker timeline, and the mask of the
    marker frames it loads, from ``align_streams``' plate channels and
    covered mask.

    The loaded frames are the covered ones with F_z not under ``threshold``
    N; a NaN force counts as loaded, so its frames come out NaN.  The side
    is the one whose ankle x lies nearer the COP x, by the median over the
    loaded frames where that ankle is seen; the left at a tie, and where no
    frame loads the plate.  A side whose ankle is seen on no loaded frame
    is not picked.  The wrench is zero but on the loaded frames; its moment
    is about the plate origin, the lab origin, so the lever is the side's
    toe x and z."""
    loaded = covered & ~(plate[:, 1] < threshold)
    labels = [schema.joint_label(side, "ankle") for side in SIDES]
    dist = {}
    for side, label in zip(SIDES, labels):
        d = np.abs(markers.pos[label][loaded, 0] - plate[loaded, 3])
        if (d := d[~np.isnan(d)]).size:
            dist[side] = float(np.median(d))
    if loaded.any() and not dist:
        raise InsufficientDataError(
            f"cannot attribute the plate to a side: neither {labels[0]} nor "
            f"{labels[1]} is seen on a plate-loaded frame")
    side = min(dist, key=dist.get, default=SIDES[0])  # the left at a tie

    n = len(markers.time)
    load = dynamics.ExternalLoad(np.zeros((n, 2)), np.zeros(n),
                                 np.zeros((n, 2)))
    load.force[loaded] = plate[loaded, :2]
    load.moment[loaded] = plate[loaded, 2]
    toe = markers.pos[schema.joint_label(side, "toe")]
    load.r[loaded] = toe[loaded][:, [0, 2]]
    return side, load, loaded


def _plate_stance(cycles: np.ndarray, time: np.ndarray,
                  on_plate: np.ndarray) -> int | None:
    """The first row of the plate side's cycle table whose stance (heel
    strike to toe-off) holds a plate-loaded frame, or None."""
    for row, (hs, to) in enumerate(cycles[:, [HS, TO]].tolist()):
        if np.any(on_plate & (time >= hs) & (time <= to)):
            return row
    return None


def analyze_trial(trial: TrialRecord, cfg: RunConfig | None = None) -> AnalysisResult:
    cfg = cfg if cfg is not None else RunConfig()
    # every config file is read before any stage runs: a bad one fails first
    config_hash, schema, table, curve = cfg.inputs
    participant = trial.meta.participant
    n = len(trial.markers)
    for key in ("filter_window", "event_filter_window"):
        if n < (window := getattr(cfg, key)):
            raise ParameterError(
                f"markers hold {n} frames, fewer than {key} {window}")
    warnings = (["fx passed through uncalibrated (sand terrain)"]
                if trial.meta.terrain == "sand" else [])

    markers = fill_gaps(MarkerData(trial.markers.time, {
        label: trial.markers.pos[label] for label in schema.landmark_labels()}),
        cfg.max_gap_frames)
    grf = _surface_grf(trial, curve)
    time = markers.time

    # the plate side and its ground load, so that the aligned channels are
    # released before the markers are stacked
    threshold = cfg.plate_threshold_bw * (participant.mass * cfg.gravity)
    plate_side, plate_load, on_plate = _plate_load(
        *align_streams(markers, grf), markers, schema, threshold)

    # every landmark a stage reads in one (N, k, 3) stack: each leg's hip,
    # knee, ankle and toe, the pelvis markers, then the two heels
    chain_labels = [[schema.joint_label(side, joint) for joint in _CHAIN]
                    for side in SIDES]
    stack = np.stack([markers.pos[label] for label in (
        *chain_labels[0], *chain_labels[1], *schema.pelvis_labels(),
        *(schema.joint_label(side, "heel") for side in SIDES))], axis=1)
    del markers  # the gap-filled copies
    params = segment_parameters(participant, table, _mean_segment_lengths(
        stack[:, :8].reshape(n, 2, 4, 3)))

    # each landmark is smoothed once: the leg chains and the pelvis at
    # filter_window, from a view of the stack, and the heels and toes
    # (left heel, left toe, right heel, right toe) at event_filter_window
    smoothed = kinematics.moving_average(stack[:, :-2], cfg.filter_window)
    feet = kinematics.moving_average(stack[:, [-2, 3, -1, 7]],
                                     cfg.event_filter_window)
    del stack

    # one segment_states call per leg, thigh first: this order fixes the
    # float sum of com_trajectory; the joint angles read its pitches
    chain_params = [params[seg] for seg in _CHAIN_SEGMENTS]
    legs, coms, angles = {}, [], {}
    for s, side in enumerate(SIDES):
        states, com, pitch = kinematics.segment_states(
            smoothed[:, 4 * s:4 * s + 4], time, chain_params,
            chain_labels[s])
        legs[side] = dict(zip(_CHAIN_SEGMENTS, states))
        coms.append(com)
        angles[side] = kinematics.joint_angles(pitch)
    pelvis_mid = smoothed[:, 8:, ::2].mean(axis=1)
    del smoothed, states, com, pitch
    com = kinematics.com_trajectory(
        np.concatenate(coms, axis=1), [p.mass for p in chain_params] * 2,
        participant.mass, pelvis_mid)
    del coms

    # the events of each side from its heel's x and z and its toe's z; the
    # heels also place the strides
    heel = {side: feet[:, 2 * s] for s, side in enumerate(SIDES)}
    events = GaitEvents(**{side: gaitseg.detect_side_events(
        time, heel[side][:, 0], heel[side][:, 2], feet[:, 2 * s + 1, 2], cfg)
        for s, side in enumerate(SIDES)})
    cycles = {side: gaitseg.cycle_table(events.side(side), events.side(other))
              for side, other in zip(SIDES, SIDES[::-1])}
    warnings.extend(gaitseg.grf_stance_check(
        events.side(plate_side), grf.time, grf.force[:, 2], threshold))

    # inverse dynamics; only the plate side carries a ground load
    xz = np.broadcast_to(0.0, (len(time), 2))
    no_load = dynamics.ExternalLoad(xz, np.broadcast_to(0.0, len(time)), xz)
    moments = {side: dynamics.leg_moment_series(
        time, plate_load if side == plate_side else no_load, legs[side],
        params, participant.mass, cfg.gravity) for side in SIDES}
    del legs, plate_load, no_load

    # each side's first cycle: cycle-normalized angles
    angle_cycle, peak, stance_fracs = {}, {}, {}
    for side in SIDES:
        angle_cycle[side] = {}
        if len(cycles[side]) >= 2:
            angle_cycle[side] = {joint: gaitseg.phase_normalize(
                time, series, cycles[side][0, [HS, NEXT_HS]])
                for joint, series in angles[side].items()}
            stance_fracs[side] = gaitseg.stance_swing_durations(cycles[side])
        peak[side] = metrics.peak_angles(
            {j: c.values for j, c in angle_cycle[side].items()})
    if curves := [f"{side} {joint}" for side in SIDES
                  for joint, v in peak[side].items() if math.isnan(v)]:
        warnings.append("peak angle not computed for the cycle curves with "
                        "no finite value: " + ", ".join(curves))

    stride_rows = metrics.stride_metrics(cycles, heel, com, pelvis_mid,
                                         time, participant)
    for key, which in (
            ("com_variation", "with no finite COM frame"),
            ("avg_velocity", "whose first or last heel strike has no "
                             "pelvis midpoint")):
        if strides := [f"{row['side']} from {row['cycle_start_s']:.3f} s"
                       for row in stride_rows if math.isnan(row[key])]:
            warnings.append(f"{key} not computed for the strides {which}: "
                            + ", ".join(strides))

    # the plate row: stance-normalized GRF and moments over its stance, the
    # knee stiffness and the knee loop over its cycle
    grf_stance, moment_stance, grf_features = {}, {}, None
    stiffness, knee_loop = None, {}
    row = _plate_stance(cycles[plate_side], time, on_plate)
    if row is None:
        warnings += ["no plate-loaded stance found; GRF features skipped",
                     "no plate-loaded cycle; knee stiffness and loop skipped"]
    else:
        plate_cycles = cycles[plate_side][row:]
        stance = plate_cycles[0, [HS, TO]]
        fxz_bw = forces.normalize_grf(
            kinematics.moving_average(grf.force[:, [0, 2]],
                                      cfg.grf_smooth_window),
            participant, cfg.gravity)
        grf_stance = {name: gaitseg.phase_normalize(
            grf.time, fxz_bw[:, k], stance)
            for k, name in enumerate(("fx", "fz"))}
        try:
            grf_features = forces.extract_grf_features(
                grf_stance["fx"].values, grf_stance["fz"].values)
        except GaitError as exc:
            warnings.append(f"GRF features not computed: {exc}")
        moment_stance = {joint: gaitseg.phase_normalize(
            time, moments[plate_side].normalized[joint], stance)
            for joint in dynamics.JOINTS}

        knee = {"angle_deg": angles[plate_side]["knee"],
                "moment_nmkg": moments[plate_side].normalized["knee"]}
        try:  # stiffness is best-effort on real trials
            stiffness = metrics.knee_stiffness(
                time, knee["angle_deg"], knee["moment_nmkg"], plate_cycles,
                plate_side)
        except GaitError as exc:
            warnings.append(f"knee stiffness not computed: {exc}")
        if len(plate_cycles) >= 2:
            knee_loop = {name: gaitseg.phase_normalize(
                time, series, plate_cycles[0, [HS, NEXT_HS]]).values
                for name, series in knee.items()}

    return AnalysisResult(
        participant_id=participant.id, terrain=trial.meta.terrain,
        config_hash=config_hash, events=events,
        angle_cycle=angle_cycle, moments=moments,
        moment_stance=moment_stance, grf_stance=grf_stance,
        grf_features=grf_features, stride_rows=stride_rows,
        peak_angles=peak, stiffness=stiffness,
        stance_fractions=stance_fracs, plate_side=plate_side,
        time=time, knee_loop=knee_loop, warnings=warnings)


# ---------------------------------------------------------------------------
# bundle writing

def _write_table(path: Path, config_hash: str, header: list[str], columns,
                 fmt: str | None = None) -> None:
    """Write one bundle CSV: the config-hash comment, the header, then the
    rows of ``columns`` through one printf row format, ``%.9g`` for every
    cell unless ``fmt`` says otherwise (``%s`` for labels)."""
    if fmt is None:
        fmt = ",".join(["%.9g"] * len(header)) + "\n"
    write_rows(path, f"# config_hash={config_hash}\n" + ",".join(header),
               fmt, columns)


def _write_phase_table(path: Path, config_hash: str, header: list[str],
                       curves) -> None:
    """A bundle CSV of curves on the phase grid, one column each."""
    _write_table(path, config_hash, ["phase"] + header,
                 [gaitseg.PHASE_GRID, *curves])


def bundle_scalars(result: AnalysisResult) -> dict[str, float]:
    """Every scalar ``compare`` tests, by name: the mean of each
    ``stride_metrics.csv`` column as written (``%.9g``, NaN cells left out),
    the GRF peaks, the knee stiffness slopes, ``peak_<joint>_<side>`` (a NaN
    peak left out) and the mean stance fraction."""
    out = {}
    for key in result.stride_rows[0] if result.stride_rows else ():
        if key in ("side", "cycle_start_s"):
            continue
        written = [float("%.9g" % row[key]) for row in result.stride_rows]
        if kept := [v for v in written if not math.isnan(v)]:
            out[key] = float(np.mean(kept))
    for key in ("fx_fwd_peak", "fx_bwd_peak", "fz_hs_peak", "fz_hump1",
                "fz_hump2"):
        if (v := getattr(result.grf_features, key, None)) is not None:
            out[key] = float(v)
    if result.stiffness is not None:
        for key in ("k_flexion", "k_extension", "k_swing"):
            out[key] = getattr(result.stiffness, key).slope
    for side, joints in result.peak_angles.items():
        out.update((f"peak_{joint}_{side}", v) for joint, v in joints.items()
                   if not math.isnan(v))
    if fracs := [c["stance_fraction"] for cycles
                 in result.stance_fractions.values() for c in cycles]:
        out["stance_fraction"] = float(np.mean(fracs))
    return out


def write_bundle(result: AnalysisResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = result.config_hash

    # compare takes a directory holding meta.json for a bundle, so it is
    # removed first and written last: a failed write leaves no bundle
    (out / "meta.json").unlink(missing_ok=True)

    rows = sorted(result.events.rows(), key=lambda r: r[2])
    _write_table(out / "events.csv", h, ["side", "event", "time_s"],
                 [np.array(rows, dtype=object)], "%s,%s,%.9g\n")

    if any(result.angle_cycle.values()):
        header, cols = [], []
        for side in SIDES:
            for joint in ("hip", "knee", "ankle"):
                if joint in result.angle_cycle.get(side, {}):
                    header.append(f"{side}_{joint}_deg")
                    cols.append(result.angle_cycle[side][joint].values)
        _write_phase_table(out / "angles_cycle.csv", h, header, cols)

    # one row per frame and side, left first
    cols, fmt = [], ""
    for side in SIDES:
        m = result.moments[side]
        cols += [result.time] + [m.moment_y[j] for j in dynamics.JOINTS] \
            + [m.normalized[j] for j in dynamics.JOINTS]
        fmt += f"%.9g,{side}" + ",%.9g" * 6 + "\n"
    _write_table(out / "moments.csv", h,
                 ["time", "side", "ankle_nm", "knee_nm", "hip_nm",
                  "ankle_nmkg", "knee_nmkg", "hip_nmkg"], cols, fmt)

    if result.moment_stance:
        _write_phase_table(out / "moments_stance.csv", h,
                           ["ankle_nmkg", "knee_nmkg", "hip_nmkg"],
                           [result.moment_stance[j].values
                            for j in dynamics.JOINTS])

    if result.grf_stance:
        _write_phase_table(out / "grf_stance.csv", h, ["fx_bw", "fz_bw"],
                           [result.grf_stance["fx"].values,
                            result.grf_stance["fz"].values])

    if result.knee_loop:
        _write_phase_table(out / "knee_loop.csv", h,
                           ["knee_angle_deg", "knee_moment_nmkg"],
                           [result.knee_loop["angle_deg"],
                            result.knee_loop["moment_nmkg"]])

    if result.stride_rows:
        header = list(result.stride_rows[0])
        fmt = ",".join("%s" if isinstance(v, str) else "%.9g"
                       for v in result.stride_rows[0].values()) + "\n"
        _write_table(out / "stride_metrics.csv", h, header,
                     [np.array([list(r.values()) for r in result.stride_rows],
                               dtype=object)], fmt)

    features = {"config_hash": h, "peak_angles_deg": result.peak_angles,
                "stance_fractions": result.stance_fractions,
                "scalars": bundle_scalars(result)}
    if result.grf_features is not None:
        features["grf"] = asdict(result.grf_features)
    if result.stiffness is not None:
        features["knee_stiffness"] = asdict(result.stiffness)
    write_json(out / "features.json", features)
    write_json(out / "meta.json", {
        "participant_id": result.participant_id,
        "terrain": result.terrain,
        "config_hash": h,
        "plate_side": result.plate_side,
        "fx_uncalibrated": result.terrain == "sand",
        "cohens_d_variant": "pooled condition SD",
        "warnings": result.warnings,
    })
