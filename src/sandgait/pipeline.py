"""End-to-end trial analysis, plus the on-disk artifact bundle.

``analyze_trial`` runs named stages on whole arrays: ``_surface_grf`` (the
sand rescale), gap-fill and alignment, marker smoothing (once per window),
segment kinematics, ``_detect_events``, ``_plate_load``, inverse dynamics,
``_plate_stance`` (the stance window of the stance curves), then the
outcome curves and scalars.  Every output embeds the config hash.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import dynamics, forces, gaitseg, kinematics, metrics
from .errors import ConfigurationError, GaitError, check_number, read_json_as
from .forces import CalibrationCurve
from .gaitseg import EventThresholds, GaitEvents, NormalizedCurve, SideEvents
from .ingest import (GrfData, MarkerData, TrialRecord, align_streams,
                     fill_gaps, write_json, write_rows)
from .model import (GRAVITY, LEG_SEGMENTS, AnthropometricTable,
                    segment_parameters)
from .schema import SIDES, MarkerSchema

log = logging.getLogger(__name__)

#: Config keys that must be odd and >= 1, and those that must be >= 0; every
#: other number must be > 0.  Each is finite.
_ODD_WINDOWS = ("filter_window", "event_filter_window", "grf_smooth_window")
_NON_NEGATIVE = ("max_gap_frames", "plate_threshold_bw")


@dataclass
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
    hs_forward_speed: float = 0.2
    to_vertical_speed: float = 0.05
    min_stance_s: float = 0.2
    min_swing_s: float = 0.15
    gravity: float = GRAVITY

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
        for key, value in doc.items():
            if problem := _config_problem(
                    key, value, cls.__dataclass_fields__[key].default):
                raise ConfigurationError(f"{key} {problem}, got {value!r}")
        return cls(**doc)

    def thresholds(self) -> EventThresholds:
        return EventThresholds(hs_forward_speed=self.hs_forward_speed,
                               to_vertical_speed=self.to_vertical_speed,
                               min_stance_s=self.min_stance_s,
                               min_swing_s=self.min_swing_s)

    def config_hash(self) -> str:
        doc = asdict(self)
        for key in ("marker_schema", "anthropometry", "calibration"):
            path = doc[key]
            if path and Path(path).exists():
                doc[key] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def load_schema(self) -> MarkerSchema:
        return (MarkerSchema.from_file(self.marker_schema)
                if self.marker_schema else MarkerSchema.default())

    def load_table(self) -> AnthropometricTable:
        return (AnthropometricTable.from_file(self.anthropometry)
                if self.anthropometry else AnthropometricTable.default())

    def load_calibration(self) -> CalibrationCurve:
        return (forces.read_calibration_curve(self.calibration)
                if self.calibration else forces.default_calibration_curve())


def _config_problem(key: str, value, default) -> str | None:
    """What is wrong with one config value's type, taken from the field's
    default (a path is a string or null, an int field takes no bool, a
    float field takes an int or a float), or with an odd window; any other
    number is held to its rule by ``check_number``."""
    if default is None:
        return None if value is None or isinstance(value, str) \
            else "must be a path string or null"
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
    knee_loop: dict[str, np.ndarray]                     # angle/moment over cycle
    warnings: list[str] = field(default_factory=list)


def _mean_segment_lengths(markers, schema) -> dict[str, float]:
    lengths = {}
    for seg in LEG_SEGMENTS:
        per_side = []
        for side in SIDES:
            p_label, d_label = schema.segment_endpoints(side, seg)
            delta = markers.pos[d_label] - markers.pos[p_label]
            norms = np.linalg.norm(delta, axis=1)
            norms = norms[np.isfinite(norms)]
            if norms.size == 0:
                raise ConfigurationError(
                    f"cannot measure {side} {seg} length: no valid frames")
            per_side.append(float(norms.mean()))
        lengths[seg] = float(np.mean(per_side))
    return lengths


def _attribute_plate_side(aligned, markers, schema) -> str:
    """Pick the leg standing on the instrumented plate: the side whose
    ankle is nearest the COP at peak vertical force."""
    i_peak = int(np.nanargmax(aligned.force[:, 2]))
    cop_x = aligned.cop[i_peak, 0]
    t_peak = aligned.time[i_peak]
    best, best_d = None, math.inf
    for side in SIDES:
        label = schema.joint_label(side, "ankle")
        x = np.interp(t_peak, markers.time, markers.pos[label][:, 0])
        d = abs(x - cop_x)
        if d < best_d:
            best, best_d = side, d
    return best


def _surface_grf(trial: TrialRecord, cfg: RunConfig) -> GrfData:
    """The plate record as the surface load: on sand, F_z divided by
    zeta(depth) with the free couple kept at the COP (the plate-origin
    moment follows the rescaled force); on firm ground ``trial.grf``.
    The longitudinal force passes through uncalibrated."""
    grf = trial.grf
    if trial.meta.terrain != "sand":
        return grf
    force = grf.force.copy()
    force[:, 2] = forces.calibrate_grf(force[:, 2], trial.meta.sand_depth,
                                       cfg.load_calibration())
    cop3 = np.column_stack([grf.cop, np.zeros(len(grf))])
    moment = grf.moment + np.cross(cop3, force - grf.force)
    return GrfData(time=grf.time, force=force, moment=moment, cop=grf.cop)


def _detect_events(markers: MarkerData, schema: MarkerSchema,
                   cfg: RunConfig) -> tuple[GaitEvents, dict[str, np.ndarray]]:
    """Gait events of both sides from smoothed heel and toe markers, and
    the heel of each side, which also places the strides."""
    ev, heel = {}, {}
    for side in SIDES:
        heel[side], toe = (markers.pos[schema.joint_label(side, part)]
                           for part in ("heel", "toe"))
        ev[side] = gaitseg.detect_side_events(
            markers.time, heel[side][:, 2], toe[:, 2],
            np.gradient(heel[side][:, 0], markers.dt), cfg.thresholds())
    return GaitEvents(**ev), heel


def _plate_load(aligned: GrfData, time: np.ndarray, toe_pos: np.ndarray,
                threshold: float) -> tuple[dynamics.ExternalLoad, np.ndarray]:
    """The plate's ground load on the marker timeline, zero where F_z is
    under ``threshold`` N, and the mask of the frames it loads.  Of the
    couple about the COP only lab Y is kept; the rest is logged.

    ``align_streams`` copies the marker times, so searchsorted finds each
    aligned row's frame exactly.  A NaN force counts as loaded, so its
    frames come out NaN."""
    n = len(time)
    loaded = ~(aligned.force[:, 2] < threshold)
    frames = np.searchsorted(time, aligned.time[loaded])
    on_plate = np.zeros(n, dtype=bool)
    on_plate[frames] = True
    cop3 = np.column_stack([aligned.cop[loaded], np.zeros(len(frames))])
    m_cop = aligned.moment[loaded] - np.cross(cop3, aligned.force[loaded])
    dropped = np.abs(m_cop[:, [0, 2]]).max(initial=0.0)
    if dropped >= 5e-4:  # nonzero at %.3f, above the rounding of GRF files
        log.info("dropped non-sagittal ground moment components "
                 "(max |M_x|,|M_z| = %.3f N m)", dropped)
    load = dynamics.ExternalLoad(*np.zeros((3, n, 3)))
    load.force[frames] = aligned.force[loaded]
    load.moment[frames, 1] = m_cop[:, 1]
    load.r[frames] = toe_pos[frames] - cop3
    return load, on_plate


def _plate_stance(ev: SideEvents, time: np.ndarray,
                  on_plate: np.ndarray) -> tuple[float, float] | None:
    """The first heel-strike-to-toe-off window that holds a plate-loaded
    frame, or None."""
    for hs, to in gaitseg.stance_windows(ev).tolist():
        if np.any(on_plate & (time >= hs) & (time <= to)):
            return hs, to
    return None


def analyze_trial(trial: TrialRecord, cfg: RunConfig | None = None) -> AnalysisResult:
    cfg = cfg if cfg is not None else RunConfig()
    schema = cfg.load_schema()
    table = cfg.load_table()
    participant = trial.meta.participant
    warnings = (["fx passed through uncalibrated (sand terrain)"]
                if trial.meta.terrain == "sand" else [])

    markers = fill_gaps(trial.markers, cfg.max_gap_frames)
    grf = _surface_grf(trial, cfg)
    aligned = align_streams(markers, grf)
    time = markers.time
    params = segment_parameters(participant, table,
                                _mean_segment_lengths(markers, schema))

    # each marker a stage reads is smoothed once: the leg chain and pelvis
    # at filter_window, the heels and toes for events at event_filter_window
    smoothed = kinematics.smooth_markers(
        markers, [schema.joint_label(side, joint) for side in SIDES
                  for joint in ("hip", "knee", "ankle", "toe")]
        + schema.pelvis_labels(), cfg.filter_window)
    feet = kinematics.smooth_markers(
        markers, [schema.joint_label(side, part) for side in SIDES
                  for part in ("heel", "toe")], cfg.event_filter_window)

    # segment states and joint angles
    states: dict[tuple[str, str], dynamics.FrameState] = {}
    angles = {}
    for side in SIDES:
        # thigh first: this order fixes the float sum of com_trajectory
        for seg in reversed(LEG_SEGMENTS):
            states[(side, seg)] = kinematics.segment_states(
                smoothed, schema, side, seg, params[seg])
        angles[side] = kinematics.joint_angles(
            states[(side, "thigh")], states[(side, "shank")],
            states[(side, "foot")])
    pelvis_mid = kinematics.pelvis_midpoint(smoothed, schema)
    com = kinematics.com_trajectory(states, params, participant.mass, pelvis_mid)

    events, heel = _detect_events(feet, schema, cfg)
    plate_side = _attribute_plate_side(aligned, markers, schema)
    plate_ev = events.side(plate_side)
    body_weight = participant.mass * cfg.gravity
    warnings.extend(gaitseg.grf_stance_check(
        plate_ev, grf.time, grf.force[:, 2], body_weight,
        fraction=cfg.plate_threshold_bw))

    # inverse dynamics; only the plate side carries a ground load
    plate_load, on_plate = _plate_load(
        aligned, time, markers.pos[schema.joint_label(plate_side, "toe")],
        cfg.plate_threshold_bw * body_weight)
    no_load = dynamics.ExternalLoad(*np.zeros((3, len(time), 3)))
    moments = {side: dynamics.leg_moment_series(
        time, plate_load if side == plate_side else no_load,
        states[(side, "foot")], states[(side, "shank")],
        states[(side, "thigh")], params, participant.mass, cfg.gravity)
        for side in SIDES}

    # cycle-normalized angles
    angle_cycle, cycles, peak, stance_fracs = {}, {}, {}, {}
    for side in SIDES:
        side_ev = events.side(side)
        angle_cycle[side] = {}
        if len(side_ev.heel_strikes) >= 2:
            cycles[side] = (float(side_ev.heel_strikes[0]),
                            float(side_ev.heel_strikes[1]))
            angle_cycle[side] = {
                joint: gaitseg.phase_normalize(time, series, cycles[side])
                for joint, series in angles[side].items()}
            stance_fracs[side] = gaitseg.stance_swing_durations(side_ev)
        peak[side] = metrics.peak_angles(
            {j: c.values for j, c in angle_cycle[side].items()})

    # stance-normalized GRF and moments for the plate side
    stance = _plate_stance(plate_ev, time, on_plate)
    grf_stance, moment_stance, grf_features = {}, {}, None
    if stance is not None:
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
    else:
        warnings.append("no plate-loaded stance found; GRF features skipped")

    stride_rows = metrics.stride_metrics(events, heel, com, pelvis_mid,
                                         time, participant)

    stiffness, knee_loop = None, {}
    knee_moment = moments[plate_side].normalized["knee"]
    try:
        stiffness = metrics.knee_stiffness(
            time, angles[plate_side]["knee"], knee_moment, events,
            side=plate_side)
    except GaitError as exc:  # stiffness is best-effort on real trials
        warnings.append(f"knee stiffness not computed: {exc}")
    if plate_side in cycles:
        knee_loop = {
            "angle_deg": angle_cycle[plate_side]["knee"].values,
            "moment_nmkg": gaitseg.phase_normalize(
                time, knee_moment, cycles[plate_side]).values,
        }

    return AnalysisResult(
        participant_id=participant.id, terrain=trial.meta.terrain,
        config_hash=cfg.config_hash(), events=events,
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
                "stance_fractions": result.stance_fractions}
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
