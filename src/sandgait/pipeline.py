"""End-to-end trial analysis: ingest -> kinematics -> events -> forces ->
inverse dynamics -> metrics, plus the on-disk artifact bundle.

Every output embeds the config hash; writes are atomic (write-then-rename)
so partial runs never corrupt bundles.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import dynamics, forces, gaitseg, kinematics, metrics
from .errors import ConfigurationError, GaitError, SegmentationError
from .forces import CalibrationCurve
from .gaitseg import EventThresholds, GaitEvents, NormalizedCurve
from .ingest import GrfData, TrialRecord, align_streams, fill_gaps
from .model import (GRAVITY, LEG_SEGMENTS, AnthropometricTable,
                    segment_parameters)
from .schema import SIDES, MarkerSchema

log = logging.getLogger(__name__)


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
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys {sorted(unknown)}")
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


@dataclass
class AnalysisResult:
    participant_id: str
    terrain: str
    config_hash: str
    events: GaitEvents
    angle_series: dict[str, dict[str, np.ndarray]]       # side -> joint -> deg
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


def _mean_segment_lengths(trial, schema) -> dict[str, float]:
    lengths = {}
    for seg in LEG_SEGMENTS:
        per_side = []
        for side in SIDES:
            p_label, d_label = schema.segment_endpoints(side, seg)
            delta = trial.markers.pos[d_label] - trial.markers.pos[p_label]
            norms = np.linalg.norm(delta, axis=1)
            norms = norms[np.isfinite(norms)]
            if norms.size == 0:
                raise ConfigurationError(
                    f"cannot measure {side} {seg} length: no valid frames")
            per_side.append(float(norms.mean()))
        lengths[seg] = float(np.mean(per_side))
    return lengths


def _attribute_plate_side(trial, schema) -> str:
    """Pick the leg standing on the instrumented plate: the side whose
    ankle is nearest the COP at peak vertical force."""
    grf = trial.grf_aligned
    i_peak = int(np.nanargmax(grf.force[:, 2]))
    cop_x = grf.cop[i_peak, 0]
    t_peak = grf.time[i_peak]
    best, best_d = None, math.inf
    for side in SIDES:
        label = schema.joint_label(side, "ankle")
        x = np.interp(t_peak, trial.markers.time, trial.markers.pos[label][:, 0])
        d = abs(x - cop_x)
        if d < best_d:
            best, best_d = side, d
    return best


def analyze_trial(trial: TrialRecord, cfg: RunConfig | None = None) -> AnalysisResult:
    cfg = cfg if cfg is not None else RunConfig()
    schema = cfg.load_schema()
    table = cfg.load_table()
    participant = trial.meta.participant
    warnings: list[str] = []

    grf = trial.grf
    # sand calibration applies to the vertical force only; the longitudinal
    # force passes through uncalibrated and is flagged
    if trial.meta.terrain == "sand":
        curve = cfg.load_calibration()
        force = grf.force.copy()
        force[:, 2] = forces.calibrate_grf(force[:, 2],
                                           trial.meta.sand_depth, curve)
        # keep the free couple at the COP: the plate-origin moment follows
        # the rescaled force
        cop3 = np.column_stack([grf.cop, np.zeros(len(grf))])
        moment = grf.moment + np.cross(cop3, force - grf.force)
        grf = GrfData(time=grf.time.copy(), force=force,
                      moment=moment, cop=grf.cop.copy())
        warnings.append("fx passed through uncalibrated (sand terrain)")
    trial = TrialRecord(meta=trial.meta,
                        markers=fill_gaps(trial.markers, cfg.max_gap_frames),
                        grf=grf)
    trial = align_streams(trial)

    dt = trial.markers.dt
    lengths = _mean_segment_lengths(trial, schema)
    params = segment_parameters(participant, table, lengths)

    # segment states and joint angles
    states: dict[tuple[str, str], kinematics.SegmentStateSeries] = {}
    angle_series = {}
    for side in SIDES:
        # thigh first: this order fixes the float sum of com_trajectory
        for seg in reversed(LEG_SEGMENTS):
            states[(side, seg)] = kinematics.segment_states(
                trial.markers, schema, side, seg, params[seg],
                filter_window=cfg.filter_window)
        angle_series[side] = kinematics.joint_angles(
            states[(side, "thigh")], states[(side, "shank")],
            states[(side, "foot")])

    pelvis_mid = kinematics.pelvis_midpoint(trial.markers, schema,
                                            cfg.filter_window)
    com = kinematics.com_trajectory(states, params, participant.mass, pelvis_mid)

    # gait events from lightly filtered marker series
    ev = {}
    for side in SIDES:
        heel = kinematics.moving_average(
            trial.markers.pos[schema.joint_label(side, "heel")],
            cfg.event_filter_window)
        toe = kinematics.moving_average(
            trial.markers.pos[schema.joint_label(side, "toe")],
            cfg.event_filter_window)
        heel_vx = np.gradient(heel[:, 0], dt)
        ev[side] = gaitseg.detect_side_events(trial.markers.time, heel[:, 2],
                                              toe[:, 2], heel_vx,
                                              cfg.thresholds())
    events = GaitEvents(**ev)
    plate_side = _attribute_plate_side(trial, schema)

    body_weight = participant.mass * cfg.gravity
    warnings.extend(gaitseg.grf_stance_check(
        events.side(plate_side), trial.grf.time, trial.grf.force[:, 2],
        body_weight, fraction=cfg.plate_threshold_bw))

    # external loads on the marker timeline; align_streams copies the
    # marker times, so searchsorted finds each aligned row's frame exactly.
    # A NaN force counts as loaded, so its frames come out NaN.
    aligned = trial.grf_aligned
    time = trial.markers.time
    n = len(time)
    loaded = ~(aligned.force[:, 2] < cfg.plate_threshold_bw * body_weight)
    frames = np.searchsorted(time, aligned.time[loaded])
    on_plate = np.zeros(n, dtype=bool)
    on_plate[frames] = True
    cop3 = np.column_stack([aligned.cop[loaded], np.zeros(len(frames))])
    m_cop = aligned.moment[loaded] - np.cross(cop3, aligned.force[loaded])
    dropped = np.abs(m_cop[:, [0, 2]]).max(initial=0.0)
    if dropped > 1e-9:
        log.info("dropped non-sagittal ground moment components "
                 "(max |M_x|,|M_z| = %.3f N m)", dropped)
    toe_pos = trial.markers.pos[schema.joint_label(plate_side, "toe")]
    plate_load = dynamics.ExternalLoad(*np.zeros((3, n, 3)))
    plate_load.force[frames] = aligned.force[loaded]
    plate_load.moment[frames, 1] = m_cop[:, 1]
    plate_load.r[frames] = toe_pos[frames] - cop3
    no_load = dynamics.ExternalLoad(*np.zeros((3, n, 3)))
    moments = {}
    for side in SIDES:
        moments[side] = dynamics.leg_moment_series(
            time, plate_load if side == plate_side else no_load,
            states[(side, "foot")], states[(side, "shank")],
            states[(side, "thigh")], params, participant.mass, cfg.gravity)

    # phase-normalized curves
    angle_cycle = {}
    peak = {}
    stance_fracs = {}
    for side in SIDES:
        side_ev = events.side(side)
        curves = {}
        if len(side_ev.heel_strikes) >= 2:
            window = (float(side_ev.heel_strikes[0]),
                      float(side_ev.heel_strikes[1]))
            for joint, series in angle_series[side].items():
                curves[joint] = gaitseg.phase_normalize(
                    trial.markers.time, series, window, kind="cycle")
            try:
                stance_fracs[side] = gaitseg.stance_swing_durations(side_ev)
            except SegmentationError as exc:
                warnings.append(f"{side} stance fractions skipped: {exc}")
        angle_cycle[side] = curves
        peak[side] = metrics.peak_angles(
            {j: c.values for j, c in curves.items()}) if curves else {}

    # stance-normalized GRF and moments for the plate side
    plate_ev = events.side(plate_side)
    stance_window = None
    for hs in plate_ev.heel_strikes:
        tos = plate_ev.toe_offs[plate_ev.toe_offs > hs]
        if tos.size and np.any(on_plate & (trial.markers.time >= hs)
                               & (trial.markers.time <= tos[0])):
            stance_window = (float(hs), float(tos[0]))
            break
    grf_stance = {}
    moment_stance = {}
    grf_features = None
    if stance_window is not None:
        fx_bw = forces.normalize_grf(
            kinematics.moving_average(trial.grf.force[:, 0],
                                      cfg.grf_smooth_window),
            participant, cfg.gravity)
        fz_bw = forces.normalize_grf(
            kinematics.moving_average(trial.grf.force[:, 2],
                                      cfg.grf_smooth_window),
            participant, cfg.gravity)
        grf_stance["fx"] = gaitseg.phase_normalize(trial.grf.time, fx_bw,
                                                   stance_window, kind="stance")
        grf_stance["fz"] = gaitseg.phase_normalize(trial.grf.time, fz_bw,
                                                   stance_window, kind="stance")
        grf_features = forces.extract_grf_features(grf_stance["fx"].values,
                                                   grf_stance["fz"].values)
        for joint in dynamics.JOINTS:
            moment_stance[joint] = gaitseg.phase_normalize(
                trial.markers.time, moments[plate_side].normalized[joint],
                stance_window, kind="stance")
    else:
        warnings.append("no plate-loaded stance found; GRF features skipped")

    stride_rows = metrics.stride_metrics(
        events,
        {side: kinematics.moving_average(
            trial.markers.pos[schema.joint_label(side, "heel")],
            cfg.event_filter_window) for side in SIDES},
        com, pelvis_mid, trial.markers.time, participant)

    stiffness = None
    knee_loop = {}
    try:
        stiffness = metrics.knee_stiffness(
            trial.markers.time, angle_series[plate_side]["knee"],
            moments[plate_side].normalized["knee"], events, side=plate_side)
    except GaitError as exc:  # stiffness is best-effort on real trials
        warnings.append(f"knee stiffness not computed: {exc}")
    if "knee" in angle_cycle[plate_side]:  # two plate-side heel strikes
        knee_loop = {
            "angle_deg": angle_cycle[plate_side]["knee"].values,
            "moment_nmkg": gaitseg.phase_normalize(
                trial.markers.time, moments[plate_side].normalized["knee"],
                (float(plate_ev.heel_strikes[0]),
                 float(plate_ev.heel_strikes[1])), kind="cycle").values,
        }

    return AnalysisResult(
        participant_id=participant.id, terrain=trial.meta.terrain,
        config_hash=cfg.config_hash(), events=events,
        angle_series=angle_series, angle_cycle=angle_cycle,
        moments=moments, moment_stance=moment_stance, grf_stance=grf_stance,
        grf_features=grf_features, stride_rows=stride_rows,
        peak_angles=peak, stiffness=stiffness,
        stance_fractions=stance_fracs, plate_side=plate_side,
        time=trial.markers.time, knee_loop=knee_loop, warnings=warnings)


# ---------------------------------------------------------------------------
# bundle writing

def atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv_text(header: list[str], rows, config_hash: str) -> str:
    buf = io.StringIO()
    buf.write(f"# config_hash={config_hash}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.9g}"
    return str(v)


def write_bundle(result: AnalysisResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = result.config_hash

    meta = {
        "participant_id": result.participant_id,
        "terrain": result.terrain,
        "config_hash": h,
        "plate_side": result.plate_side,
        "fx_uncalibrated": result.terrain == "sand",
        "cohens_d_variant": "pooled condition SD",
        "warnings": result.warnings,
    }
    atomic_write(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")

    rows = []
    for side in SIDES:
        ev = getattr(result.events, side)
        if ev is None:
            continue
        rows += [[side, "heel_strike", _fmt(float(t))] for t in ev.heel_strikes]
        rows += [[side, "toe_off", _fmt(float(t))] for t in ev.toe_offs]
    rows.sort(key=lambda r: float(r[2]))
    atomic_write(out / "events.csv",
                 _csv_text(["side", "event", "time_s"], rows, h))

    if any(result.angle_cycle.values()):
        grid = gaitseg.PHASE_GRID
        header = ["phase"]
        cols = []
        for side in SIDES:
            for joint in ("hip", "knee", "ankle"):
                if joint in result.angle_cycle.get(side, {}):
                    header.append(f"{side}_{joint}_deg")
                    cols.append(result.angle_cycle[side][joint].values)
        rows = [[_fmt(float(g))] + [_fmt(float(c[i])) for c in cols]
                for i, g in enumerate(grid)]
        atomic_write(out / "angles_cycle.csv", _csv_text(header, rows, h))

    rows = []
    for i, t in enumerate(result.time):
        for side in SIDES:
            m = result.moments[side]
            rows.append([_fmt(float(t)), side]
                        + [_fmt(float(m.moment_y[j][i])) for j in dynamics.JOINTS]
                        + [_fmt(float(m.normalized[j][i])) for j in dynamics.JOINTS])
    atomic_write(out / "moments.csv", _csv_text(
        ["time", "side", "ankle_nm", "knee_nm", "hip_nm",
         "ankle_nmkg", "knee_nmkg", "hip_nmkg"], rows, h))

    if result.moment_stance:
        grid = gaitseg.PHASE_GRID
        rows = [[_fmt(float(g))]
                + [_fmt(float(result.moment_stance[j].values[i]))
                   for j in dynamics.JOINTS]
                for i, g in enumerate(grid)]
        atomic_write(out / "moments_stance.csv", _csv_text(
            ["phase", "ankle_nmkg", "knee_nmkg", "hip_nmkg"], rows, h))

    if result.grf_stance:
        grid = gaitseg.PHASE_GRID
        rows = [[_fmt(float(g)),
                 _fmt(float(result.grf_stance["fx"].values[i])),
                 _fmt(float(result.grf_stance["fz"].values[i]))]
                for i, g in enumerate(grid)]
        atomic_write(out / "grf_stance.csv",
                     _csv_text(["phase", "fx_bw", "fz_bw"], rows, h))

    if result.knee_loop:
        grid = gaitseg.PHASE_GRID
        rows = [[_fmt(float(g)),
                 _fmt(float(result.knee_loop["angle_deg"][i])),
                 _fmt(float(result.knee_loop["moment_nmkg"][i]))]
                for i, g in enumerate(grid)]
        atomic_write(out / "knee_loop.csv", _csv_text(
            ["phase", "knee_angle_deg", "knee_moment_nmkg"], rows, h))

    if result.stride_rows:
        header = list(result.stride_rows[0].keys())
        rows = [[_fmt(r[k]) for k in header] for r in result.stride_rows]
        atomic_write(out / "stride_metrics.csv", _csv_text(header, rows, h))

    features = {"config_hash": h, "peak_angles_deg": result.peak_angles,
                "stance_fractions": result.stance_fractions}
    if result.grf_features is not None:
        features["grf"] = asdict(result.grf_features)
    if result.stiffness is not None:
        features["knee_stiffness"] = {
            "side": result.stiffness.side,
            "k_flexion": asdict(result.stiffness.k_flexion),
            "k_extension": asdict(result.stiffness.k_extension),
            "k_swing": asdict(result.stiffness.k_swing),
        }
    atomic_write(out / "features.json",
                 json.dumps(features, indent=2, sort_keys=True) + "\n")
