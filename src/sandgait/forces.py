"""GRF conditioning: sand-layer calibration, weight normalization, and
scalar feature extraction.

A buried plate under a sand layer sees only a fraction zeta of the surface
vertical force; zeta is measured per depth as the through-origin
least-squares slope of buried vs surface force and applied as
``F_surface = F_buried / zeta(depth)``.  Only the vertical component is
calibrated; the longitudinal force passes through uncalibrated and is
flagged in output metadata.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ExtrapolationError, FitError, FormatError, GaitError,
                     ParameterError)
from .gaitseg import _local_extrema
from .ingest import expect_columns, read_csv_table, write_rows
from .model import GRAVITY, Participant


@dataclass
class CalibrationCurve:
    """Pointwise depth -> force-transmission-ratio curve.

    Stored pointwise with local linear interpolation; no global
    monotonicity is assumed (real curves can drop sharply between adjacent
    depths).
    """

    depths: np.ndarray    # cm, strictly increasing, starting at 0
    zeta: np.ndarray      # dimensionless, in (0, 1]
    residual: np.ndarray  # RMS fit residual per depth, N
    n: np.ndarray         # samples per depth

    def __post_init__(self):
        self.depths = np.asarray(self.depths, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)
        self.residual = np.asarray(self.residual, dtype=float)
        self.n = np.asarray(self.n, dtype=int)
        if self.depths.size == 0:
            raise ParameterError("calibration curve has no points")
        if np.any(np.diff(self.depths) <= 0):
            raise ParameterError("calibration depths must be strictly increasing")
        if self.depths[0] != 0.0:
            raise ParameterError("calibration curve must start at depth 0")
        if abs(self.zeta[0] - 1.0) > 1e-9:
            raise ParameterError("zeta at depth 0 must be 1")
        if np.any(self.zeta <= 0.0) or np.any(self.zeta > 1.0 + 1e-9):
            raise ParameterError("zeta values must lie in (0, 1]")

    def zeta_at(self, depth: float) -> float:
        """Locally interpolated ratio; refuses to extrapolate."""
        if depth < self.depths[0] - 1e-12 or depth > self.depths[-1] + 1e-12:
            raise ExtrapolationError(
                f"depth {depth:g} cm outside calibrated range "
                f"[{self.depths[0]:g}, {self.depths[-1]:g}] cm")
        return float(np.interp(depth, self.depths, self.zeta))


def fit_calibration(samples: list[tuple[float, float, float]]) -> CalibrationCurve:
    """Fit the depth -> zeta curve from (depth cm, F_surface N, F_buried N)
    triples.

    Per depth, zeta is the slope of the through-origin least-squares line
    of buried vs surface force:  zeta = sum(Fs*Fb) / sum(Fs^2).  A depth-0
    anchor (zeta = 1) is added when the samples do not include it.
    """
    if not samples:
        raise FitError("no calibration samples")
    by_depth: dict[float, list[tuple[float, float]]] = {}
    for depth, fs, fb in samples:
        by_depth.setdefault(float(depth), []).append((float(fs), float(fb)))

    depths, zetas, residuals, counts = [], [], [], []
    for depth in sorted(by_depth):
        pairs = np.array(by_depth[depth])
        fs, fb = pairs[:, 0], pairs[:, 1]
        denom = float(np.sum(fs * fs))
        if denom == 0.0:
            raise FitError(f"depth {depth:g} cm: all surface forces are zero")
        zeta = float(np.sum(fs * fb)) / denom
        if zeta <= 0.0:
            raise FitError(f"depth {depth:g} cm: nonpositive fitted ratio {zeta:g}")
        if zeta > 1.0:
            # measurement noise can push a lossless depth slightly past 1
            if zeta > 1.02:
                raise FitError(
                    f"depth {depth:g} cm: fitted ratio {zeta:g} exceeds 1")
            zeta = 1.0
        resid = float(np.sqrt(np.mean((fb - zeta * fs) ** 2)))
        depths.append(depth)
        zetas.append(zeta)
        residuals.append(resid)
        counts.append(len(pairs))

    if depths[0] != 0.0:
        depths.insert(0, 0.0)
        zetas.insert(0, 1.0)
        residuals.insert(0, 0.0)
        counts.insert(0, 0)
    return CalibrationCurve(np.array(depths), np.array(zetas),
                            np.array(residuals), np.array(counts))


def default_calibration_curve() -> CalibrationCurve:
    """Two-point bundled default: identity at the surface and the measured
    14 cm ratio; intermediate depths should come from a user calibration
    file."""
    return CalibrationCurve(depths=np.array([0.0, 14.0]),
                            zeta=np.array([1.0, 0.81]),
                            residual=np.zeros(2), n=np.zeros(2, dtype=int))


def calibrate_grf(fz_buried: np.ndarray, depth: float,
                  curve: CalibrationCurve) -> np.ndarray:
    """Recover the surface vertical force: F_surface = F_buried / zeta."""
    return np.asarray(fz_buried, dtype=float) / curve.zeta_at(depth)


def normalize_grf(force: np.ndarray, participant: Participant,
                  g: float = GRAVITY) -> np.ndarray:
    """Express a force series in body-weight units."""
    return np.asarray(force, dtype=float) / (participant.mass * g)


@dataclass
class GrfFeatures:
    """Scalar GRF features over the stance phase, body-weight units."""

    fx_fwd_peak: float
    fx_bwd_peak: float
    fz_hs_peak: float
    fz_hump1: float
    fz_hump2: float | None
    hump2_missing: bool = False

    def __post_init__(self):
        # a valid record (a plate with an offset) can fail this: exit 2
        if self.fx_bwd_peak > 0 or self.fx_fwd_peak < 0:
            raise GaitError("fx peaks must straddle zero")


def extract_grf_features(fx: np.ndarray, fz: np.ndarray) -> GrfFeatures:
    """Peaks of stance-normalized GRF curves.

    ``fz_hs_peak`` is the first local maximum of the vertical force; the
    humps are the two largest local maxima ordered by phase.  With fewer
    than two local maxima the second hump is reported absent and flagged.
    """
    fx = np.asarray(fx, dtype=float)
    fz = np.asarray(fz, dtype=float)
    maxima = _local_extrema(fz, -1)
    hs_peak = float(fz[maxima[0]]) if maxima.size else float(np.max(fz))
    if maxima.size >= 2:
        # the two largest, ties to the earlier, ordered by phase
        top2 = np.sort(maxima[np.argsort(-fz[maxima], kind="stable")[:2]])
        hump1, hump2 = float(fz[top2[0]]), float(fz[top2[1]])
        missing = False
    else:
        hump1, hump2, missing = hs_peak, None, True
    return GrfFeatures(fx_fwd_peak=float(np.max(fx)),
                       fx_bwd_peak=float(np.min(fx)),
                       fz_hs_peak=hs_peak, fz_hump1=hump1, fz_hump2=hump2,
                       hump2_missing=missing)


def read_calibration_samples(path: str | Path) -> list[tuple[float, float, float]]:
    """Read ``depth_cm,f_surface_n,f_buried_n`` rows, skipping blank and # lines."""
    arr = read_csv_table(path, expect_columns(
        path, ["depth_cm", "f_surface_n", "f_buried_n"]), comments=True)
    if not len(arr):
        raise FormatError(f"{path}: no samples")
    return list(map(tuple, arr.tolist()))


def write_calibration_curve(path: str | Path, curve: CalibrationCurve) -> None:
    write_rows(path, "depth_cm,zeta,residual,n", "%g,%.9f,%.9f,%d\n",
               [curve.depths, curve.zeta, curve.residual, curve.n])


def read_calibration_curve(path: str | Path) -> CalibrationCurve:
    arr = read_csv_table(path, expect_columns(
        path, ["depth_cm", "zeta", "residual", "n"]), comments=True)
    if not len(arr):
        raise FormatError(f"{path}: empty calibration curve")
    try:
        return CalibrationCurve(arr[:, 0], arr[:, 1], arr[:, 2],
                                arr[:, 3].astype(int))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
