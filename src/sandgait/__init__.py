"""Gait biomechanics on solid ground and dry sand: marker/force-plate
ingest, sagittal inverse dynamics, sand-depth force calibration, stride
metrics, and paired terrain comparison."""

from .errors import (GaitError, GaitInputError, ConfigurationError,
                     FormatError, SchemaError, ParameterError,
                     AlignmentError, SingularSegmentError, SegmentationError,
                     InsufficientDataError, FitError, ExtrapolationError,
                     ContractError, GenerationError)
from .model import (GRAVITY, Participant, SegmentParams, SegmentRatios,
                    AnthropometricTable, segment_parameters)
from .schema import MarkerSchema
from .ingest import (MarkerData, GrfData, TrialMeta, TrialRecord,
                     parse_trial, fill_gaps, align_streams)
from .kinematics import (moving_average, differentiate, pitch_angle,
                         segment_states, joint_angles, com_trajectory)
from .gaitseg import (SideEvents, GaitEvents, detect_side_events,
                      phase_normalize, NormalizedCurve, stance_swing_durations,
                      PHASE_GRID)
from .forces import (CalibrationCurve, fit_calibration, calibrate_grf,
                     normalize_grf, GrfFeatures, extract_grf_features,
                     default_calibration_curve)
from .dynamics import (ExternalLoad, FrameState, ankle_dynamics,
                       recursive_leg, leg_inverse_dynamics,
                       leg_moment_series, JointMomentSeries, JOINTS)
from .metrics import (stride_metrics, peak_angles, knee_stiffness,
                      StiffnessResult, paired_compare)
from .pipeline import RunConfig, AnalysisResult, analyze_trial, write_bundle
from .synth import (GaitProfile, synthesize_gait, standing_profile,
                    stride_profile)

__version__ = "0.1.0"
