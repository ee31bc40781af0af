"""twincal: twin-beam frame simulation and sub-shot-noise detector calibration.

Simulate CCD frame stacks of pairwise-correlated twin beams with known
ground-truth channel efficiencies, then recover those efficiencies from the
noise reduction factor of conjugate detection regions, with a full Type A
uncertainty budget.
"""

from .errors import (
    ConfigError,
    CorruptHeaderError,
    DegenerateDataError,
    DigestMismatchError,
    DomainError,
    GeometryError,
    StackFormatError,
    TruncatedPayloadError,
    TwincalError,
)
from .estimate import (
    AreaScanPoint,
    CalibrationDiagnostics,
    RegionPairSeries,
    RepeatSummary,
    SpatialMapResult,
    TypeAUncertainty,
    anchored_region,
    area_scan,
    build_series,
    correct_for_transmittance,
    cosmic_ray_filter,
    estimate_alpha,
    estimate_alpha_b,
    estimate_sigma_alpha,
    estimate_sigma_alpha_b,
    estimate_sigma_raw,
    eta_from_sigma,
    excess_noise,
    propagate_type_a,
    repeat_experiment,
    sigma_spatial_map,
)
from .io import (
    AnalysisParams,
    load_run_config,
    read_stack,
    run_config_from_dict,
    run_config_to_dict,
    save_run_config,
    write_stack,
)
from .model import (
    BackgroundModel,
    ChannelEfficiencies,
    FrameGeometry,
    ModeStructure,
    PulseModel,
    Region,
    predict_covariance,
    predict_sigma,
    predict_sigma_alpha,
    predict_sigma_with_jitter,
    predict_variance,
)
from .simulate import (
    KIND_BACKGROUND,
    KIND_PDC,
    ExperimentConfig,
    Stack,
    generate_stack,
    iter_stack,
    render_frame,
    sample_cell_pair,
    sample_pulse,
)

__version__ = "0.1.0"
