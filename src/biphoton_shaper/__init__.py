"""Desk-scale simulation of shaper-assisted discretization of energy-time
entangled photon pairs: joint spectral amplitudes, spectral qudit bases,
transfer-function shaping, upconversion coincidence measurements and
entanglement analysis."""

from .bases import BasisSet, frequency_bins, gram_matrix, mirrored, schmidt_modes, time_bins
from .errors import (
    BasisError,
    ConfigError,
    DomainError,
    FitError,
    GridError,
    NumericalError,
    RankError,
    ResolutionError,
    ShaperSimError,
)
from .measurement import (
    CountRecord,
    FringeScan,
    QuditState,
    coincidence_scan,
    coincidence_signal,
    fringe_scan,
    gamma_model_state,
    max_entangled_state,
    procrustean_amplitudes,
    project_state,
    projection_probability,
    synthesize_counts,
)
from .metrics import (
    EntanglementReport,
    FitResult,
    bell_i2,
    cglmp_parameter,
    cos4_model,
    critical_visibility,
    double_gaussian_oracle,
    fit_cos4,
    fit_fringe,
    fit_gamma,
    gamma_fringe_model,
    lambda_fringe_model,
    lambda_from_visibility,
    schmidt_decompose,
    visibility_from_lambda,
)
from .shaper import (
    SlmModel,
    TransferFunction,
    franson_transfer,
    pixelate,
    transfer_from_coefficients,
)
from .spectral_field import (
    CrystalSpec,
    FluxLimit,
    JointAmplitude,
    PumpSpec,
    SellmeierIndex,
    SellmeierMismatch,
    SpectralGrid,
    TaylorMismatch,
    apply_psf,
    build_joint_amplitude,
    double_gaussian_amplitude,
    phase_matching,
    phase_mismatch,
    photon_flux_limit,
    pump_envelope,
    taylor_curvature_for_bandwidth,
)

__version__ = "0.1.0"
