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
    critical_visibility,
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
    JointAmplitude,
    PumpSpec,
    SellmeierIndex,
    SellmeierMismatch,
    SpectralGrid,
    TaylorMismatch,
    apply_psf,
    build_joint_amplitude,
    phase_matching,
    photon_flux_limit,
    pump_envelope,
)

__version__ = "0.1.0"
