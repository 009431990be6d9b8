"""Entanglement quantification, fringe-model fitting and Bell tests.

Schmidt spectrum metrics (entropy, Schmidt number, effective dimension),
critical visibilities of the d-dimensional Bell inequality, least-squares
fits of the interference fringe models, and the d = 2 Bell parameter
evaluated from single-projection signals.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .bases import SCHMIDT_RANK_FLOOR, amplitude_svd, schmidt_modes
from .errors import FitError
from .measurement import CountRecord, FringeScan
from .spectral_field import JointAmplitude

ENTROPY_EIGENVALUE_FLOOR = 1e-15

# Maximal Bell parameter per dimension, derived by inverting the critical
# visibilities 0.707 / 0.775 / 0.817 through V = d*lambda/(2 + lambda*(d-2)).
BELL_PARAMETER_MAX = {2: 2.828, 3: 2.873, 4: 2.896}

QUANTUM_BELL_CEILING = 2.0 * np.sqrt(2.0)


@dataclass
class EntanglementReport:
    """Schmidt spectrum and the derived entanglement measures.

    eigenvalues: mode weights (descending, sum 1); entropy in ebits;
    schmidt_number K = 1/sum(beta^2); effective_dimension 2**entropy.
    """

    eigenvalues: np.ndarray
    entropy: float
    schmidt_number: float
    effective_dimension: float
    truncation_rank: int

    def __post_init__(self):
        if self.entropy < -1e-12 or self.schmidt_number < 1.0 - 1e-9:
            raise ValueError("entropy must be >= 0 and Schmidt number >= 1")
        if self.schmidt_number > self.effective_dimension * (1 + 1e-9):
            raise ValueError("Schmidt number cannot exceed the effective dimension")
        if self.effective_dimension > self.truncation_rank * (1 + 1e-9):
            raise ValueError("effective dimension cannot exceed the spectrum rank")


def _spectrum_metrics(beta: np.ndarray) -> EntanglementReport:
    kept = beta[beta > ENTROPY_EIGENVALUE_FLOOR]
    entropy = float(-np.sum(kept * np.log2(kept)))
    schmidt_number = float(1.0 / np.sum(kept**2))
    return EntanglementReport(
        eigenvalues=kept,
        entropy=entropy,
        schmidt_number=schmidt_number,
        effective_dimension=float(2.0**entropy),
        truncation_rank=int(len(kept)),
    )


def schmidt_decompose(amp: JointAmplitude, modes: bool = True):
    """Entanglement report of an amplitude, optionally with its mode set.

    Returns (report, BasisSet | None).  With ``modes`` false only the singular
    values are computed, which is much faster on large grids; with ``modes``
    true one full decomposition serves both the report and the mode set.
    """
    if not np.all(np.isfinite(amp.values)):
        raise ValueError("amplitude contains non-finite values")
    beta, _ = amplitude_svd(amp, compute_modes=modes)
    report = _spectrum_metrics(beta)
    mode_set = None
    if modes:
        n_modes = int(np.count_nonzero(beta > SCHMIDT_RANK_FLOOR))
        mode_set = schmidt_modes(amp, n_modes)
    return report, mode_set


def double_gaussian_oracle(a: float, b: float) -> float:
    """Closed-form Schmidt number of exp(-(wi+ws)^2/4a^2 - (wi-ws)^2/4b^2).

    The mode weights are geometric, beta_n = (1-mu)*mu^n with
    mu = ((a-b)/(a+b))^2, giving K = (a^2 + b^2) / (2ab).
    """
    if a <= 0 or b <= 0:
        raise ValueError("widths must be positive")
    return (a * a + b * b) / (2.0 * a * b)


def visibility_from_lambda(lam: float, d: int) -> float:
    """Fringe visibility of the symmetric-noise model at mixing parameter lambda."""
    return d * lam / (2.0 + lam * (d - 2))


def lambda_from_visibility(v: float, d: int) -> float:
    """Inverse of :func:`visibility_from_lambda`."""
    return 2.0 * v / (d - v * (d - 2))


@dataclass(frozen=True)
class CglmpThresholds:
    d: int
    bell_parameter_max: float
    lambda_critical: float
    visibility_critical: float


def cglmp_thresholds(d: int) -> CglmpThresholds:
    """Critical mixing parameter and visibility for a Bell violation at dimension d."""
    if d not in BELL_PARAMETER_MAX:
        raise ValueError(f"unsupported dimension {d}; expected one of {sorted(BELL_PARAMETER_MAX)}")
    i_max = BELL_PARAMETER_MAX[d]
    lam_c = 2.0 / i_max
    return CglmpThresholds(d=d, bell_parameter_max=i_max, lambda_critical=lam_c,
                           visibility_critical=visibility_from_lambda(lam_c, d))


# ---------------------------------------------------------------------------
# Fringe models
# ---------------------------------------------------------------------------

_MODEL_NAMES = {2: "qubit", 3: "qutrit", 4: "ququart"}
_MODEL_MEAN = {2: 1.0, 3: 3.0, 4: 4.0}


def lambda_fringe_model(d: int, phi, lam: float, phi0: float = 0.0):
    """Phase-ladder coincidence fringe of the symmetric-noise model (unit scale)."""
    theta = 2.0 * np.asarray(phi) + phi0
    if d == 2:
        return 1.0 + lam * np.cos(theta)
    if d == 3:
        return 3.0 + 2.0 * lam * (2.0 * np.cos(theta) + np.cos(2 * theta))
    if d == 4:
        return 4.0 + 2.0 * lam * (3.0 * np.cos(theta) + 2.0 * np.cos(2 * theta)
                                  + np.cos(3 * theta))
    raise ValueError(f"no fringe model for d = {d}")


def cos4_model(phi, phi0: float = 0.0):
    """Product of two single-photon interference rates, cos^4((phi + phi0/2)/2)."""
    return np.cos((np.asarray(phi) + phi0 / 2.0) / 2.0) ** 4


def gamma_fringe_model(phi, gamma1: float, gamma2: float, phi0: float = 0.0):
    """|1 + 2*g1*e^{i(phi+phi0/2)} + g2*e^{i(2phi+phi0)}|^2 (unit scale)."""
    theta = np.asarray(phi) + phi0 / 2.0
    return np.abs(1.0 + 2.0 * gamma1 * np.exp(1j * theta)
                  + gamma2 * np.exp(2j * theta)) ** 2


@dataclass
class FitResult:
    """Nonlinear least-squares fit of a fringe model.

    ``parameters`` and ``uncertainties`` (1-sigma, from the residual
    covariance) are keyed by parameter name; ``residual_norm`` is the RMS of
    the weighted residuals at the solution.
    """

    model: str
    parameters: dict
    uncertainties: dict
    residual_norm: float
    metadata: dict = field(default_factory=dict)


def _fit_inputs(source):
    """(phi, y, sigma, metadata) from a FringeScan or CountRecord."""
    if isinstance(source, CountRecord):
        y = source.net()
        sigma = np.sqrt(np.maximum(source.gross + source.background, 1.0))
        return source.phi, y, sigma, {"from_counts": True, "duration": source.duration}
    if isinstance(source, FringeScan):
        return source.phi, source.values, np.ones_like(source.values), {"from_counts": False}
    raise TypeError("expected a FringeScan or CountRecord")


def _check_coverage(phi, n_params, period):
    if len(phi) < 2 * n_params:
        raise FitError(f"need at least {2 * n_params} points, got {len(phi)}")
    span = phi[-1] - phi[0]
    mean_step = span / (len(phi) - 1)
    if span + mean_step < period * (1 - 1e-9):
        raise FitError(f"phase span {span:.3f} rad does not cover one period ({period:.3f})")


def _run_fit(residual, x0, bounds, names, model, metadata):
    result = least_squares(residual, x0, bounds=bounds, method="trf",
                           xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    if not result.success and result.status <= 0:
        raise FitError(f"fit did not converge: {result.message} (nfev={result.nfev})")
    dof = max(len(result.fun) - len(x0), 1)
    scale2 = 2.0 * result.cost / dof
    jtj = result.jac.T @ result.jac
    cov = np.linalg.pinv(jtj) * scale2
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    params = dict(zip(names, result.x))
    uncertainties = dict(zip(names, err))
    rms = float(np.sqrt(np.mean(result.fun**2)))
    return FitResult(model=model, parameters=params, uncertainties=uncertainties,
                     residual_norm=rms, metadata=metadata)


def fit_fringe(source, d: int) -> FitResult:
    """Fit the d-level phase-ladder fringe model (free: scale, lambda, phi0).

    Deterministic initialization: scale from the mean, lambda from the
    classical visibility mapped through the noise model, phi0 from the argmax.
    CountRecord input is background-subtracted and Poisson-weighted.
    """
    if d not in _MODEL_NAMES:
        raise ValueError(f"no fringe model for d = {d}")
    phi, y, sigma, meta = _fit_inputs(source)
    _check_coverage(phi, 3, np.pi)

    scale0 = max(float(np.mean(y)) / _MODEL_MEAN[d], 1e-12)
    top, bottom = float(np.max(y)), float(np.min(y))
    vis = (top - bottom) / max(top + bottom, 1e-12)
    lam0 = float(np.clip(lambda_from_visibility(min(vis, 0.999), d), 1e-3, 1.0))
    phi0_0 = float((-2.0 * phi[np.argmax(y)]) % (2.0 * np.pi))

    def residual(p):
        scale, lam, phi0 = p
        return (scale * lambda_fringe_model(d, phi, lam, phi0) - y) / sigma

    return _run_fit(residual, [scale0, lam0, phi0_0],
                    ([0.0, 0.0, -np.inf], [np.inf, 1.0, np.inf]),
                    ("scale", "lambda", "phi0"), _MODEL_NAMES[d], meta)


def fit_cos4(source) -> FitResult:
    """Fit the separable-state fringe scale * cos^4((phi + phi0/2)/2)."""
    phi, y, sigma, meta = _fit_inputs(source)
    _check_coverage(phi, 2, 2.0 * np.pi)
    scale0 = max(float(np.max(y)), 1e-12)
    phi0_0 = float((-2.0 * phi[np.argmax(y)]) % (4.0 * np.pi))

    def residual(p):
        scale, phi0 = p
        return (scale * cos4_model(phi, phi0) - y) / sigma

    return _run_fit(residual, [scale0, phi0_0], ([0.0, -np.inf], [np.inf, np.inf]),
                    ("scale", "phi0"), "cos4", meta)


def fit_gamma(source) -> FitResult:
    """Fit the one-/two-photon interference model (scale, gamma1, gamma2, phi0).

    For every gamma1 the model is exactly invariant under
    (gamma1, gamma2, scale) -> (gamma1/gamma2, 1/gamma2, scale*gamma2^2) with
    phi0 unchanged, and :func:`bell_i2` is the same on both branches.  A
    converged gamma2 > 1 is re-fit from (scale*gamma2^2, gamma1, 1/gamma2,
    phi0) and the re-fit kept unless its residual is larger by more than 1e-9
    relative.  Both branches fit equally well, so on noise-free scans the
    branch returned is decided by two residuals at rounding level (about
    1e-15), and gamma2 may still come back above 1.
    """
    phi, y, sigma, meta = _fit_inputs(source)
    _check_coverage(phi, 4, 2.0 * np.pi)
    g0 = 0.5
    scale0 = max(float(np.mean(y)) / (1.0 + 4.0 * g0**2 + g0**2), 1e-12)
    phi0_0 = float((-2.0 * phi[np.argmax(y)]) % (4.0 * np.pi))

    def residual(p):
        scale, g1, g2, phi0 = p
        return (scale * gamma_fringe_model(phi, g1, g2, phi0) - y) / sigma

    bounds = ([0.0, 0.0, 0.0, -np.inf], [np.inf, np.inf, np.inf, np.inf])
    names = ("scale", "gamma1", "gamma2", "phi0")
    fit = _run_fit(residual, [scale0, g0, g0, phi0_0], bounds, names, "gamma", meta)
    g2 = fit.parameters["gamma2"]
    if g2 > 1.0:
        mirrored_start = [fit.parameters["scale"] * g2**2, fit.parameters["gamma1"],
                          1.0 / g2, fit.parameters["phi0"]]
        alt = _run_fit(residual, mirrored_start, bounds, names, "gamma", meta)
        if alt.residual_norm <= fit.residual_norm * (1.0 + 1e-9):
            fit = alt
    return fit


# ---------------------------------------------------------------------------
# Bell parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CglmpSettings:
    """Measurement-setting phase offsets for the d = 2 Bell parameter.

    Outcome k of idler setting a probes phase idler_offsets[a] + 2*pi*k/d;
    outcome l of signal setting b probes signal_offsets[b] - 2*pi*l/d.
    """

    idler_offsets: tuple = (0.0, np.pi / 2.0)
    signal_offsets: tuple = (np.pi / 4.0, -np.pi / 4.0)


DEFAULT_CGLMP_SETTINGS = CglmpSettings()


@dataclass
class BellResult:
    d: int
    value: float
    settings: CglmpSettings
    lambda_critical: float
    visibility_critical: float

    def __post_init__(self):
        if self.value > QUANTUM_BELL_CEILING + 1e-9:
            raise ValueError(f"Bell parameter {self.value} exceeds the quantum ceiling")

    @property
    def violates(self) -> bool:
        return self.value > 2.0


def cglmp_parameter(probe, d: int = 2, settings: CglmpSettings = DEFAULT_CGLMP_SETTINGS) -> float:
    """Bell parameter from single-projection signals.

    ``probe(phi_i, phi_s)`` returns the unnormalized joint signal at the given
    projection phases.  All d^2 outcome offsets are evaluated per setting
    pair, normalized into joint probabilities, and combined into I_d.
    """
    probs = {}
    for a, th_i in enumerate(settings.idler_offsets):
        for b, th_s in enumerate(settings.signal_offsets):
            table = np.empty((d, d))
            for k in range(d):
                for l in range(d):
                    table[k, l] = probe(th_i + 2.0 * np.pi * k / d,
                                        th_s - 2.0 * np.pi * l / d)
            total = table.sum()
            if total <= 0:
                raise ValueError("probe produced a non-positive probability table")
            probs[(a, b)] = table / total

    def p_equal(a, b, shift):
        table = probs[(a, b)]
        return sum(table[j, (j + shift) % d] for j in range(d))

    value = 0.0
    for k in range(d // 2):
        weight = 1.0 - 2.0 * k / (d - 1)
        value += weight * (
            p_equal(0, 0, k) + p_equal(1, 0, -(k + 1))
            + p_equal(1, 1, k) + p_equal(0, 1, -k)
            - p_equal(0, 0, -(k + 1)) - p_equal(1, 0, k)
            - p_equal(1, 1, -(k + 1)) - p_equal(0, 1, k + 1)
        )
    return float(value)


def bell_i2(gamma1: float, gamma2: float,
            settings: CglmpSettings = DEFAULT_CGLMP_SETTINGS) -> BellResult:
    """d = 2 Bell parameter of the one-/two-photon interference model.

    The joint signal is |1 + g1*(e^{i phi_i} + e^{i phi_s}) +
    g2*e^{i(phi_i + phi_s)}|^2: g2 drives the two-photon (entangled) term, so
    g1 = 0, g2 = 1 is the maximally entangled qubit and reaches 2*sqrt(2).
    """
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("gamma coefficients must be non-negative")

    def probe(phi_i, phi_s):
        return float(np.abs(
            1.0
            + gamma1 * (np.exp(1j * phi_i) + np.exp(1j * phi_s))
            + gamma2 * np.exp(1j * (phi_i + phi_s))
        ) ** 2)

    value = cglmp_parameter(probe, d=2, settings=settings)
    thresholds = cglmp_thresholds(2)
    return BellResult(d=2, value=value, settings=settings,
                      lambda_critical=thresholds.lambda_critical,
                      visibility_critical=thresholds.visibility_critical)
