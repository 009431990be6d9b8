"""Entanglement quantification, fringe-model fitting and Bell tests.

Schmidt spectrum metrics (entropy, Schmidt number, effective dimension),
critical visibilities of the d-dimensional Bell inequality, least-squares
fits of the interference fringe models, and the d = 2 Bell parameter
evaluated from the projection probabilities of a two-qubit state (one stack
through :func:`measurement.projection_probability`, the package's one
detection kernel).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import least_squares

from .bases import ENTROPY_EIGENVALUE_FLOOR, amplitude_svd
from .errors import FitError
from .measurement import (
    CountRecord,
    FringeScan,
    QuditState,
    gamma_model_state,
    projection_probability,
)
from .spectral_field import JointAmplitude

# The free parameters of each fringe fit, and the phase points a fit needs
# per parameter; validation reads them too.
POINTS_PER_PARAMETER = 2
LAMBDA_PARAMETERS = ("scale", "lambda", "phi0")
GAMMA_PARAMETERS = ("scale", "gamma1", "gamma2", "phi0")


@dataclass
class EntanglementReport:
    """Schmidt weights and the entanglement measures they define.

    eigenvalues: the mode weights above ``ENTROPY_EIGENVALUE_FLOOR``, descending
    (the floor is applied on construction); entropy in ebits; schmidt_number
    K = 1/sum(beta^2); effective_dimension 2**entropy.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        self.eigenvalues = self.eigenvalues[self.eigenvalues > ENTROPY_EIGENVALUE_FLOOR]
        if self.entropy < -1e-12 or self.schmidt_number < 1.0 - 1e-9:
            raise ValueError("entropy must be >= 0 and Schmidt number >= 1")
        if self.schmidt_number > self.effective_dimension * (1 + 1e-9):
            raise ValueError("Schmidt number cannot exceed the effective dimension")
        if self.effective_dimension > len(self.eigenvalues) * (1 + 1e-9):
            raise ValueError("effective dimension cannot exceed the spectrum rank")

    @property
    def entropy(self) -> float:
        return float(-np.sum(self.eigenvalues * np.log2(self.eigenvalues)))

    @property
    def schmidt_number(self) -> float:
        return float(1.0 / np.sum(self.eigenvalues**2))

    @property
    def effective_dimension(self) -> float:
        return float(2.0**self.entropy)


def schmidt_decompose(amp: JointAmplitude) -> EntanglementReport:
    """Entanglement report of an amplitude, from its Schmidt weights alone.

    The weights are the eigenvalues of :func:`bases.amplitude_svd`, computed
    without eigenvectors (or reused, when the amplitude already carries a
    full decomposition); that function says how the problem is split by
    mirror parity.  :func:`bases.schmidt_modes` gives the modes.
    """
    return EntanglementReport(amplitude_svd(amp, compute_modes=False)[0])


def visibility_from_lambda(lam: float, d: int) -> float:
    """Fringe visibility of the symmetric-noise model at mixing parameter lambda."""
    return d * lam / (2.0 + lam * (d - 2))


def lambda_from_visibility(v: float, d: int) -> float:
    """Inverse of :func:`visibility_from_lambda`."""
    return 2.0 * v / (d - v * (d - 2))


def cglmp_maximum(d: int) -> float:
    """Bell parameter I_d of the maximally entangled d x d state, in closed form.

    I_d = 4d sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}) with
    q_k = 1/(2 d^3 sin^2(pi(k + 1/4)/d)) (Collins, Gisin, Linden, Massar &
    Popescu, PRL 88, 040404 (2002)): 2*sqrt(2) at d = 2, rising towards
    32G/pi^2 (G Catalan's constant).  Raises ``ValueError`` for d < 2.
    """
    if d < 2:
        raise ValueError(f"the Bell parameter needs d >= 2, got {d}")
    k = np.arange(d // 2)
    q_k, q_mirror = (1.0 / (2.0 * d**3 * np.sin(np.pi * (j + 0.25) / d) ** 2)
                     for j in (k, -(k + 1)))
    return float(4 * d * np.sum((1.0 - 2.0 * k / (d - 1)) * (q_k - q_mirror)))


def critical_visibility(d: int) -> float:
    """Fringe visibility above which the d-dimensional Bell inequality is violated.

    The critical mixing parameter is 2 / I_d (:func:`cglmp_maximum`).
    """
    return visibility_from_lambda(2.0 / cglmp_maximum(d), d)


# ---------------------------------------------------------------------------
# Fringe models
# ---------------------------------------------------------------------------

def lambda_fringe_model(d: int, phi, lam: float, phi0: float = 0.0):
    """Phase-ladder coincidence fringe of the symmetric-noise model (unit scale),
    d + 2*lam * sum_{k=1}^{d-1} (d-k) cos(k*theta) with theta = 2*phi + phi0:
    its mean over a period is d, and at lam = 1 it peaks at d^2."""
    theta = 2.0 * np.asarray(phi) + phi0
    return d + 2.0 * lam * sum((d - k) * np.cos(k * theta) for k in range(1, d))


def gamma_fringe_model(phi, gamma1: float, gamma2: float, phi0: float = 0.0):
    """|1 + 2*g1*e^{i(phi+phi0/2)} + g2*e^{i(2phi+phi0)}|^2 (unit scale)."""
    theta = np.asarray(phi) + phi0 / 2.0
    return np.abs(1.0 + 2.0 * gamma1 * np.exp(1j * theta)
                  + gamma2 * np.exp(2j * theta)) ** 2


@dataclass
class FitResult:
    """Nonlinear least-squares fit of a fringe model.

    ``parameters``, ``uncertainties`` (1-sigma, from the residual
    covariance) and ``at_bound`` (whether the parameter ends on one of its
    bounds, where its uncertainty is not a confidence interval) are keyed by
    parameter name; ``residual_norm`` is the RMS of the weighted residuals
    at the solution.
    """

    parameters: dict
    uncertainties: dict
    at_bound: dict
    residual_norm: float


def _fit(source, model, start, bounds, names, period, gradient=None):
    """Fit scale * model(phi, *rest) to a FringeScan or CountRecord.

    The parameters (scale, *rest) are named by ``names`` and start at
    ``start(phi, y)``; the phases must cover one fringe ``period`` with
    POINTS_PER_PARAMETER points per parameter.  CountRecord input is
    background-subtracted and Poisson-weighted.  ``gradient(phi, *rest)`` gives
    the model's derivatives in ``rest``; without it the Jacobian is a
    two-point finite difference.  Data that are zero everywhere (a record with
    no counts) raise FitError.
    """
    if isinstance(source, CountRecord):
        phi, y = source.phi, source.net()
        sigma = np.sqrt(np.maximum(source.gross + source.background, 1.0))
    elif isinstance(source, FringeScan):
        phi, y, sigma = source.phi, source.values, np.ones_like(source.values)
    else:
        raise TypeError("expected a FringeScan or CountRecord")
    least = POINTS_PER_PARAMETER * len(names)
    if len(phi) < least:
        raise FitError(f"need at least {least} points, got {len(phi)}")
    if not np.any(y):
        raise FitError("every value of the record is zero: there is no fringe to fit")
    span = phi[-1] - phi[0]
    if span + span / (len(phi) - 1) < period * (1 - 1e-9):
        raise FitError(f"phase span {span:.3f} rad does not cover one period ({period:.3f})")

    def residual(p):
        return (p[0] * model(phi, *p[1:]) - y) / sigma

    def jacobian(p):
        columns = [model(phi, *p[1:]), *(p[0] * g for g in gradient(phi, *p[1:]))]
        return np.stack(columns, axis=1) / sigma[:, None]

    x0 = start(phi, y)
    result = least_squares(residual, x0, jac="2-point" if gradient is None else jacobian,
                           bounds=bounds, method="trf",
                           xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    if not result.success and result.status <= 0:
        raise FitError(f"fit did not converge: {result.message} (nfev={result.nfev})")
    dof = max(len(result.fun) - len(x0), 1)
    cov = np.linalg.pinv(result.jac.T @ result.jac) * (2.0 * result.cost / dof)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(parameters=dict(zip(names, result.x)),
                     uncertainties=dict(zip(names, err)),
                     at_bound=dict(zip(names, (result.active_mask != 0).tolist())),
                     residual_norm=float(np.sqrt(np.mean(result.fun**2))))


def fit_fringe(source, d: int) -> FitResult:
    """Fit the d-level phase-ladder fringe model (free: scale, lambda, phi0).

    Deterministic initialization: scale from the mean, lambda from the
    classical visibility mapped through the noise model, phi0 from the argmax.
    The Jacobian is analytic.
    """
    if d < 2:
        raise ValueError(f"no fringe model for d = {d}")
    k = np.arange(1, d)[:, None]

    def start(phi, y):
        top, bottom = float(np.max(y)), float(np.min(y))
        vis = (top - bottom) / max(top + bottom, 1e-12)
        return [max(float(np.mean(y)) / d, 1e-12),
                float(np.clip(lambda_from_visibility(min(vis, 0.999), d), 1e-3, 1.0)),
                float((-2.0 * phi[np.argmax(y)]) % (2.0 * np.pi))]

    def gradient(phi, lam, phi0):
        theta = 2.0 * phi + phi0
        return (2.0 * ((d - k) * np.cos(k * theta)).sum(axis=0),
                -2.0 * lam * (k * (d - k) * np.sin(k * theta)).sum(axis=0))

    return _fit(source, partial(lambda_fringe_model, d), start,
                ([0.0, 0.0, -np.inf], [np.inf, 1.0, np.inf]), LAMBDA_PARAMETERS,
                np.pi, gradient)


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
    bounds = ([0.0, 0.0, 0.0, -np.inf], [np.inf, np.inf, np.inf, np.inf])
    # from gamma1 = gamma2 = 0.5, where the model's mean is 1 + 5 * 0.5^2 = 2.25
    fit = _fit(source, gamma_fringe_model,
               lambda phi, y: [max(float(np.mean(y)) / 2.25, 1e-12), 0.5, 0.5,
                               float((-2.0 * phi[np.argmax(y)]) % (4.0 * np.pi))],
               bounds, GAMMA_PARAMETERS, 2.0 * np.pi)
    scale, g1, g2, phi0 = fit.parameters.values()
    if g2 > 1.0:
        alt = _fit(source, gamma_fringe_model, lambda *_: [scale * g2**2, g1, 1.0 / g2, phi0],
                   bounds, GAMMA_PARAMETERS, 2.0 * np.pi)
        if alt.residual_norm <= fit.residual_norm * (1.0 + 1e-9):
            fit = alt
    return fit


# ---------------------------------------------------------------------------
# Bell parameter
# ---------------------------------------------------------------------------


# Phase offsets of the two measurement settings per photon for the d = 2 Bell
# parameter: outcome k of idler setting a probes phase CGLMP_IDLER_OFFSETS[a] +
# pi*k; outcome l of signal setting b probes CGLMP_SIGNAL_OFFSETS[b] - pi*l.
CGLMP_IDLER_OFFSETS = (0.0, np.pi / 2.0)
CGLMP_SIGNAL_OFFSETS = (np.pi / 4.0, -np.pi / 4.0)


def cglmp_parameter(state: QuditState) -> float:
    """d = 2 Bell parameter from the projection probabilities of a two-qubit state.

    Outcome k of idler setting a projects onto the ladder
    (1, e^{i(theta_a + pi*k)}) and outcome l of signal setting b onto
    (1, e^{i(theta_b - pi*l)}).  The 16 outcome probabilities are one stack;
    each setting pair's 2 x 2 table is normalized, and with P_ab = P(l = k)
    I_2 = 2*(P_00 + P_01 + P_11 - P_10) - 2.
    """
    set_i, set_s, out_i, out_s = np.indices((2, 2, 2, 2)).reshape(4, -1)
    phi_i = np.take(CGLMP_IDLER_OFFSETS, set_i) + np.pi * out_i
    phi_s = np.take(CGLMP_SIGNAL_OFFSETS, set_s) - np.pi * out_s
    tables = projection_probability(state, np.exp(1j * np.outer(phi_i, [0, 1])),
                                    np.exp(1j * np.outer(phi_s, [0, 1])))
    tables = tables.reshape(2, 2, 2, 2)
    totals = tables.sum(axis=(2, 3))
    if np.any(totals <= 0):
        raise ValueError("state gives a non-positive probability table")
    p_equal = np.trace(tables, axis1=2, axis2=3) / totals
    return float(2.0 * (p_equal[0, 0] + p_equal[0, 1] + p_equal[1, 1] - p_equal[1, 0]) - 2.0)


def bell_i2(gamma1: float, gamma2: float) -> float:
    """d = 2 Bell parameter of the one-/two-photon interference model.

    The state is :func:`measurement.gamma_model_state`, whose joint signal is
    |1 + g1*(e^{i phi_i} + e^{i phi_s}) + g2*e^{i(phi_i + phi_s)}|^2 up to
    normalization: g2 drives the two-photon (entangled) term, so g1 = 0,
    g2 = 1 is the maximally entangled qubit and reaches the quantum ceiling
    :func:`cglmp_maximum` (2) = 2*sqrt(2).
    """
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("gamma coefficients must be non-negative")
    return cglmp_parameter(gamma_model_state(gamma1, gamma2))
