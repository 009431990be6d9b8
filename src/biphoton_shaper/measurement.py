"""Coincidence detection and discrete-state projections.

The upconversion detector measures S = |integral of Gamma * M_i * M_s|^2,
which for transfer functions built from an orthonormal basis equals the
projection probability of the discretized two-photon state.  This module
evaluates both routes, runs phase-ladder fringe scans, synthesizes Poissonian
count records, and computes equalizing filter amplitudes.  Every full-field
scan goes through :func:`coincidence_scan`.
"""

from dataclasses import dataclass

import numpy as np

from .bases import BasisSet
from .errors import BasisError, GridError
from .shaper import (
    SlmModel,
    TransferFunction,
    TransferSpec,
    pixelate,
    transfer_from_coefficients,
)
from .spectral_field import JointAmplitude

# Largest mean numpy's Poisson sampler accepts (the bound its Generator uses);
# a larger mean raises "lam value too large".
POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


@dataclass
class QuditState:
    """Discretized two-photon state: d x d coefficients over a basis pair.

    The captured weight sum(|c|^2) is at most 1; the deficit is the part of
    the continuous amplitude outside the span of the basis pair.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 2 or self.coefficients.shape[0] != self.coefficients.shape[1]:
            raise ValueError("coefficients must be a square matrix")
        w = self.captured_weight
        if w > 1.0 + 1e-9:
            raise ValueError(f"state weight {w} exceeds 1; basis is not orthonormal?")

    @property
    def d(self) -> int:
        return self.coefficients.shape[0]

    @property
    def captured_weight(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    @property
    def truncation_weight(self) -> float:
        """Weight of the amplitude outside the basis span (>= 0 up to rounding)."""
        return 1.0 - self.captured_weight


def max_entangled_state(d: int, phi0: float = 0.0) -> QuditState:
    """Maximally entangled diagonal state c = diag(exp(i*l*phi0))/sqrt(d)."""
    c = np.diag(np.exp(1j * phi0 * np.arange(d))) / np.sqrt(d)
    return QuditState(coefficients=c)


def gamma_model_state(gamma1: float, gamma2: float, phi0: float = 0.0) -> QuditState:
    """Two-level model state interpolating product -> maximally entangled.

    c00 = 1, c01 = c10 = gamma1*exp(i*phi0/2), c11 = gamma2*exp(i*phi0),
    normalized.  gamma1 weights the single-photon and gamma2 the two-photon
    interference contribution.
    """
    c = np.array([
        [1.0, gamma1 * np.exp(1j * phi0 / 2)],
        [gamma1 * np.exp(1j * phi0 / 2), gamma2 * np.exp(1j * phi0)],
    ])
    c /= np.sqrt(1.0 + 2.0 * gamma1**2 + gamma2**2)
    return QuditState(coefficients=c)


@dataclass
class FringeScan:
    """Signal versus projection phase, normalized to unit mean."""

    phi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.phi.shape != self.values.shape or self.phi.ndim != 1:
            raise ValueError("phi and values must be matching 1-d arrays")
        if np.any(np.diff(self.phi) <= 0):
            raise ValueError("phi samples must be strictly increasing")
        if np.any(self.values < -1e-12):
            raise ValueError("fringe values must be non-negative")
        self.values = np.maximum(self.values, 0.0)


@dataclass
class CountRecord:
    """Synthetic coincidence counts: gross and background draws per phase point."""

    phi: np.ndarray
    gross: np.ndarray
    background: np.ndarray
    duration: float          # seconds per point

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.gross = np.asarray(self.gross)
        self.background = np.asarray(self.background)
        for counts in (self.gross, self.background):
            if not np.issubdtype(counts.dtype, np.integer) or np.any(counts < 0):
                raise ValueError("counts must be non-negative integers")

    def net(self) -> np.ndarray:
        return self.gross.astype(float) - self.background.astype(float)


def coincidence_signal(amp: JointAmplitude, m_i: TransferFunction,
                       m_s: TransferFunction) -> float:
    """Detected upconversion signal |sum Gamma * M_i * M_s * weights|^2.

    Trapezoid-weighted double integral over the shared grid; deterministic.
    """
    if not (amp.grid.same_axis(m_i.grid) and amp.grid.same_axis(m_s.grid)):
        raise GridError("amplitude and transfer functions must share one grid")
    w = amp.grid.weights()
    integral = (w * m_i.values) @ amp.values @ (w * m_s.values)
    return float(np.abs(integral) ** 2)


def project_state(amp: JointAmplitude, basis_i: BasisSet, basis_s: BasisSet) -> QuditState:
    """Coefficients c_jk = integral conj(f_j) conj(f_k) Gamma over the grid."""
    if not (amp.grid.same_axis(basis_i.grid) and amp.grid.same_axis(basis_s.grid)):
        raise GridError("amplitude and bases must share one grid")
    w = amp.grid.weights()
    fi = basis_i.functions.conj() * w
    fs = basis_s.functions.conj() * w
    c = fi @ amp.values @ fs.T
    return QuditState(coefficients=c)


def projection_probability(state: QuditState, u_i, u_s) -> float:
    """Probability |sum_jk u_i[j] u_s[k] c_jk|^2 of a product projection."""
    u_i = np.asarray(u_i)
    u_s = np.asarray(u_s)
    if u_i.shape != (state.d,) or u_s.shape != (state.d,):
        raise ValueError("projection vectors must have the state's dimension")
    if np.any(np.abs(u_i) > 1 + 1e-12) or np.any(np.abs(u_s) > 1 + 1e-12):
        raise ValueError("projection coefficients must have modulus <= 1")
    return float(np.abs(u_i @ state.coefficients @ u_s) ** 2)


def _ladder(d: int, phi: float, amplitudes=None) -> np.ndarray:
    """Unit-norm projection vector with per-level phases j*phi."""
    a = np.ones(d) if amplitudes is None else np.asarray(amplitudes, dtype=float)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("projection amplitudes must not all vanish")
    return a * np.exp(1j * phi * np.arange(d)) / norm


def _scan_amplitude_scale(spec: TransferSpec) -> float:
    """Factor making the transfer physical for every phase setting at once."""
    envelope = spec.amplitudes @ np.abs(spec.basis.functions)
    worst = float(envelope.max())
    return min(1.0, 1.0 / worst) if worst > 0 else 1.0


def _unit_mean(values: np.ndarray) -> np.ndarray:
    mean = values.mean()
    return values / mean if mean > 0 else values


def coincidence_scan(amp: JointAmplitude, transfer_pairs) -> np.ndarray:
    """Coincidence signals of a sequence of (M_i, M_s) settings, unit mean.

    The full-field scan engine: every point is its own double integral over
    the grid (:func:`coincidence_signal`), never a projection of the state.
    """
    values = np.array([coincidence_signal(amp, m_i, m_s) for m_i, m_s in transfer_pairs])
    return _unit_mean(values)


def fringe_scan(source, phi, amplitudes=None, slm: SlmModel | None = None) -> FringeScan:
    """Phase-ladder interference scan, both photons at the same phase.

    ``source`` is either a QuditState (state-space route: both photons
    projected onto the phase ladder exp(i*j*phi), weighted by ``amplitudes``)
    or a tuple (JointAmplitude, TransferSpec, TransferSpec) (full-field route:
    transfer functions rebuilt at each phase, quantized onto the modulator
    pixels when ``slm`` is given, and fed to :func:`coincidence_scan`).
    Values are normalized to unit mean.
    """
    phi = np.asarray(phi, dtype=float)
    if len(phi) < 2:
        raise ValueError("need at least two phase samples")
    span = phi[-1] - phi[0]
    step = span / (len(phi) - 1)
    if span + step < np.pi * (1 - 1e-9):
        raise ValueError("phase grid must cover at least one fringe period (pi)")
    if isinstance(source, QuditState):
        ladders = (_ladder(source.d, p, amplitudes) for p in phi)
        values = _unit_mean(np.array([projection_probability(source, u, u)
                                      for u in ladders]))
    else:
        amp, spec_i, spec_s = source
        d = spec_i.basis.d
        if spec_s.basis.d != d:
            raise BasisError("idler and signal bases must share the dimension")
        # One common physicality rescale for the whole scan: the worst-case
        # modulus over all phase settings is bounded by sum_j |u_j| |f_j|.
        # A per-point rescale would distort the fringe for overlapping bases.
        scale_i = _scan_amplitude_scale(spec_i)
        scale_s = _scan_amplitude_scale(spec_s)
        ladder = np.arange(d)

        def transfer(spec, scale, p):
            m = transfer_from_coefficients(
                TransferSpec(spec.basis, spec.amplitudes * scale, spec.phases + ladder * p))
            return m if slm is None else pixelate(m, slm)

        values = coincidence_scan(amp, ((transfer(spec_i, scale_i, p),
                                         transfer(spec_s, scale_s, p))
                                        for p in phi))
    return FringeScan(phi=phi, values=values)


def synthesize_counts(scan: FringeScan, peak_rate: float, background_rate: float,
                      duration_s: float, seed: int) -> CountRecord:
    """Poissonian count record for a fringe scan.

    The scan is rescaled so its maximum corresponds to ``peak_rate`` [Hz];
    every point draws gross counts at (signal + background) * duration and an
    independent background-only measurement of the same duration, so every
    Poisson mean is at most (peak_rate + background_rate) * duration_s, which
    must not exceed POISSON_LAM_MAX.  Fixed seed gives identical records.
    """
    if peak_rate < 0 or background_rate < 0:
        raise ValueError("rates must be non-negative")
    if duration_s < 0:
        raise ValueError("duration must be non-negative")
    rng = np.random.default_rng(seed)
    peak = scan.values.max()
    signal_rate = peak_rate * (scan.values / peak) if peak > 0 else np.zeros_like(scan.values)
    gross = rng.poisson((signal_rate + background_rate) * duration_s)
    background = rng.poisson(background_rate * duration_s, size=scan.values.shape)
    return CountRecord(phi=scan.phi.copy(), gross=gross, background=background,
                       duration=duration_s)


def procrustean_amplitudes(signals) -> np.ndarray:
    """Filter amplitudes that equalize single-projection signals.

    |u_k| = (S_min / S_k)^(1/4), so re-measured signals |u_k|^4 * S_k all equal
    the smallest one and max |u_k| = 1.
    """
    s = np.asarray(signals, dtype=float)
    if s.ndim != 1 or len(s) < 1:
        raise ValueError("need a 1-d list of signals")
    if np.any(s <= 0):
        raise BasisError("degenerate bin: all single-projection signals must be positive")
    return (s.min() / s) ** 0.25
