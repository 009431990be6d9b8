"""Coincidence detection and discrete-state projections.

The upconversion detector measures S = |integral of Gamma * M_i * M_s|^2,
which for transfer functions built from an orthonormal basis equals the
projection probability of the discretized two-photon state.  Both are the
product-projection signal |u_i . C . u_s|^2, with C the grid amplitude
(trapezoid-weighted rows) or the d x d state, and both are evaluated by one
kernel, :func:`_product_signals`.  Every full-field scan is a pair of
transfer stacks, one row per setting, fed to :func:`coincidence_scan`;
:func:`fringe_scan` scans a phase ladder in state space.  This module also
synthesizes Poissonian count records and computes equalizing filter
amplitudes.
"""

from dataclasses import dataclass

import numpy as np

from .bases import BasisSet
from .errors import BasisError, GridError
from .shaper import TransferFunction
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


def gamma_model_state(gamma1: float, gamma2: float) -> QuditState:
    """Two-level model state interpolating product -> maximally entangled.

    c00 = 1, c01 = c10 = gamma1, c11 = gamma2, normalized.  gamma1 weights
    the single-photon and gamma2 the two-photon interference contribution.
    """
    c = np.array([[1.0, gamma1], [gamma1, gamma2]])
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


def _product_signals(c: np.ndarray, u_i: np.ndarray, u_s: np.ndarray, w=None):
    """Signals |(w * u_i) @ c @ (w * u_s)|^2, one per row of two row stacks.

    The one detection kernel: ``c`` is the grid amplitude with trapezoid
    weights ``w`` (a coincidence integral) or the d x d coefficients of a
    state with no weights (a projection probability).  ``u_i`` and ``u_s``
    are equally shaped ``(n,)`` or ``(P, n)``; the result is a float or an
    array of P signals.  ``c`` is cast once per call to the dtype of the row
    products (no copy when it already has that dtype), then the rows are
    evaluated one at a time.  Each row multiplies the same data that
    ``(w * u_i) @ c`` casts to, so every signal is bit-identical to that
    per-row expression.
    """
    if u_i.shape != u_s.shape:
        raise ValueError("idler and signal rows must have the same shape")
    factors = (u_i, c) if w is None else (w, u_i, c)
    c = c.astype(np.result_type(*factors), copy=False)
    n = u_i.shape[-1]
    rows = zip(u_i.reshape(-1, n), u_s.reshape(-1, n))
    if w is not None:
        rows = ((w * v_i, w * v_s) for v_i, v_s in rows)
    signals = np.array([np.abs(v_i @ c @ v_s) ** 2 for v_i, v_s in rows])
    return signals.reshape(u_i.shape[:-1])[()]


def coincidence_signal(amp: JointAmplitude, m_i: TransferFunction,
                       m_s: TransferFunction):
    """Detected upconversion signal |sum Gamma * M_i * M_s * weights|^2.

    Trapezoid-weighted double integral over the shared grid, one per row of
    the two equally shaped transfers (:func:`_product_signals`): a float for
    single settings, an array of P signals for stacks of P; deterministic.
    """
    if not (amp.grid.same_axis(m_i.grid) and amp.grid.same_axis(m_s.grid)):
        raise GridError("amplitude and transfer functions must share one grid")
    return _product_signals(amp.values, m_i.values, m_s.values, amp.grid.weights())


def project_state(amp: JointAmplitude, basis_i: BasisSet, basis_s: BasisSet) -> QuditState:
    """Coefficients c_jk = integral conj(f_j) conj(f_k) Gamma over the grid."""
    if not (amp.grid.same_axis(basis_i.grid) and amp.grid.same_axis(basis_s.grid)):
        raise GridError("amplitude and bases must share one grid")
    w = amp.grid.weights()
    fi = basis_i.functions.conj() * w
    fs = basis_s.functions.conj() * w
    c = fi @ amp.values @ fs.T
    return QuditState(coefficients=c)


def projection_probability(state: QuditState, u_i, u_s):
    """Probability |sum_jk u_i[j] u_s[k] c_jk|^2 of a product projection.

    ``u_i`` and ``u_s`` are equally shaped ``(d,)`` vectors (a float) or
    ``(P, d)`` stacks (an array of P probabilities), evaluated by
    :func:`_product_signals`.
    """
    u_i = np.asarray(u_i)
    u_s = np.asarray(u_s)
    if u_i.ndim not in (1, 2) or u_i.shape[-1] != state.d:
        raise ValueError("projection vectors must have the state's dimension")
    if np.any(np.abs(u_i) > 1 + 1e-12) or np.any(np.abs(u_s) > 1 + 1e-12):
        raise ValueError("projection coefficients must have modulus <= 1")
    return _product_signals(state.coefficients, u_i, u_s)


def _unit_mean(values: np.ndarray) -> np.ndarray:
    mean = values.mean()
    return values / mean if mean > 0 else values


def coincidence_scan(amp: JointAmplitude, m_i: TransferFunction,
                     m_s: TransferFunction) -> np.ndarray:
    """Coincidence signals of two (P, n) transfer stacks, row by row, unit mean.

    The full-field scan engine: every point is its own double integral over
    the grid (:func:`coincidence_signal`), never a projection of the state.
    """
    return _unit_mean(coincidence_signal(amp, m_i, m_s))


def fringe_scan(state: QuditState, phi, amplitudes=None) -> FringeScan:
    """Phase-ladder interference scan of a state, both photons at the same phase.

    Both photons are projected onto the ladder a_j exp(i*j*phi) / |a|, with
    ``amplitudes`` a weighting the basis states (default: all ones); values
    are normalized to unit mean.  Any phase grid is scanned; whether it
    covers a fringe period is the fit's check (:mod:`metrics`).  The
    full-field scan of the same ladder builds one transfer stack per photon
    (:func:`~biphoton_shaper.shaper.transfer_from_coefficients` at phases
    ``phi[:, None] * arange(d)``) and passes both to :func:`coincidence_scan`.
    """
    phi = np.asarray(phi, dtype=float)
    d = state.d
    a = np.ones(d) if amplitudes is None else np.asarray(amplitudes, dtype=float)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("projection amplitudes must not all vanish")
    ladders = a * np.exp(1j * phi[:, np.newaxis] * np.arange(d)) / norm
    return FringeScan(phi=phi, values=_unit_mean(projection_probability(state, ladders, ladders)))


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
