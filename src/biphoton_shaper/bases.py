"""Orthonormal single-photon spectral bases.

Three discretizations of the one-photon frequency axis: rectangular frequency
bins, Fourier-transformed time bins, and Schmidt modes of a joint amplitude.
Every constructor samples the closed-form functions on the grid axis and then
renormalizes with the grid's trapezoidal inner product, so that the Gram
matrix of a well-resolved basis is the identity at machine level.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisError, GridError, NumericalError, RankError, ResolutionError
from .spectral_field import JointAmplitude, SpectralGrid, sinc

SCHMIDT_RANK_FLOOR = 1e-12
# relative magnitude within which two samples tie as a mode's peak
MODE_PEAK_RTOL = 1e-9


@dataclass
class BasisSet:
    """d orthonormal complex functions sampled on a grid's frequency axis.

    ``functions`` has shape (d, n_points), continuum-normalized so that the
    trapezoidal integral of |f_j|^2 is 1.
    """

    grid: SpectralGrid
    functions: np.ndarray

    def __post_init__(self):
        self.functions = np.atleast_2d(np.asarray(self.functions))
        if self.functions.shape[1] != self.grid.n_points:
            raise GridError("basis functions do not match the grid axis")
        if self.d < 1:
            raise BasisError("a basis needs at least one function")

    @property
    def d(self) -> int:
        return self.functions.shape[0]


def gram_matrix(basis: BasisSet) -> np.ndarray:
    """Trapezoidal-rule Gram matrix G_jk = integral of conj(f_j) f_k."""
    fw = basis.functions.conj() * basis.grid.weights()
    return fw @ basis.functions.T


def _renormalize(functions: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    norms = np.sqrt(np.sum(np.abs(functions) ** 2 * grid.weights(), axis=1))
    return functions / norms[:, None]


def max_offdiag(basis: BasisSet) -> float:
    """Largest |G_jk - delta_jk| of the realized Gram matrix (0 for d = 1)."""
    g = gram_matrix(basis)
    return float(np.max(np.abs(g - np.eye(basis.d)))) if basis.d > 1 else 0.0


def _check_separation(centers, widths, what: str):
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if centers.shape != widths.shape or centers.ndim != 1:
        raise BasisError("centers and widths must be 1-d and of equal length")
    if np.any(widths < 0):
        raise BasisError(f"{what} widths must be non-negative")
    for j in range(len(centers)):
        for k in range(j + 1, len(centers)):
            if abs(centers[j] - centers[k]) <= 0.5 * (widths[j] + widths[k]):
                raise BasisError(
                    f"{what}s {j} and {k} overlap: |{centers[j]:g} - {centers[k]:g}| "
                    f"<= ({widths[j]:g} + {widths[k]:g})/2"
                )
    return centers, widths


def frequency_bins(centers, widths, grid: SpectralGrid) -> BasisSet:
    """Disjoint rectangular bins of height 1/sqrt(width) at the given centers.

    Bins must not overlap, must lie inside the grid window, and each must be
    covered by at least three grid samples.
    """
    centers, widths = _check_separation(centers, widths, "bin")
    if np.any(widths <= 0):
        raise BasisError("frequency bins need positive widths")
    ax = grid.axis()
    funcs = np.zeros((len(centers), grid.n_points))
    for j, (c, w) in enumerate(zip(centers, widths)):
        if c - w / 2 < ax[0] or c + w / 2 > ax[-1]:
            raise BasisError(f"bin {j} extends outside the grid window")
        support = np.abs(ax - c) < w / 2
        n_cover = int(np.count_nonzero(support))
        if n_cover < 3:
            raise ResolutionError(
                f"bin {j} covered by {n_cover} grid samples (< 3); widen it or refine the grid"
            )
        funcs[j, support] = 1.0 / np.sqrt(w)
    return BasisSet(grid=grid, functions=_renormalize(funcs, grid))


def time_bins(centers, widths, grid: SpectralGrid) -> BasisSet:
    """Frequency-domain images of rectangular time bins (centers/widths in fs).

    f_j(omega) = sqrt(dt_j/2pi) * exp(-i*omega*t_j) * sinc(omega*dt_j/2),
    grid-renormalized.  Zero-width bins mean a pure delay phasor apodized by
    the grid window.  Orthogonality is only approximate on a finite window;
    :func:`max_offdiag` gives the realized Gram leakage.
    """
    centers, widths = _check_separation(centers, widths, "time bin")
    ax = grid.axis()
    funcs = np.zeros((len(centers), grid.n_points), dtype=complex)
    for j, (t, dt) in enumerate(zip(centers, widths)):
        phasor = np.exp(-1j * ax * t)
        if dt == 0.0:
            funcs[j] = phasor
        else:
            funcs[j] = np.sqrt(dt / (2 * np.pi)) * phasor * sinc(ax * dt / 2.0)
    return BasisSet(grid=grid, functions=_renormalize(funcs, grid))


def _fix_mode_signs(functions: np.ndarray) -> np.ndarray:
    """Rotate each mode's global phase so its peak sample is real positive.

    The peak is the lowest-omega sample within ``MODE_PEAK_RTOL`` of the
    largest magnitude.  The two mirror peaks of a mode of a mirror-symmetric
    amplitude tie to rounding, so ``argmax`` alone would let the last bits of
    the eigensolver pick the sign.
    """
    out = functions.copy()
    for j in range(out.shape[0]):
        mag = np.abs(out[j])
        k = np.argmax(mag >= mag.max() * (1.0 - MODE_PEAK_RTOL))
        if mag[k] != 0:
            out[j] = out[j] * (np.conj(out[j, k]) / mag[k])
    if np.all(np.abs(out.imag) < 1e-14):
        out = out.real
    return out


def amplitude_svd(amp: JointAmplitude, compute_modes: bool = True):
    """Schmidt data of an amplitude: (weights beta, idler modes).

    Both come from one Hermitian eigenproblem.  With S = h * Gamma and
    H = S S^dagger, beta holds the eigenvalues of H in descending order, with
    rounding-level negatives clipped to 0; beta_j sums to one.  The idler
    modes are the matching eigenvectors as continuum-normalized rows of an
    (n, n) array, or None when ``compute_modes`` is false (only the
    eigenvalues are computed then).  H assumes no symmetry of Gamma, so
    complex amplitudes work too.  The signal side is the :func:`mirrored`
    idler basis, so the signal problem S^dagger S is never solved.

    beta are the squared singular values of S, and the name is kept from
    when they were computed by an SVD: the benchmark's tracer
    (``perfbench/tracer.py``) probes this function by name.

    Each amplitude is decomposed at most once per kind of request: the result
    is stored on the (immutable) amplitude, a values-only request reuses a
    full decomposition, and a full request replaces a values-only one.
    Raises :class:`NumericalError` when the eigensolver fails.
    """
    cached = amp._schmidt
    if cached is None or (compute_modes and cached[1] is None):
        h = amp.grid.spacing
        scaled = amp.values * h
        gram = scaled @ scaled.conj().T
        del scaled
        try:
            if compute_modes:
                eigenvalues, vectors = np.linalg.eigh(gram)
            else:
                eigenvalues, vectors = np.linalg.eigvalsh(gram), None
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"Schmidt eigensolver failed on the {amp.grid.n_points}^2 amplitude: {exc}"
            ) from exc
        beta = np.maximum(eigenvalues[::-1], 0.0)
        beta.flags.writeable = False
        modes = None
        if compute_modes:
            vectors /= np.sqrt(h)
            modes = vectors[:, ::-1].T
            modes.flags.writeable = False
        cached = amp._schmidt = (beta, modes)
    return cached if compute_modes else (cached[0], None)


def schmidt_modes(amp: JointAmplitude, d: int) -> BasisSet:
    """First d Schmidt modes of the amplitude as a basis for either photon.

    The mode weights are the first d of :func:`amplitude_svd`'s beta.  Each
    mode's global phase is fixed so that its peak sample is real positive
    (see :func:`_fix_mode_signs` for how tied peaks are resolved).  For the
    signal side of an anti-diagonally correlated amplitude use
    :func:`mirrored` of this basis.
    """
    if d < 1:
        raise BasisError("need d >= 1 Schmidt modes")
    if d > amp.grid.n_points:
        raise RankError(f"d = {d} exceeds the grid rank {amp.grid.n_points}")
    beta, modes_i = amplitude_svd(amp)
    if beta[d - 1] < SCHMIDT_RANK_FLOOR:
        raise RankError(
            f"d = {d} exceeds the numerical Schmidt rank: weight {beta[d - 1]:.3g} "
            f"< {SCHMIDT_RANK_FLOOR:g}"
        )
    funcs = _fix_mode_signs(modes_i[:d])
    return BasisSet(grid=amp.grid, functions=_renormalize(funcs, amp.grid))


def mirrored(basis: BasisSet) -> BasisSet:
    """The same basis reflected about omega = 0, i.e. f_j(-omega).

    This is the natural signal-side partner of an idler basis when the joint
    amplitude is concentrated along the energy-conservation anti-diagonal.
    """
    return BasisSet(grid=basis.grid, functions=basis.functions[:, ::-1].copy())
