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
from .spectral_field import ROW_BLOCK, JointAmplitude, SpectralGrid, sinc

SCHMIDT_RANK_FLOOR = 1e-12
# mode weights at or below this floor are rounding noise of the eigensolver
ENTROPY_EIGENVALUE_FLOOR = 1e-15
# fewest grid samples, or modulator pixels, that may resolve a frequency bin
MIN_SAMPLES_PER_BIN = 3
# relative magnitude within which two samples tie as a mode's peak
MODE_PEAK_RTOL = 1e-9
# largest mirror coupling c at which the Schmidt problem splits by parity;
# Weyl's bound 2c + c^2 then keeps every weight within 1e-14
PARITY_COUPLING_MAX = 5e-15
# Low-rank Schmidt solve: sketch width, the smallest Ritz value that
# shows the sketch holds every weight above the entropy floor, and the seed
_SKETCH_COLUMNS = 80
_SKETCH_TAIL = 1e-3 * ENTROPY_EIGENVALUE_FLOOR
_SKETCH_SEED = 0


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
    # if any two intervals overlap, two neighbours in centre order do
    order = np.argsort(centers, kind="stable")
    c, w = centers[order], widths[order]
    clash = np.flatnonzero(np.diff(c) <= 0.5 * (w[1:] + w[:-1]))
    if len(clash):
        j, k = sorted(order[clash[0]:clash[0] + 2])
        raise BasisError(f"{what}s {j} and {k} overlap: |{centers[j]:g} - {centers[k]:g}| "
                         f"<= ({widths[j]:g} + {widths[k]:g})/2")
    return centers, widths


def symmetric_centers(d: int, spacing: float) -> np.ndarray:
    """d bin centers ``spacing`` apart, symmetric about zero."""
    return (np.arange(d) - (d - 1) / 2.0) * spacing


def frequency_bins(centers, widths, grid: SpectralGrid) -> BasisSet:
    """Disjoint rectangular bins of height 1/sqrt(width) at the given centers.

    Bins must not overlap, must lie inside the grid window, and each must be
    covered by at least MIN_SAMPLES_PER_BIN grid samples.
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
        if n_cover < MIN_SAMPLES_PER_BIN:
            raise ResolutionError(f"bin {j} covered by {n_cover} grid samples "
                                  f"(< {MIN_SAMPLES_PER_BIN}); widen it or refine the grid")
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
    """Flip each real mode's sign so its peak sample is positive.

    The peak is the lowest-omega sample within ``MODE_PEAK_RTOL`` of the
    largest magnitude.  The two mirror peaks of a mode of a mirror-symmetric
    amplitude tie to rounding, so ``argmax`` alone would let the last bits of
    the eigensolver pick the sign.
    """
    out = functions.copy()
    for j in range(out.shape[0]):
        mag = np.abs(out[j])
        k = np.argmax(mag >= mag.max() * (1.0 - MODE_PEAK_RTOL))
        if out[j, k] < 0:
            out[j] = -out[j]
    return out


def _fold(x: np.ndarray, parity: int, axis: int = 0) -> np.ndarray:
    """Even (parity 0) or odd (parity 1) mirror coordinates of x along ``axis``
    (0: of its rows, 1: of its columns).

    Sample i pairs with its mirror n-1-i (omega with -omega).  The even
    coordinates are (x_i + x_{n-1-i})/sqrt(2) for i < n//2, followed by the
    centre sample when n is odd; the odd ones are (x_i - x_{n-1-i})/sqrt(2).
    """
    n = x.shape[axis]
    m = n // 2

    def along(index):
        return (slice(None),) * axis + (index,)

    upper, lower = x[along(slice(None, m))], x[along(slice(None, n - m - 1, -1))]
    if parity:
        return (upper - lower) / np.sqrt(2.0)
    out = np.empty_like(x[along(slice(None, n - m))])  # filled in place: no concatenation
    head = out[along(slice(None, m))]
    np.divide(np.add(upper, lower, out=head), np.sqrt(2.0), out=head)
    out[along(slice(m, None))] = x[along(slice(m, n - m))]
    return out


def _lift(modes: np.ndarray, rows, coords: np.ndarray, parity: int) -> None:
    """Write rows of one parity's mirror coordinates x into ``modes[rows]``.

    The inverse of :func:`_fold` with the other parity zero, so each row is
    exactly (anti)symmetric, computed as (x + 0, x - 0)/sqrt(2) for even x
    (then the centre) and (0 + x, 0 - x)/sqrt(2) for odd x: zeros keep the
    signs they had when the other parity was padded with zeros.
    """
    n = modes.shape[1]
    m = n // 2
    x = coords[:, :m]
    modes[rows, :m] = (x + 0) / np.sqrt(2.0)
    modes[rows, n - m:] = ((0 - x) if parity else (x - 0))[:, ::-1] / np.sqrt(2.0)
    modes[rows, m:n - m] = 0 if parity else coords[:, m:]


def _parity_blocks(amp: JointAmplitude):
    """The blocks to solve, and the mirror coupling
    c = (||S_eo||^2 + ||S_oe||^2)^(1/2) = ||S - J S J||_F / 2 of S = h * Gamma
    (J the sample reversal; c = 0 for an amplitude symmetric under
    (omega_i, omega_s) -> (-omega_i, -omega_s)).

    The rows are folded one parity at a time, then the columns of that
    contiguous fold; both blocks of that row parity of S' = Q S Q^T come
    from it, and the off-diagonal one is dropped once its norm is summed.
    The blocks are the diagonal ones, [S_ee, S_oo], in mirror coordinates
    when c is at most ``PARITY_COUPLING_MAX``, else [S] in sample
    coordinates.
    """
    h = amp.grid.spacing
    blocks, coupling2 = [], 0.0
    for p in (0, 1):
        rows = _fold(amp.values, p)
        coupling2 += np.linalg.norm(_fold(rows, 1 - p, axis=1)) ** 2
        block = _fold(rows, p, axis=1)
        del rows  # each fold is freed before the next array is made
        block *= h
        blocks.append(block)
        del block
    coupling = h * float(np.sqrt(coupling2))
    if coupling > PARITY_COUPLING_MAX:
        blocks.clear()  # the folded blocks are freed before S is made
        blocks.append(amp.values * h)
    return blocks, coupling


def _solve_block(blocks: list, compute_modes: bool):
    """Pop the first block B off ``blocks`` and solve B B^T.

    Returns its eigenvalues in descending order and, when ``compute_modes``
    is true, the eigenvectors of those at or above ``SCHMIDT_RANK_FLOOR`` as
    columns (else None).  A values-only request is one dense ``eigvalsh``.
    A mode request on a block of order above 2k, k = ``_SKETCH_COLUMNS``,
    first tries a randomized range finder with one step of subspace
    iteration (Halko, Martinsson & Tropp, SIAM Rev. 53, 217 (2011)):
    Q = qr(B Omega) for k fixed-seed Gaussian columns Omega, then
    Q = qr(B B^T Q), and the Ritz pairs (w, Q V) of C C^T with
    C = Q^T B.  When the smallest Ritz value is below ``_SKETCH_TAIL``,
    the sketch holds every weight above the entropy floor, and the block's
    other weights are stored as 0.0.  Otherwise, and for smaller blocks, the
    block is solved by the dense ``eigh`` of B B^T, with B freed before
    it is solved.
    """
    b = blocks.pop(0)
    order = len(b)
    k = _SKETCH_COLUMNS
    if compute_modes and 2 * k < order:
        omega = np.random.default_rng(_SKETCH_SEED).standard_normal((b.shape[1], k))
        q = np.linalg.qr(b @ omega)[0]
        q = np.linalg.qr(b @ (b.T @ q))[0]
        c = q.T @ b
        w, v = np.linalg.eigh(c @ c.T)
        if w[0] < _SKETCH_TAIL:
            kept = np.count_nonzero(w >= SCHMIDT_RANK_FLOOR)
            return np.concatenate([w[::-1], np.zeros(order - k)]), q @ v[:, ::-1][:, :kept]
    gram = b @ b.T
    del b
    if not compute_modes:
        return np.linalg.eigvalsh(gram)[::-1], None
    w, v = np.linalg.eigh(gram)
    del gram
    # a block's readable modes are its leading eigenvectors
    kept = np.count_nonzero(w >= SCHMIDT_RANK_FLOOR)
    return w[::-1], v[:, ::-1][:, :kept].copy()


def amplitude_svd(amp: JointAmplitude, compute_modes: bool = True):
    """Schmidt data of an amplitude: (weights beta, idler modes).

    Both come from symmetric eigenproblems on S = h * Gamma, split by mirror
    parity.  Q pairs each sample with its mirror (omega with -omega) and maps
    them to the even and odd coordinates of :func:`_fold`; S' = Q S Q^T then
    has the blocks S_ee, S_eo, S_oe and S_oo.  When the coupling
    c = (||S_eo||^2 + ||S_oe||^2)^(1/2) (:func:`_parity_blocks`) is at most
    ``PARITY_COUPLING_MAX``, the blocks solved are S_ee and S_oo, of orders
    (n+1)/2 and (n-1)/2 (n/2 each for even n); otherwise the only block is
    S itself, in sample coordinates.  Since ||S||_F = 1, Weyl's bound moves
    no weight by more than 2c + c^2 when S_eo and S_oe are dropped, so the
    split keeps every beta within 1e-14.  An amplitude symmetric under
    (omega_i, omega_s) -> (-omega_i, -omega_s), as the degenerate one is,
    has c = 0 and Schmidt modes of definite parity (Law, Walmsley & Eberly,
    PRL 84, 5304 (2000)).

    For each block B, beta holds the eigenvalues of B B^T
    (:func:`_solve_block`), merged over the blocks in descending order (a
    stable sort) with rounding-level negatives clipped to 0; beta_j sums to
    one.  A mode request of the blurred 1025^2 or 2049^2 amplitude of the
    paper's source is served by the low-rank sketch; a mode request whose
    blocks the sketch cannot hold (the unblurred amplitude, an a1 != 0 one
    solved whole) tries one sketch and then takes the dense ``eigh``, and a
    values-only request takes ``eigvalsh`` alone.  The idler modes are the
    eigenvectors of the r weights at or above ``SCHMIDT_RANK_FLOOR``, as
    continuum-normalized rows of an (r, n) array (a parity block's lifted by
    Q^T, 64 at a time, straight into their rows), or None when
    ``compute_modes`` is false (only the eigenvalues are computed then).
    Those are the modes :func:`schmidt_modes` can return (r is 104 of 2049
    for the blurred amplitude of the paper's source, 612 of 1025 unblurred);
    each block's other eigenvectors are dropped once it is solved and are
    never lifted.  No symmetry of Gamma is assumed.  The signal side is the
    :func:`mirrored` idler basis, so the signal problem S^T S is never
    solved.

    beta are the squared singular values of S.  The benchmark's tracer
    (``perfbench/tracer.py``) probes this function by name, so the name stays.

    Each amplitude is decomposed at most once per kind of request: the result
    is stored on the (immutable) amplitude, a values-only request reuses a
    full decomposition, and a full request replaces a values-only one.
    Raises :class:`NumericalError` when the eigensolver fails on any block.
    """
    cached = amp._schmidt
    if cached is None or (compute_modes and cached[1] is None):
        n = amp.grid.n_points
        blocks = _parity_blocks(amp)[0]
        values, vectors = [], []
        try:
            while blocks:  # popped, so each block is freed once it is solved
                w, v = _solve_block(blocks, compute_modes)
                values.append(w)
                vectors.append(v)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"Schmidt eigensolver failed on the {n}^2 amplitude: {exc}"
            ) from exc
        merged = np.concatenate(values)
        order = np.argsort(-merged, kind="stable")
        beta = np.maximum(merged[order], 0.0)
        beta.flags.writeable = False
        modes = None
        if compute_modes:
            rank = np.empty(n, dtype=np.intp)
            rank[order] = np.arange(n)
            modes = np.empty((sum(v.shape[1] for v in vectors), n), dtype=vectors[0].dtype)
            parities = (0, 1) if len(vectors) == 2 else (None,)  # None: on samples
            offset = 0
            for parity, w, v in zip(parities, values, vectors):
                for start in range(0, v.shape[1], ROW_BLOCK):
                    cols = v[:, start:start + ROW_BLOCK] / np.sqrt(amp.grid.spacing)
                    rows = rank[offset + start:offset + start + cols.shape[1]]
                    if parity is None:
                        modes[rows] = cols.T
                    else:
                        _lift(modes, rows, cols.T, parity)
                offset += len(w)
            modes.flags.writeable = False
        cached = amp._schmidt = (beta, modes)
    return cached if compute_modes else (cached[0], None)


def schmidt_modes(amp: JointAmplitude, d: int) -> BasisSet:
    """First d Schmidt modes of the amplitude as a basis for either photon.

    The mode weights are the first d of :func:`amplitude_svd`'s beta, and d
    may not exceed the number of weights at or above ``SCHMIDT_RANK_FLOOR``
    (the modes :func:`amplitude_svd` keeps): a larger d raises
    :class:`RankError`, as does one above the grid size.  Each mode's sign
    is fixed so that its peak sample is positive
    (see :func:`_fix_mode_signs` for how tied peaks are resolved).  For the
    signal side of an anti-diagonally correlated amplitude use
    :func:`mirrored` of this basis.  When the amplitude splits by mirror
    parity (see :func:`amplitude_svd`), every mode is exactly even or odd,
    so :func:`mirrored` of the basis is the idler basis with the odd modes'
    signs flipped.
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
