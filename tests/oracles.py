"""Closed-form reference states and amplitudes that the tests compare against."""

import numpy as np

from biphoton_shaper import (
    JointAmplitude,
    QuditState,
    SpectralGrid,
    phase_matching,
    pump_envelope,
)
from biphoton_shaper.bases import _parity_blocks
from biphoton_shaper.spectral_field import effective_pump


def max_entangled_state(d: int, phi0: float = 0.0) -> QuditState:
    """Maximally entangled diagonal state c = diag(exp(i*l*phi0))/sqrt(d)."""
    c = np.diag(np.exp(1j * phi0 * np.arange(d))) / np.sqrt(d)
    return QuditState(coefficients=c)


def ladder(phi, d: int) -> np.ndarray:
    """(P, d) phases phi * k of the d-level phase ladder, one row per phase."""
    return np.asarray(phi, dtype=float)[:, np.newaxis] * np.arange(d)


def double_gaussian_amplitude(grid: SpectralGrid, a: float, b: float) -> JointAmplitude:
    """Analytic test amplitude exp(-(wi+ws)^2/4a^2 - (wi-ws)^2/4b^2)."""
    ax = grid.axis()
    wi, ws = np.meshgrid(ax, ax, indexing="ij")
    values = np.exp(-((wi + ws) ** 2) / (4 * a * a) - ((wi - ws) ** 2) / (4 * b * b))
    return JointAmplitude(grid=grid, values=values)


def dense_joint_amplitude(grid, pump, spdc, sfg=None) -> JointAmplitude:
    """The joint amplitude evaluated on every sample of the (wi, ws) mesh.

    Reference for ``build_joint_amplitude``, which evaluates the phase
    matching only where the pump envelope is nonzero; the resolution checks
    are skipped.  Outside the pump band this holds 0 * phase matching, which
    is -0.0 where the phase matching is negative.
    """
    ax = grid.axis()
    wi, ws = np.meshgrid(ax, ax, indexing="ij")
    pc = grid.pump_center_frequency
    values = pump_envelope(wi + ws, effective_pump(pump, grid)) * phase_matching(
        wi, ws, spdc, pump_center=pc
    )
    if sfg is not None:
        values = phase_matching(wi, ws, sfg, pump_center=pc) * values
    return JointAmplitude(grid=grid, values=values)


def amplitude_norm(amp: JointAmplitude) -> float:
    """L2 norm of the amplitude, (sum |values|^2 * spacing^2)^(1/2)."""
    return float(np.sqrt(np.sum(np.abs(amp.values) ** 2) * amp.grid.spacing**2))


def double_gaussian_oracle(a: float, b: float) -> float:
    """Closed-form Schmidt number of exp(-(wi+ws)^2/4a^2 - (wi-ws)^2/4b^2).

    The mode weights are geometric, beta_n = (1-mu)*mu^n with
    mu = ((a-b)/(a+b))^2, giving K = (a^2 + b^2) / (2ab).
    """
    if a <= 0 or b <= 0:
        raise ValueError("widths must be positive")
    return (a * a + b * b) / (2.0 * a * b)


def psf_kernel(grid: SpectralGrid, delta_omega_psf: float) -> np.ndarray:
    """The blur kernel exp(-(w_i^2 + w_s^2) * 2 ln 2 / delta^2) on the whole
    offset lattice, in the operation order of ``apply_psf``'s rows, so that
    ``fftconvolve`` with it is a bit-exact reference for the blur."""
    sq = grid.axis() ** 2
    return np.exp(-(sq[:, None] + sq) * 2.0 * np.log(2.0) / delta_omega_psf**2)


def rotated_psf_blur(grid: SpectralGrid, pump, spdc, sfg, delta_omega_psf: float):
    """The PSF blur of the amplitude, factorized in rotated lattice coordinates.

    Domain: Taylor dispersion with a1 = a3 = 0 and a real amplitude, so that
    Gamma[i, j] = alpha_{i+j} * Phi_{i-j}, alpha the pump envelope of
    :func:`effective_pump` on the sum frequency and Phi the product of the
    crystals' phase matching on the difference frequency.  With p = k + l and
    q = k - l, the kernel exp(-a (k^2 + l^2)) = G_p G_q, G_m = exp(-a m^2 / 2)
    and a = 2 ln 2 h^2 / delta^2, over the (p, q) of equal parity only; the
    parity indicator (1 + (-1)^(p+q)) / 2 splits the blur into two products of
    1-D convolutions, with Gt_m = (-1)^m G_m:

        B[i, j] = ((alpha*G)_{i+j} (Phi*G)_{i-j} + (alpha*Gt)_{i+j} (Phi*Gt)_{i-j}) / 2.

    Exact on the unbounded lattice, and unnormalized.  ``apply_psf`` pads the
    window with zeros, so the two agree only on samples the kernel's live taps
    cannot carry past an edge.
    """
    n, h = grid.n_points, grid.spacing
    offsets = np.arange(-(n - 1), n)            # i + j - (n - 1) and i - j
    alpha = pump_envelope(offsets * h, effective_pump(pump, grid))
    half = offsets * h / 2.0  # omega_i = -omega_s = half, so omega_i - omega_s = offsets * h
    pc = grid.pump_center_frequency
    phi = phase_matching(half, -half, spdc, pc) * phase_matching(half, -half, sfg, pc)
    a = 2.0 * np.log(2.0) * h * h / delta_omega_psf**2
    lags = np.arange(-(2 * n - 2), 2 * n - 1)
    g = np.exp(-a * lags * lags / 2.0)
    gt = np.where(lags % 2 == 0, g, -g)
    crop = slice(2 * n - 2, 4 * n - 3)          # the 2n - 1 outputs of a 'full' convolution
    i = np.arange(n)
    plus, minus = i[:, None] + i, i[:, None] - i + (n - 1)
    return sum(np.convolve(alpha, kern)[crop][plus] * np.convolve(phi, kern)[crop][minus]
               for kern in (g, gt)) / 2.0


def mirror_coupling(amp: JointAmplitude) -> float:
    """c = ||S - J S J||_F / 2 for S = h * Gamma and J the sample reversal.

    The norm of the blocks of S that couple even and odd mirror coordinates,
    computed on the samples rather than on the folded blocks.
    """
    diff = amp.values - amp.values[::-1, ::-1]
    return amp.grid.spacing * np.sqrt(np.vdot(diff, diff).real) / 2.0


def gram_eigh_schmidt(amp: JointAmplitude):
    """Schmidt weights and idler modes from a dense ``eigh`` of each parity
    block's Gram matrix B B^dagger, the route ``amplitude_svd`` took for
    every block before its low-rank solve.

    Returns (beta, modes): the weights in descending order, rounding-level
    negatives clipped to 0, and every eigenvector as a unit row in sample
    coordinates, in the order of beta.  For odd grids only.
    """
    n = amp.grid.n_points
    blocks, _ = _parity_blocks(amp)
    if len(blocks) == 2:
        # Q^T: even coordinates (pairs, then the centre), then odd ones
        m = n // 2
        i = np.arange(m)
        lift = np.zeros((n, n))
        lift[i, i] = lift[n - 1 - i, i] = 2**-0.5
        lift[m, m] = 1.0
        lift[i, m + 1 + i] = 2**-0.5
        lift[n - 1 - i, m + 1 + i] = -(2**-0.5)
        lifts = [lift[:, :m + 1], lift[:, m + 1:]]
    else:
        lifts = [np.eye(n)]
    weights, vectors = [], []
    for block, block_lift in zip(blocks, lifts):
        w, v = np.linalg.eigh(block @ block.conj().T)
        weights.append(w)
        vectors.append(block_lift @ v)
    w = np.concatenate(weights)
    order = np.argsort(-w, kind="stable")
    return np.maximum(w[order], 0.0), np.concatenate(vectors, axis=1)[:, order].T


def lambda_fringe_branches(d: int, phi, lam: float, phi0: float = 0.0):
    """The symmetric-noise fringe written out per dimension, d = 2, 3 and 4.

    d = 2 is at half the scale of the general model, 1 + lam*cos(theta).
    """
    theta = 2.0 * np.asarray(phi) + phi0
    if d == 2:
        return 1.0 + lam * np.cos(theta)
    if d == 3:
        return 3.0 + 2.0 * lam * (2.0 * np.cos(theta) + np.cos(2 * theta))
    if d == 4:
        return 4.0 + 2.0 * lam * (3.0 * np.cos(theta) + 2.0 * np.cos(2 * theta)
                                  + np.cos(3 * theta))
    raise ValueError(f"no written-out fringe for d = {d}")


def cos4_residual(scan) -> float:
    """RMS gap between a unit-mean scan and cos^4(phi/2) at unit mean.

    At zero delay the pair is separable, so the coincidence fringe is the
    product of two single-photon fringes cos^2(phi/2), with no free scale or
    phase.
    """
    separable = np.cos(scan.phi / 2.0) ** 4
    return float(np.sqrt(np.mean((scan.values - separable / separable.mean()) ** 2)))


def cw_franson_gamma1(grid: SpectralGrid, spdc, sfg, t1: float) -> float:
    """Closed-form one-photon coherence gamma1 = B / A of a continuous-wave
    source in two identical Franson interferometers of delay t1 [fs].

    In the continuous-wave limit Gamma = phi(w) delta(w_i + w_s), with phi the
    product of both crystals' phase matching on the anti-diagonal, and the
    scan is |A + 2 e^{i phase} B + e^{2 i phase} A|^2 / 16 with A = int phi and
    B = int phi cos(w t1): gamma2 = 1 and gamma1 = B / A exactly.  Both
    integrals are 65537-point trapezoids over the grid's window.
    """
    w = np.linspace(-grid.omega_max, grid.omega_max, 65537)
    pc = grid.pump_center_frequency
    phi = phase_matching(w, -w, spdc, pc) * phase_matching(w, -w, sfg, pc)
    return float(np.trapezoid(phi * np.cos(w * t1), w) / np.trapezoid(phi, w))


def franson_gamma(grid: SpectralGrid, pump, spdc, sfg, delta_omega_psf: float, t1: float):
    """Closed-form Franson (gamma1, gamma2) of the PSF-blurred amplitude in two
    identical interferometers of delay t1 [fs].

    Domain: Taylor dispersion with a1 = a3 = 0 and a real amplitude, so that
    Gamma = alpha(w_i + w_s) Phi(w_i - w_s) (:func:`rotated_psf_blur`), and
    T = R on both photons.  The scan is then |I0 + 2 e^{i phase} I1 +
    e^{2 i phase} I2|^2 / 16 with I0, I1 and I2 proportional to A(0) P(0),
    A(t1/2) P(t1/2) and A(t1) P(0), where A and P are the cosine transforms of
    the blurred 1-D pump and phase-matching factors:

        gamma2 = A(t1) / A(0),  gamma1 = A(t1/2) P(t1/2) / (A(0) P(0)).

    The kernel exp(-(w_i^2 + w_s^2) 2 ln 2 / delta^2) is exp(-u^2 ln 2 / delta^2)
    in each of u = w_i + w_s and w_i - w_s, so the blur multiplies both
    transforms by exp(-t^2 delta^2 / (4 ln 2)).  The Gaussian pump of
    :func:`effective_pump`, of intensity FWHM b, has A(t) / A(0) =
    exp(-t^2 b^2 / (8 ln 2)); P(t1/2) / P(0) of the unblurred factor is
    :func:`cw_franson_gamma1`, over the grid's window.
    """
    b = effective_pump(pump, grid).bandwidth
    ln2 = np.log(2.0)

    def kernel(t):
        return np.exp(-t * t * delta_omega_psf**2 / (4.0 * ln2))

    def blurred_pump(t):
        return np.exp(-t * t * b * b / (8.0 * ln2)) * kernel(t)

    phase_matching_ratio = cw_franson_gamma1(grid, spdc, sfg, t1) * kernel(t1 / 2.0)
    return float(blurred_pump(t1 / 2.0) * phase_matching_ratio), float(blurred_pump(t1))


def canonical_gamma(gamma1, gamma2):
    """The gamma2 <= 1 image of a fitted (gamma1, gamma2) pair.

    The gamma fringe model and I2 are exactly invariant under
    (gamma1, gamma2) -> (gamma1/gamma2, 1/gamma2), and a noise-free fit lands
    on either image by rounding (``metrics.fit_gamma``), so comparing the
    images compares what the scan determines rather than the branch.
    """
    return (gamma1 / gamma2, 1.0 / gamma2) if gamma2 > 1.0 else (gamma1, gamma2)


def per_cell_csv(table) -> bytes:
    """A table's CSV text with every cell formatted by its own ``str()`` call.

    Reference for ``scenarios`` emission, which formats each distinct value
    of a float64 column once; boolean columns read ``true``/``false``.
    """
    def cells(column):
        column = np.asarray(column)
        if column.dtype == bool:
            return ["true" if cell else "false" for cell in column.tolist()]
        return [str(cell) for cell in column.tolist()]

    rows = zip(*(cells(column) for column in table.values()))
    lines = [",".join(table)] + [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")
