"""Single-photon spectral transfer functions.

A programmable shaper modulates each photon's spectrum with a complex
transfer function M(omega), |M| <= 1.  Transfer functions are built either
from basis coefficients (projective-measurement form) or as the two-path
interferometer response, and can be quantized onto a pixelated modulator.
"""

from dataclasses import dataclass

import numpy as np

from .bases import BasisSet
from .errors import GridError
from .spectral_field import SpectralGrid

PHYSICALITY_TOL = 1e-12


@dataclass
class TransferFunction:
    """Complex modulation samples M(omega) on a grid axis, max |M| <= 1.

    ``values`` holds one setting, shape (n,), or a stack of P settings, shape
    (P, n), one per row; a scan is one stack.
    """

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.grid.n_points:
            raise GridError("transfer function does not match the grid axis")
        peak = float(np.max(np.abs(self.values), initial=0.0))
        if peak > 1.0 + PHYSICALITY_TOL:
            raise ValueError(f"transfer function exceeds unit modulus: max |M| = {peak}")


@dataclass(frozen=True)
class SlmModel:
    """Pixelated modulator: pixel count and geometry (um).  The grid window
    is stretched across the full pixel array.
    """

    n_pixels: int = 640
    pixel_width: float = 100.0
    gap: float = 3.0

    def __post_init__(self):
        if self.n_pixels < 1:
            raise ValueError("need at least one pixel")
        if self.pixel_width <= 0 or self.gap < 0:
            raise ValueError("pixel width must be positive, gap non-negative")

    @property
    def pitch(self) -> float:
        return self.pixel_width + self.gap

    @property
    def extent(self) -> float:
        """Total transverse aperture [um] (no trailing gap)."""
        return self.n_pixels * self.pitch - self.gap

    def positions(self, grid: SpectralGrid) -> np.ndarray:
        """Transverse position [um] of every grid sample, from exactly 0 at
        the first sample to exactly ``extent`` at the last, non-decreasing."""
        ax = grid.axis()
        return (ax - ax[0]) / (ax[-1] - ax[0]) * self.extent


def transfer_from_coefficients(basis: BasisSet, amplitudes, phases) -> TransferFunction:
    """M(omega) = s * sum_j |u_j| exp(i*phi_j) conj(f_j(omega)), made physical.

    ``amplitudes`` |u_j| in [0, 1], one per basis function; ``phases`` in rad
    (reduced mod 2*pi), shape (d,) for one setting or (P, d) for a stack of P.
    This is the one place that scales coefficient transfers: every setting
    is multiplied by the same phase-independent factor
    s = min(1, 1 / max_omega sum_j |u_j| |f_j(omega)|), which bounds |M| by 1
    for any phases and leaves every projection ratio and every fringe
    contrast intact.  So a single setting equals the row of a stack built
    at its phases, bit for bit (each row is its own product).
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    phases = np.mod(np.asarray(phases, dtype=float), 2 * np.pi)
    d = basis.d
    if amplitudes.shape != (d,) or phases.ndim not in (1, 2) or phases.shape[-1] != d:
        raise ValueError("need one amplitude and phase per basis function")
    if np.any(amplitudes < 0) or np.any(amplitudes > 1):
        raise ValueError("amplitudes must lie in [0, 1]")
    worst = float((amplitudes @ np.abs(basis.functions)).max())
    scale = min(1.0, 1.0 / worst) if worst > 0 else 1.0
    coeff = amplitudes * scale * np.exp(1j * phases)
    conj = basis.functions.conj()
    values = np.array([row @ conj for row in coeff.reshape(-1, d)])
    return TransferFunction(basis.grid, values.reshape(phases.shape[:-1] + conj.shape[-1:]))


def franson_transfer(transmission: float, reflection: float, delta_t10: float,
                     phi, grid: SpectralGrid) -> TransferFunction:
    """Two-path interferometer response M(omega) = T + R exp(i(omega*dt + phi)).

    T and R are the short/long-path amplitude coefficients, T + R <= 1;
    delta_t10 is the long-short delay in fs.  A scalar ``phi`` gives one
    setting, an array of P phases a stack of P.  The response is not
    rescaled: |M| <= T + R up to rounding, which :class:`TransferFunction`'s
    PHYSICALITY_TOL admits.
    """
    if transmission < 0 or reflection < 0:
        raise ValueError("transmission and reflection must be non-negative")
    if transmission + reflection > 1.0 + PHYSICALITY_TOL:
        raise ValueError("amplitude coefficients must satisfy T + R <= 1")
    ax = grid.axis()
    phi = np.asarray(phi, dtype=float)[..., np.newaxis]
    values = transmission + reflection * np.exp(1j * (ax * delta_t10 + phi))
    return TransferFunction(grid=grid, values=values)


def pixelate(m: TransferFunction, slm: SlmModel) -> TransferFunction:
    """Quantize a transfer function (or each row of a stack) onto the
    modulator's pixel geometry.

    Every sample inside a pixel is replaced by the pixel's mean value; samples
    falling into inter-pixel gaps are set to zero (opaque gaps).  Every sample
    lies on the aperture (see :meth:`SlmModel.positions`).

    When one grid cell spans at least a full pixel pitch the gap comb cannot
    be point-sampled without aliasing; such cells are cell-averaged instead:
    the sample is kept and attenuated by the transmitting fill fraction.
    """
    pos = slm.positions(m.grid)
    cell = abs(pos[-1] - pos[0]) / (len(pos) - 1)
    if cell >= slm.pitch:
        fill = slm.pixel_width / slm.pitch
        return TransferFunction(grid=m.grid, values=m.values * fill)

    pixel_index = np.floor_divide(pos, slm.pitch).astype(int)
    pixel_index = np.clip(pixel_index, 0, slm.n_pixels - 1)
    offset = pos - pixel_index * slm.pitch
    # closed pixel intervals, so the aperture-edge sample stays in the last pixel
    in_pixel = offset <= slm.pixel_width + 1e-12 * slm.pitch

    values = np.zeros_like(m.values, dtype=complex)
    idx = pixel_index[in_pixel]
    sums = np.zeros(m.values.shape[:-1] + (slm.n_pixels,), dtype=complex)
    counts = np.zeros(slm.n_pixels, dtype=float)
    np.add.at(sums, (..., idx), m.values[..., in_pixel])
    np.add.at(counts, idx, 1.0)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    values[..., in_pixel] = means[..., idx]
    return TransferFunction(grid=m.grid, values=values)
