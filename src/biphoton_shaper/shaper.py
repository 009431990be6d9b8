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
class TransferSpec:
    """Coefficients of a transfer function in a given basis.

    amplitudes |u_j| in [0, 1], phases in rad (stored mod 2*pi), one pair per
    basis function.
    """

    basis: BasisSet
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        self.phases = np.mod(np.asarray(self.phases, dtype=float), 2 * np.pi)
        if self.amplitudes.shape != (self.basis.d,) or self.phases.shape != (self.basis.d,):
            raise ValueError("need one amplitude and phase per basis function")
        if np.any(self.amplitudes < 0) or np.any(self.amplitudes > 1):
            raise ValueError("amplitudes must lie in [0, 1]")


@dataclass
class TransferFunction:
    """Complex modulation samples M(omega) on a grid axis, max |M| <= 1."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n_points,):
            raise GridError("transfer function does not match the grid axis")
        peak = float(np.max(np.abs(self.values)))
        if peak > 1.0 + PHYSICALITY_TOL:
            raise ValueError(f"transfer function exceeds unit modulus: max |M| = {peak}")

    def scaled(self, factor: float) -> "TransferFunction":
        """A copy scaled by ``factor`` (must stay physical)."""
        return TransferFunction(self.grid, self.values * factor)


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


def _physical(values: np.ndarray, grid: SpectralGrid) -> TransferFunction:
    """Wrap samples as a TransferFunction, rescaling globally to unit peak if needed.

    A global rescale (never clipping) preserves all projection ratios.
    """
    peak = float(np.max(np.abs(values)))
    if peak > 1.0:
        values = values * (1.0 / peak)
    return TransferFunction(grid=grid, values=values)


def transfer_from_coefficients(spec: TransferSpec) -> TransferFunction:
    """M(omega) = sum_j |u_j| exp(i*phi_j) conj(f_j(omega)), made physical.

    If the raw superposition exceeds unit modulus it is rescaled globally by
    1/max|M|, which leaves every projection ratio intact.
    """
    coeff = spec.amplitudes * np.exp(1j * spec.phases)
    values = coeff @ spec.basis.functions.conj()
    return _physical(values, spec.basis.grid)


def franson_transfer(transmission: float, reflection: float, delta_t10: float,
                     phi: float, grid: SpectralGrid) -> TransferFunction:
    """Two-path interferometer response M(omega) = T + R exp(i(omega*dt + phi)).

    T and R are the short/long-path amplitude coefficients, T + R <= 1;
    delta_t10 is the long-short delay in fs.
    """
    if transmission < 0 or reflection < 0:
        raise ValueError("transmission and reflection must be non-negative")
    if transmission + reflection > 1.0 + PHYSICALITY_TOL:
        raise ValueError("amplitude coefficients must satisfy T + R <= 1")
    ax = grid.axis()
    values = transmission + reflection * np.exp(1j * (ax * delta_t10 + phi))
    return _physical(values, grid)


def pixelate(m: TransferFunction, slm: SlmModel) -> TransferFunction:
    """Quantize a transfer function onto the modulator's pixel geometry.

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
    sums = np.zeros(slm.n_pixels, dtype=complex)
    counts = np.zeros(slm.n_pixels, dtype=float)
    np.add.at(sums, idx, m.values[in_pixel])
    np.add.at(counts, idx, 1.0)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    values[in_pixel] = means[idx]
    return TransferFunction(grid=m.grid, values=values)
