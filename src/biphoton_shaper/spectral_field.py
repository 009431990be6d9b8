"""Two-photon spectral amplitudes.

Builds the joint spectral amplitude of a collinear down-conversion source
(pump envelope times quasi-phase-matching function), applies the acceptance
function of an upconversion detector crystal, and blurs the result with the
finite spectral resolution of the shaper plane.

Frequencies are relative to half the pump frequency: omega = Omega - omega_p/2,
in rad/fs.  The signal/idler grid is a symmetric square window so that
omega = 0 (degeneracy) lies on a sample.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft

from .errors import DomainError, GridError, ResolutionError
from .units import (
    C_NM_PER_S,
    angular_frequency,
    bandwidth_nm_to_rad_fs,
    linewidth_mhz_to_rad_fs,
    photon_energy_j,
)

_LN2 = np.log(2.0)

# Half-max abscissa of sinc(x)^2; used to calibrate phase-matching bandwidths.
_SINC_SQ_HALF_MAX = 1.3915573776896476

# Narrowest pump envelope the grid represents, in grid cells.
PUMP_CLAMP_CELLS = 3


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform square sampling of (omega_i, omega_s) space.

    n_points per axis (odd, so omega = 0 is a sample); the window is
    symmetric, [-omega_max, +omega_max] rad/fs.
    """

    n_points: int
    omega_max: float
    center_wavelength: float = 1064.0  # nm, degenerate emission

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise GridError(f"n_points must be odd and >= 3, got {self.n_points}")
        if not self.omega_max > 0.0:
            raise GridError(f"omega_max must be positive, got {self.omega_max}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.omega_max / (self.n_points - 1)

    @property
    def pump_center_frequency(self) -> float:
        """Central pump angular frequency [rad/fs] (= twice the degenerate one)."""
        return 2.0 * angular_frequency(self.center_wavelength)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.n_points)

    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights on the axis."""
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def mesh(self):
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")

    def same_axis(self, other: "SpectralGrid") -> bool:
        return (
            self.n_points == other.n_points
            and np.isclose(self.omega_max, other.omega_max, rtol=0, atol=1e-12)
        )


@dataclass(frozen=True)
class PumpSpec:
    """Pump field: FWHM of the spectral intensity [rad/fs] and wavelength [nm]."""

    bandwidth: float
    wavelength: float = 532.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("pump bandwidth must be positive")

    @classmethod
    def from_linewidth_mhz(cls, linewidth_mhz: float, wavelength: float = 532.0):
        return cls(bandwidth=linewidth_mhz_to_rad_fs(linewidth_mhz), wavelength=wavelength)


@dataclass(frozen=True)
class TaylorMismatch:
    """Low-order expansion of the collinear phase mismatch [rad/mm].

    mismatch = dk0 + a1*(w_i + w_s) + a2*(w_i - w_s)^2 + a3*(w_i + w_s)^2,
    in the down-conversion sign convention k_i + k_s - k_p.  With all a_i = 0
    and dk0 = -2*pi/G the crystal is perfectly quasi-phase matched everywhere.
    """

    dk0: float
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0

    def mismatch(self, omega_i, omega_s, pump_center=None):
        s = omega_i + omega_s
        d = omega_i - omega_s
        return self.dk0 + self.a1 * s + self.a2 * d * d + self.a3 * s * s

    @classmethod
    def quasi_phase_matched(cls, poling_period_um: float, a1=0.0, a2=0.0, a3=0.0):
        """Expansion around exact quasi-phase matching for the given poling period."""
        return cls(dk0=-2.0 * np.pi / (poling_period_um * 1e-3), a1=a1, a2=a2, a3=a3)


def taylor_curvature_for_bandwidth(delta_lambda_nm, center_nm, length_mm):
    """Curvature a2 giving a sinc^2 singles spectrum of the stated FWHM.

    The single-photon intensity along the energy-conservation line is
    sinc(2*a2*L*omega^2)^2; inverting its half-max point fixes a2.
    """
    half_width = 0.5 * bandwidth_nm_to_rad_fs(delta_lambda_nm, center_nm)
    return _SINC_SQ_HALF_MAX / (2.0 * half_width**2 * length_mm)


@dataclass(frozen=True)
class SellmeierIndex:
    """Refractive index n^2(lambda) = a + sum_i b_i*l^2/(l^2 - c_i) - d*l^2, l in um."""

    a: float
    terms: tuple = ()          # pairs (b_i, c_i), c_i in um^2
    d: float = 0.0
    validity_um: tuple | None = None  # (min, max) vacuum wavelength window

    def refractive_index(self, wavelength_um):
        lam2 = np.asarray(wavelength_um, dtype=float) ** 2
        if self.validity_um is not None:
            lo, hi = self.validity_um
            if np.any(wavelength_um < lo) or np.any(wavelength_um > hi):
                raise DomainError(
                    f"wavelength outside Sellmeier validity window [{lo}, {hi}] um"
                )
        n2 = self.a - self.d * lam2
        for b, c in self.terms:
            n2 = n2 + b * lam2 / (lam2 - c)
        return np.sqrt(n2)

    def wavevector(self, omega_abs):
        """k = n(Omega)*Omega/c [rad/mm] at absolute angular frequency [rad/fs]."""
        lam_um = 2.0 * np.pi * 299.792458 / np.asarray(omega_abs) * 1e-3
        return self.refractive_index(lam_um) * np.asarray(omega_abs) / 299.792458 * 1e6


@dataclass(frozen=True)
class SellmeierMismatch:
    """Phase mismatch k_i + k_s - k_p from refractive-index models.

    Relative frequencies are converted to absolute ones with the pump center
    frequency supplied at evaluation time.
    """

    index_i: SellmeierIndex
    index_s: SellmeierIndex
    index_p: SellmeierIndex

    def mismatch(self, omega_i, omega_s, pump_center=None):
        if pump_center is None:
            raise GridError("Sellmeier mismatch needs the pump center frequency")
        half = 0.5 * pump_center
        ki = self.index_i.wavevector(omega_i + half)
        ks = self.index_s.wavevector(omega_s + half)
        kp = self.index_p.wavevector(omega_i + omega_s + pump_center)
        return ki + ks - kp


@dataclass(frozen=True)
class CrystalSpec:
    """Periodically poled nonlinear crystal.

    length in mm, poling period in um; ``role`` selects the sign convention of
    the mismatch and of the quasi-phase-matching term ("SPDC" or "SFG").
    """

    length: float
    poling_period: float
    dispersion: TaylorMismatch | SellmeierMismatch
    role: str = "SPDC"

    def __post_init__(self):
        if self.length <= 0 or self.poling_period <= 0:
            raise ValueError("crystal length and poling period must be positive")
        if self.role not in ("SPDC", "SFG"):
            raise ValueError(f"unknown crystal role {self.role!r}")

    @property
    def grating_wavevector(self) -> float:
        """2*pi/G [rad/mm]."""
        return 2.0 * np.pi / (self.poling_period * 1e-3)


@dataclass
class JointAmplitude:
    """Complex two-photon amplitude sampled on a square grid.

    Normalized so that sum(|values|^2) * spacing^2 = 1.  ``values`` is
    read-only after normalization, so the Schmidt data that
    :func:`biphoton_shaper.bases.amplitude_svd` stores on the instance can
    never go stale.
    """

    grid: SpectralGrid
    values: np.ndarray
    _schmidt: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n_points, self.grid.n_points):
            raise GridError("amplitude shape does not match its grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("amplitude contains non-finite values")
        norm = np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing**2)
        if norm == 0.0:
            raise ValueError("amplitude is identically zero")
        self.values = self.values / norm
        self.values.flags.writeable = False

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing**2))


def pump_envelope(omega_sum, pump: PumpSpec):
    """Gaussian pump amplitude at the given sum frequency (peak value 1)."""
    x = np.asarray(omega_sum)
    return np.exp(-(x * x) * 2.0 * _LN2 / pump.bandwidth**2)


def phase_mismatch(omega_i, omega_s, crystal: CrystalSpec, pump_center=None):
    """Collinear phase mismatch [rad/mm] under the crystal's sign convention.

    Down-conversion: k_i + k_s - k_p.  Upconversion: the negation.
    """
    dk = crystal.dispersion.mismatch(omega_i, omega_s, pump_center=pump_center)
    return dk if crystal.role == "SPDC" else -dk


def phase_matching(omega_i, omega_s, crystal: CrystalSpec, include_phase=False,
                   pump_center=None):
    """Quasi-phase-matching function sinc(x), optionally times exp(i*x).

    x = (mismatch + 2*pi/G) * L / 2 for a down-conversion crystal and
    (mismatch - 2*pi/G) * L / 2 for an upconversion crystal.
    """
    dk = phase_mismatch(omega_i, omega_s, crystal, pump_center=pump_center)
    g = crystal.grating_wavevector if crystal.role == "SPDC" else -crystal.grating_wavevector
    x = (dk + g) * crystal.length / 2.0
    out = sinc(x)
    if include_phase:
        out = out * np.exp(1j * x)
    return out


def _check_sinc_resolution(grid: SpectralGrid, crystal: CrystalSpec, min_samples=8):
    """Require >= min_samples of the phase-matching main lobe on the ridge cut.

    The cut runs along the energy-conservation anti-diagonal, where the pump
    envelope leaves the sinc as the only structure to resolve.
    """
    ax = grid.axis()
    pc = grid.pump_center_frequency
    dk = phase_mismatch(ax, -ax, crystal, pump_center=pc)
    g = crystal.grating_wavevector if crystal.role == "SPDC" else -crystal.grating_wavevector
    x = (dk + g) * crystal.length / 2.0
    lobe = int(np.count_nonzero(np.abs(x) < np.pi))
    if lobe < min_samples:
        raise ResolutionError(
            f"phase-matching main lobe of the {crystal.role} crystal covers "
            f"{lobe} grid samples (< {min_samples}); refine the grid"
        )


def effective_pump(pump: PumpSpec, grid: SpectralGrid) -> PumpSpec:
    """The pump the grid represents: a bandwidth narrower than PUMP_CLAMP_CELLS
    grid cells is clamped to that width (continuous-wave limit)."""
    return PumpSpec(bandwidth=max(pump.bandwidth, PUMP_CLAMP_CELLS * grid.spacing),
                    wavelength=pump.wavelength)


def build_joint_amplitude(grid: SpectralGrid, pump: PumpSpec, spdc: CrystalSpec,
                          sfg: CrystalSpec | None = None,
                          include_phase=False) -> JointAmplitude:
    """Construct the joint spectral amplitude on the grid.

    The source amplitude (pump envelope times phase matching), times the
    detector acceptance when an upconversion crystal is given.  The pump
    envelope is that of :func:`effective_pump`.
    """
    _check_sinc_resolution(grid, spdc)
    if sfg is not None:
        _check_sinc_resolution(grid, sfg)

    wi, ws = grid.mesh()
    pc = grid.pump_center_frequency
    values = pump_envelope(wi + ws, effective_pump(pump, grid)) * phase_matching(
        wi, ws, spdc, include_phase=include_phase, pump_center=pc
    )
    if sfg is not None:
        values = values * phase_matching(
            wi, ws, sfg, include_phase=include_phase, pump_center=pc
        )
    if not include_phase:
        values = values.real
    return JointAmplitude(grid=grid, values=values)


def psf_kernel(grid: SpectralGrid, delta_omega_psf: float) -> np.ndarray:
    """Isotropic Gaussian blur kernel sampled on the grid's offset lattice."""
    wi, ws = grid.mesh()
    return np.exp(-(wi * wi + ws * ws) * 2.0 * _LN2 / delta_omega_psf**2)


def apply_psf(amp: JointAmplitude, delta_omega_psf: float) -> JointAmplitude:
    """Convolve the amplitude with the spectral-resolution kernel.

    A linear (zero-padded, not circular) convolution with the centred
    ``'same'`` crop, computed with ``scipy.fft``: both axes are padded to
    ``next_fast_len(2n - 1, True)``, the kernel is transformed once and its
    spectrum multiplies the real and imaginary planes of the amplitude in
    place.  The arithmetic, padding and crop are those of SciPy's
    ``fftconvolve(values, kernel, mode="same")``, so the result is
    bit-identical to it.  The output is renormalized.  A kernel narrower than
    one grid cell degenerates to the identity; scenario configs reject such a
    width.
    """
    if delta_omega_psf < 0:
        raise ValueError("PSF width must be non-negative")
    if delta_omega_psf == 0.0:
        return JointAmplitude(amp.grid, amp.values.copy())

    n = amp.grid.n_points
    shape = (sp_fft.next_fast_len(2 * n - 1, True),) * 2
    crop = slice((n - 1) // 2, (n - 1) // 2 + n)
    complex_values = np.iscomplexobj(amp.values)
    planes = (amp.values.real, amp.values.imag) if complex_values else (amp.values,)
    kernel_spec = sp_fft.rfftn(psf_kernel(amp.grid, delta_omega_psf), shape, axes=(0, 1))
    spectra = [sp_fft.rfftn(plane, shape, axes=(0, 1)) for plane in planes]
    for spec in spectra:
        spec *= kernel_spec
    del kernel_spec
    out = [sp_fft.irfftn(spec, shape, axes=(0, 1))[crop, crop].copy() for spec in spectra]
    blurred = out[0] + 1j * out[1] if complex_values else out[0]
    return JointAmplitude(amp.grid, blurred)


@dataclass(frozen=True)
class FluxLimit:
    """Single-photon-limit flux [1/s] and power [W] of a down-conversion source."""

    flux: float
    power: float

    def mode_density(self, power_w: float) -> float:
        """Spectral mode density n = P / P_max for an operating power [W]."""
        return power_w / self.power


def photon_flux_limit(spdc_bandwidth_nm: float, center_wavelength: float) -> FluxLimit:
    """Maximum photon flux below the single-photon limit, flux = c*dlambda/lambda^2."""
    if spdc_bandwidth_nm <= 0 or center_wavelength <= 0:
        raise ValueError("bandwidth and wavelength must be positive")
    flux = C_NM_PER_S * spdc_bandwidth_nm / center_wavelength**2
    power = flux * photon_energy_j(center_wavelength)
    return FluxLimit(flux=flux, power=power)


def double_gaussian_amplitude(grid: SpectralGrid, a: float, b: float) -> JointAmplitude:
    """Analytic test amplitude exp(-(wi+ws)^2/4a^2 - (wi-ws)^2/4b^2)."""
    wi, ws = grid.mesh()
    values = np.exp(-((wi + ws) ** 2) / (4 * a * a) - ((wi - ws) ** 2) / (4 * b * b))
    return JointAmplitude(grid=grid, values=values)
