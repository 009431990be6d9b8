"""Two-photon spectral amplitudes.

Builds the joint spectral amplitude of a collinear down-conversion source
(pump envelope times quasi-phase-matching function), applies the acceptance
function of an upconversion detector crystal, and blurs the result with the
finite spectral resolution of the shaper plane.

Frequencies are relative to half the pump frequency: omega = Omega - omega_p/2,
in rad/fs.  The signal/idler grid is a symmetric square window so that
omega = 0 (degeneracy) lies on a sample.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, GridError, NumericalError, ResolutionError
from .units import (
    C_NM_PER_FS,
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

# Fewest grid samples the phase-matching main lobe may cover on the ridge cut.
SINC_LOBE_SAMPLES = 8


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
    center_wavelength: float = 1064.0  # nm, degenerate emission; the pump is at half

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


@dataclass(frozen=True)
class PumpSpec:
    """Pump field: FWHM of the spectral intensity [rad/fs].  It is centred at
    half the grid's ``center_wavelength`` (532 nm for 1064 nm pairs)."""

    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("pump bandwidth must be positive")

    @classmethod
    def from_linewidth_mhz(cls, linewidth_mhz: float):
        return cls(bandwidth=linewidth_mhz_to_rad_fs(linewidth_mhz))


@dataclass(frozen=True)
class TaylorMismatch:
    """Low-order expansion of the collinear phase mismatch [rad/mm].

    mismatch = dk0 + a1*(w_i + w_s) + a2*(w_i - w_s)^2 + a3*(w_i + w_s)^2,
    in the down-conversion sign convention k_i + k_s - k_p, for both crystal
    roles (:func:`_matching_argument` flips the sign for upconversion).  With
    all a_i = 0 and dk0 = -2*pi/G the crystal is perfectly quasi-phase matched
    everywhere.  ``pump_center`` is not read; it is there so that both models
    share one call signature.
    """

    dk0: float
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0

    def mismatch(self, omega_i, omega_s, pump_center):
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
        lam = np.asarray(wavelength_um, dtype=float)
        lam2 = lam ** 2
        if self.validity_um is not None:
            lo, hi = self.validity_um
            if np.any(lam < lo) or np.any(lam > hi):
                raise DomainError(
                    f"wavelength outside Sellmeier validity window [{lo}, {hi}] um"
                )
        # a pole (l^2 = c_i) or n^2 <= 0 is reported below, not warned about
        with np.errstate(divide="ignore", invalid="ignore"):
            n2 = self.a - self.d * lam2
            for b, c in self.terms:
                n2 = n2 + b * lam2 / (lam2 - c)
        bad = ~(np.isfinite(n2) & (n2 > 0))
        if np.any(bad):
            raise DomainError(
                f"Sellmeier index is not physical at {lam[bad].flat[0]:.6g} um: "
                f"n^2 = {n2[bad].flat[0]:.6g}"
            )
        return np.sqrt(n2)

    def wavevector(self, omega_abs):
        """k = n(Omega)*Omega/c [rad/mm] at absolute angular frequency [rad/fs]."""
        lam_um = 2.0 * np.pi * C_NM_PER_FS / np.asarray(omega_abs) * 1e-3
        return self.refractive_index(lam_um) * np.asarray(omega_abs) / C_NM_PER_FS * 1e6


@dataclass(frozen=True)
class SellmeierMismatch:
    """Phase mismatch k_i + k_s - k_p [rad/mm] from refractive-index models,
    in the down-conversion sign convention for both crystal roles.

    Relative frequencies are converted to absolute ones with the pump center
    frequency [rad/fs] supplied at evaluation time.
    """

    index_i: SellmeierIndex
    index_s: SellmeierIndex
    index_p: SellmeierIndex

    def mismatch(self, omega_i, omega_s, pump_center):
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

    Normalized so that sum(|values|^2) * spacing^2 = 1; values whose norm is
    not finite (non-finite samples, or an overflowing sum) raise
    :class:`NumericalError`.  ``values`` is read-only after normalization, so
    the Schmidt data that :func:`biphoton_shaper.bases.amplitude_svd` stores
    on the instance can never go stale.
    """

    grid: SpectralGrid
    values: np.ndarray
    _schmidt: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n_points, self.grid.n_points):
            raise GridError("amplitude shape does not match its grid")
        with np.errstate(over="ignore"):
            norm = np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing**2)
        if not np.isfinite(norm):
            raise NumericalError("amplitude norm is not finite")
        if norm == 0.0:
            raise ValueError("amplitude is identically zero")
        self.values = self.values / norm
        self.values.flags.writeable = False


def pump_envelope(omega_sum, pump: PumpSpec):
    """Gaussian pump amplitude at the given sum frequency (peak value 1)."""
    x = np.asarray(omega_sum)
    return _gaussian(x * x, pump.bandwidth)


def _matching_argument(omega_i, omega_s, crystal: CrystalSpec, pump_center):
    """The phase-matching argument, the one place that reads the crystal role.

    x = (mismatch + 2*pi/G) * L / 2, with the down-conversion mismatch
    k_i + k_s - k_p of ``crystal.dispersion``, for a down-conversion crystal;
    the upconversion crystal is its time-reversed twin and gets -x.  Negation
    is exact in floating point, so -x equals the sum of the negated mismatch
    and grating terms bit for bit (an exact zero may change sign, which
    neither sinc(x) nor exp(i*x) sees).
    """
    dk = crystal.dispersion.mismatch(omega_i, omega_s, pump_center)
    x = (dk + crystal.grating_wavevector) * crystal.length / 2.0
    return x if crystal.role == "SPDC" else -x


def phase_matching(omega_i, omega_s, crystal: CrystalSpec, pump_center,
                   include_phase=False):
    """Quasi-phase-matching function sinc(x), optionally times exp(i*x), with
    the role-signed argument x of :func:`_matching_argument`; ``pump_center``
    is the pump's central angular frequency [rad/fs]."""
    x = _matching_argument(omega_i, omega_s, crystal, pump_center)
    out = sinc(x)
    if include_phase:
        out = out * np.exp(1j * x)
    return out


def _check_sinc_resolution(grid: SpectralGrid, crystal: CrystalSpec):
    """Require >= SINC_LOBE_SAMPLES of the phase-matching main lobe on the ridge cut.

    The cut runs along the energy-conservation anti-diagonal, where the pump
    envelope leaves the sinc as the only structure to resolve.
    """
    ax = grid.axis()
    x = _matching_argument(ax, -ax, crystal, grid.pump_center_frequency)
    lobe = int(np.count_nonzero(np.abs(x) < np.pi))
    if lobe < SINC_LOBE_SAMPLES:
        raise ResolutionError(
            f"phase-matching main lobe of the {crystal.role} crystal covers "
            f"{lobe} grid samples (< {SINC_LOBE_SAMPLES}); refine the grid"
        )


def effective_pump(pump: PumpSpec, grid: SpectralGrid) -> PumpSpec:
    """The pump the grid represents: a bandwidth narrower than PUMP_CLAMP_CELLS
    grid cells is clamped to that width (continuous-wave limit)."""
    return PumpSpec(bandwidth=max(pump.bandwidth, PUMP_CLAMP_CELLS * grid.spacing))


# Rows per block of the build's pump envelope and of the Schmidt mode lift
# (bases.amplitude_svd), and the rows or columns that the blur's workers
# transform at once, all of them together: each block's buffers are a few MB
# at 2049^2.
ROW_BLOCK = 64

# exp(-x) is +0.0 in float64 for every x above 745.14 (ln of the smallest
# subnormal, with its rounding half-cell)
_EXP_UNDERFLOW = 746.0


def _band_reach(width: float, spacing: float) -> int:
    """Grid cells from the anti-diagonal beyond which :func:`_gaussian` of
    (omega_i + omega_s)^2 with this width is +0.0, plus two cells for the
    rounding of the axis."""
    return int(np.ceil(width * np.sqrt(_EXP_UNDERFLOW / (2.0 * _LN2)) / spacing)) + 2


def build_joint_amplitude(grid: SpectralGrid, pump: PumpSpec, spdc: CrystalSpec,
                          sfg: CrystalSpec | None = None,
                          include_phase=False) -> JointAmplitude:
    """Construct the joint spectral amplitude on the grid.

    The source amplitude (pump envelope times phase matching), times the
    detector acceptance when an upconversion crystal is given.  The pump
    envelope is that of :func:`effective_pump`.

    The phase matching is evaluated only in the pump's band, the samples
    where the envelope is nonzero (about 13% of a 1025^2 grid and 7% of a
    2049^2 grid with the clamped continuous-wave pump).  The envelope itself
    is evaluated one block of ``ROW_BLOCK`` rows at a time, on only the
    columns where |omega_i + omega_s| can keep it above float64 underflow
    (:func:`_band_reach`), so no full-grid temporary exists.  In the band
    each sample is the product the full grid would give, bit for bit;
    outside it the amplitude is +0.0.
    """
    _check_sinc_resolution(grid, spdc)
    if sfg is not None:
        _check_sinc_resolution(grid, sfg)

    n = grid.n_points
    ax = grid.axis()
    pc = grid.pump_center_frequency
    pump = effective_pump(pump, grid)
    reach = _band_reach(pump.bandwidth, grid.spacing)
    values = np.zeros((n, n), complex if include_phase else float)
    for r in range(0, n, ROW_BLOCK):
        rows = slice(r, min(r + ROW_BLOCK, n))
        # omega_i + omega_s ~ 0 on the anti-diagonal, column n - 1 - row
        lo, hi = max(n - rows.stop - reach, 0), min(n - rows.start + reach, n)
        envelope = pump_envelope(ax[rows, None] + ax[lo:hi], pump)
        i, j = np.nonzero(envelope)
        wi, ws = ax[r + i], ax[lo + j]
        in_band = envelope[i, j] * phase_matching(wi, ws, spdc, pc,
                                                  include_phase=include_phase)
        if sfg is not None:
            # A complex product's imaginary part can differ in the last bit
            # when the operands are swapped.  The acceptance factor is the
            # left one: numpy ran the full-grid ``values * acceptance`` in
            # place on the acceptance temporary, as ``acceptance * values``.
            in_band = phase_matching(wi, ws, sfg, pc, include_phase=include_phase) * in_band
        values[r + i, lo + j] = in_band
    return JointAmplitude(grid=grid, values=values)


def _gaussian(sq_sum, width: float, out=None):
    """exp(-sq_sum * 2 ln 2 / width^2), whose square has FWHM ``width``: the pump
    envelope at (w_i + w_s)^2, the blur kernel at w_i^2 + w_s^2 of the offset lattice.

    The steps run in place, in the order of that expression, in ``out`` when
    it is given (``out`` may be ``sq_sum`` itself).
    """
    x = np.negative(sq_sum, out=out)
    x *= 2.0
    x *= _LN2
    x /= width**2
    return np.exp(x, out=out)


def _next_fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= target: pocketfft's fast real-transform length."""
    m = target
    while pow(30, m.bit_length(), m):  # m is 5-smooth iff it divides 30^e, 2^e > m
        m += 1
    return m


def _cpus() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` where the
    platform has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(pool, jobs, buffers):
    """Run every ``job(buf)`` of ``jobs`` on ``pool``, one worker per scratch
    buffer of ``buffers``, and return when all have run.

    Each worker pops the next job from one shared deque, whose pops are
    atomic, so every job runs once, with the buffer of the worker that took
    it.  The first error a job raises is raised here.
    """
    pending = deque(jobs)

    def worker(buf):
        while True:
            try:
                job = pending.popleft()
            except IndexError:  # no job left
                return
            job(buf)

    for _ in pool.map(worker, buffers):
        pass


def apply_psf(amp: JointAmplitude, delta_omega_psf: float) -> JointAmplitude:
    """Convolve the amplitude with the spectral-resolution kernel.

    A linear (zero-padded, not circular) convolution with the centred
    ``'same'`` crop.  Both axes are padded to m, the smallest 5-smooth length
    >= 2n - 1, and the 2-D transforms are run axis by axis in the order
    ``rfftn``/``irfftn`` use, on only the data that reach the crop, in three
    passes:

    - a real-to-complex transform along axis 1 of the n data rows of each
      (real or imaginary) plane, and of each distinct kernel row that is not
      all zero; the m - n padded rows are zero and are not stored.  Kernel
      row i depends on omega_i^2 only, so rows whose omega_i^2 have the same
      bits are one row (``np.linspace`` is not bitwise mirror symmetric).  A
      kernel row is all zero when its peak, at the column of smallest
      |omega|, underflows, and by the same test so is every kernel column
      but these ``live`` ones.  At the paper's width 1303 of 2049 rows are
      live and 858 distinct (651 and 429 of 1025, 163 and 107 of 257); each
      distinct row is evaluated on the live columns only, so no n x n kernel
      exists.  The kernel spectra are stored transposed, so that each
      spectrum column's live rows are gathered from contiguous memory;
    - per block of spectrum columns, copied into the rows of a contiguous
      buffer, the complex transform along them, the product with the
      kernel's block of spectrum and the unscaled inverse, of which only the
      n cropped samples are kept.  The buffers and the distinct kernel
      spectra are one array, so freeing it returns the memory to the system
      (glibc keeps separate arrays under its 32 MB mmap threshold resident).
      At 2049^2 the blur's resident peak (218.6 MB in perfbench's
      ``schmidt_2049`` run) is not the run's: the complex copy of the
      amplitude that each Schmidt-mode scan makes
      (``measurement._product_signals``) takes it to about 224 MB;
    - the complex-to-real inverse along axis 1 of those rows, scaled once by
      1/m^2 and cropped; the row spectra are freed before the output is
      renormalized.

    Each pass is a set of disjoint blocks of rows or columns, run on a
    thread pool of one worker per CPU the process may use (:func:`_cpus`,
    at most ``ROW_BLOCK``), which is joined before the function returns.
    numpy's FFTs release the GIL, so the blocks run concurrently.  Every
    block is ``ROW_BLOCK // workers`` high and all scratch is allocated
    here, before the pool starts: the workers' buffers together hold at
    most ``ROW_BLOCK`` rows, as one thread's did, and the workers call no
    BLAS.  Each transform reads the same data and writes the same
    destination whatever the block height, so the result has the same bits
    on any number of CPUs.

    numpy's FFTs are the pocketfft that ``scipy.fft`` wraps, and the padding,
    product order and crop are those of SciPy's ``fftconvolve(values, kernel,
    mode="same")`` with the kernel :func:`_gaussian` sampled on the whole
    offset lattice, so the result is bit-identical to it.  The output is
    renormalized.  A zero width returns ``amp`` itself
    (amplitudes are immutable, so its Schmidt data are shared); any other
    kernel narrower than one grid cell degenerates to the identity, and
    scenario configs reject such a width.
    """
    if delta_omega_psf < 0:
        raise ValueError("PSF width must be non-negative")
    if delta_omega_psf == 0.0:
        return amp

    n = amp.grid.n_points
    m = _next_fast_len(2 * n - 1)
    half = m // 2 + 1
    crop = slice((n - 1) // 2, (n - 1) // 2 + n)
    complex_values = np.iscomplexobj(amp.values)
    planes = (amp.values.real, amp.values.imag) if complex_values else (amp.values,)
    sq = amp.grid.axis() ** 2
    live = np.flatnonzero(_gaussian(sq + sq[np.argmin(sq)], delta_omega_psf))
    cols = slice(live[0], live[-1] + 1)  # sq falls, then rises: live is one run
    distinct, row_of = np.unique(sq[live], return_inverse=True)
    u = len(distinct)
    workers = min(_cpus(), ROW_BLOCK)
    height = ROW_BLOCK // workers

    def blocks(count):
        return [slice(r, min(r + height, count)) for r in range(0, count, height)]

    work = np.empty(half * u + workers * 2 * height * m, dtype=complex)
    kernel_spectra = work[:half * u].reshape(half, u)
    column_bufs = work[half * u:].reshape(workers, 2, height, m)
    spectra = [np.empty((n, half), dtype=complex) for _ in planes]
    kernel_bufs = np.zeros((workers, height, n))

    def kernel_rows(block, buf):
        rows = buf[:block.stop - block.start]
        live_part = np.add(distinct[block, None], sq[cols], out=rows[:, cols])
        _gaussian(live_part, delta_omega_psf, out=live_part)
        np.fft.rfft(rows, m, axis=1, out=kernel_spectra[:, block].T)

    def data_rows(plane, spec, block, _buf):
        np.fft.rfft(plane[block], m, axis=1, out=spec[block])

    def columns(block, bufs):
        kernel, data = bufs[:, :block.stop - block.start]
        kernel[:] = 0.0
        for row, spectrum in zip(kernel, kernel_spectra[block]):
            # the indices are in range; "clip" writes into ``out`` unbuffered
            np.take(spectrum, row_of, out=row[cols], mode="clip")
        np.fft.fft(kernel, axis=1, out=kernel)
        for spec in spectra:
            data[:, :n] = spec[:, block].T
            data[:, n:] = 0.0
            np.fft.fft(data, axis=1, out=data)
            data *= kernel
            np.fft.ifft(data, axis=1, norm="forward", out=data)
            spec[:, block] = data[:, crop].T

    # irfftn's factor, which pocketfft computes in long double
    scale = float(1 / np.longdouble(m * m))

    def inverse_rows(spec, plane, block, buf):
        rows = buf[:block.stop - block.start]
        np.fft.irfft(spec[block], m, axis=1, norm="forward", out=rows)
        np.multiply(rows[:, crop], scale, out=plane[block])

    with ThreadPoolExecutor(workers) as pool:
        _run_jobs(pool, [partial(kernel_rows, b) for b in blocks(u)]
                  + [partial(data_rows, plane, spec, b)
                     for plane, spec in zip(planes, spectra) for b in blocks(n)],
                  kernel_bufs)
        del kernel_bufs
        _run_jobs(pool, [partial(columns, b) for b in blocks(half)], column_bufs)
        del work, kernel_spectra, column_bufs
        out = [np.empty((n, n)) for _ in planes]
        row_bufs = np.empty((workers, height, m))
        _run_jobs(pool, [partial(inverse_rows, spec, plane, b)
                         for spec, plane in zip(spectra, out) for b in blocks(n)],
                  row_bufs)
    del spectra, row_bufs
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
    """Maximum photon flux below the single-photon limit, flux = c*dlambda/lambda^2.

    Raises :class:`NumericalError` naming ``grid.center_wavelength_nm`` when
    the flux or the power is not a positive finite float.
    """
    if spdc_bandwidth_nm <= 0 or center_wavelength <= 0:
        raise ValueError("bandwidth and wavelength must be positive")
    try:
        flux = C_NM_PER_S * spdc_bandwidth_nm / center_wavelength**2
        power = flux * photon_energy_j(center_wavelength)
    except ArithmeticError:  # a Python float's lambda**2 overflows, or is 0
        flux = power = np.nan
    if not (0.0 < flux < np.inf and 0.0 < power < np.inf):
        raise NumericalError(
            f"no representable flux limit at grid.center_wavelength_nm = "
            f"{center_wavelength:g} with a {spdc_bandwidth_nm:g} nm bandwidth: "
            f"flux {flux:.3g}/s, power {power:.3g} W")
    return FluxLimit(flux=flux, power=power)
