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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, GridError, NumericalError, ResolutionError
from .units import (
    C_NM_PER_FS,
    C_NM_PER_S,
    angular_frequency,
    linewidth_mhz_to_rad_fs,
    photon_energy_j,
)

_LN2 = np.log(2.0)

# Narrowest pump envelope the grid represents, in grid cells.
PUMP_CLAMP_CELLS = 3

# Fewest grid samples the phase-matching main lobe may cover on the ridge cut.
SINC_LOBE_SAMPLES = 8

# Rows or columns per block of every blocked loop: the build's pump envelope,
# an amplitude's subnormal flush, the Schmidt mode lift (bases.amplitude_svd)
# and the blur's three passes, whose workers transform one block together,
# so it is also the most workers the blur runs.  A block of spectrum columns
# takes two m-sample complex buffers per column, 4.4 MB at 2049^2; 64 columns
# held 8.8 MB and ran no faster, 16 saved 2.2 MB more but ran 3-10% slower.
# No output bit depends on it.
BLOCK = 32


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
    in the down-conversion sign convention k_i + k_s - k_p.  With
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
    in the down-conversion sign convention.

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

    length in mm, poling period in um.  Both crystals take the down-conversion
    sign convention: the upconversion crystal is the source's time-reversed
    twin, with phase-matching argument -x, and sinc(-x) = sinc(x).
    """

    length: float
    poling_period: float
    dispersion: TaylorMismatch | SellmeierMismatch

    def __post_init__(self):
        if self.length <= 0 or self.poling_period <= 0:
            raise ValueError("crystal length and poling period must be positive")

    @property
    def grating_wavevector(self) -> float:
        """2*pi/G [rad/mm]."""
        return 2.0 * np.pi / (self.poling_period * 1e-3)


@dataclass
class JointAmplitude:
    """Real two-photon amplitude sampled on a square grid.

    The upconversion crystal is the source's time-reversed twin, so the
    phase-matching phase cancels and the detected amplitude is real; complex
    values raise ``ValueError``.  Normalized so that sum(values^2) *
    spacing^2 = 1; values whose norm is not finite (non-finite samples, or
    an overflowing sum) raise :class:`NumericalError`.  Each normalized
    sample of magnitude below ``np.finfo(float).tiny`` (a subnormal, such as
    the pump envelope's underflow tail) is stored as +0.0, ``BLOCK`` rows
    at a time with no full-grid temporary, so no product with the amplitude
    takes the slow subnormal path.  ``values`` is read-only after
    normalization, so the Schmidt data that
    :func:`biphoton_shaper.bases.amplitude_svd` stores on the instance can
    never go stale.
    """

    grid: SpectralGrid
    values: np.ndarray
    _schmidt: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if np.iscomplexobj(self.values):
            raise ValueError("amplitude values must be real")
        if self.values.shape != (self.grid.n_points, self.grid.n_points):
            raise GridError("amplitude shape does not match its grid")
        with np.errstate(over="ignore"):
            norm = np.sqrt(np.sum(np.square(self.values)) * self.grid.spacing**2)
        if not np.isfinite(norm):
            raise NumericalError("amplitude norm is not finite")
        if norm == 0.0:
            raise ValueError("amplitude is identically zero")
        self.values = self.values / norm
        for r in range(0, self.grid.n_points, BLOCK):
            rows = self.values[r:r + BLOCK]
            rows[np.abs(rows) < np.finfo(float).tiny] = 0.0
        self.values.flags.writeable = False


def pump_envelope(omega_sum, pump: PumpSpec):
    """Gaussian pump amplitude at the given sum frequency (peak value 1)."""
    x = np.asarray(omega_sum)
    return _gaussian(x * x, pump.bandwidth)


def _matching_argument(omega_i, omega_s, crystal: CrystalSpec, pump_center):
    """The phase-matching argument x = (mismatch + 2*pi/G) * L / 2, with the
    down-conversion mismatch k_i + k_s - k_p of ``crystal.dispersion``."""
    dk = crystal.dispersion.mismatch(omega_i, omega_s, pump_center)
    return (dk + crystal.grating_wavevector) * crystal.length / 2.0


def phase_matching(omega_i, omega_s, crystal: CrystalSpec, pump_center):
    """Quasi-phase-matching function sinc(x) with the argument x of
    :func:`_matching_argument`; ``pump_center`` is the pump's central
    angular frequency [rad/fs]."""
    return sinc(_matching_argument(omega_i, omega_s, crystal, pump_center))


def _check_sinc_resolution(grid: SpectralGrid, crystal: CrystalSpec, label: str):
    """Require >= SINC_LOBE_SAMPLES of the phase-matching main lobe on the ridge cut.

    The cut runs along the energy-conservation anti-diagonal, where the pump
    envelope leaves the sinc as the only structure to resolve; returns x on it.
    ``label`` ("SPDC" or "SFG") names the crystal in the error.
    """
    ax = grid.axis()
    x = _matching_argument(ax, -ax, crystal, grid.pump_center_frequency)
    lobe = int(np.count_nonzero(np.abs(x) < np.pi))
    if lobe < SINC_LOBE_SAMPLES:
        raise ResolutionError(
            f"phase-matching main lobe of the {label} crystal covers "
            f"{lobe} grid samples (< {SINC_LOBE_SAMPLES}); refine the grid"
        )
    return x


def singles_bandwidth_nm(grid: SpectralGrid, spdc: CrystalSpec) -> float:
    """FWHM [nm] of sinc(x)^2 on the ridge cut, its half maxima interpolated on the axis."""
    s = sinc(_check_sinc_resolution(grid, spdc, "SPDC")) ** 2
    peak = int(np.argmax(s))
    below = np.flatnonzero(s < 0.5 * s[peak])
    if not (below.size and below[0] < peak < below[-1]):
        raise ResolutionError(f"singles FWHM beyond grid.omega_max = {grid.omega_max}; widen it")
    ends = [i + (0.5 * s[peak] - s[i]) / (s[i + 1] - s[i])
            for i in (below[below < peak][-1], below[below > peak][0] - 1)]
    lam = grid.center_wavelength  # Python floats: an unrepresentable width is 0 or inf
    nm = float(ends[1] - ends[0]) * grid.spacing * lam / angular_frequency(lam)  # lam dw / w
    if not 0.0 < nm < np.inf:
        raise NumericalError(f"no representable bandwidth at grid.center_wavelength_nm = {lam:g}")
    return nm


def effective_pump(pump: PumpSpec, grid: SpectralGrid) -> PumpSpec:
    """The pump the grid represents: a bandwidth narrower than PUMP_CLAMP_CELLS
    grid cells is clamped to that width (continuous-wave limit)."""
    return PumpSpec(bandwidth=max(pump.bandwidth, PUMP_CLAMP_CELLS * grid.spacing))


# The blur leaves out the kernel rows and columns whose peak (of 1) is below
# this: at eps^3 ~ 1.1e-47 no output bit moved in 200 cases of 129 to 1025
# points, widths of 1 to 200 cells and five amplitude kinds; at 1e-25 some did.
KERNEL_FLOOR = np.finfo(float).eps ** 3


def build_joint_amplitude(grid: SpectralGrid, pump: PumpSpec, spdc: CrystalSpec,
                          sfg: CrystalSpec | None = None) -> JointAmplitude:
    """Construct the joint spectral amplitude on the grid.

    The source amplitude (pump envelope times phase matching), times the
    detector acceptance when an upconversion crystal is given.  The pump
    envelope is that of :func:`effective_pump`.

    The envelope is evaluated one block of ``BLOCK`` whole rows at a time,
    so no full-grid temporary exists.  Away from the anti-diagonal it
    underflows to +0.0 by itself, and the phase matching is evaluated only
    where it does not: the pump's band (about 13% of a 1025^2 grid and 7%
    of a 2049^2 grid with the clamped continuous-wave pump).  In the band
    each sample is the product the full grid would give, bit for bit;
    outside it the amplitude is +0.0.  The envelope's underflow tail leaves
    subnormal samples at the band's edges (3496 at 1025^2, 7152 at 2049^2
    once normalized); :class:`JointAmplitude` stores them as +0.0.
    """
    _check_sinc_resolution(grid, spdc, "SPDC")
    if sfg is not None:
        _check_sinc_resolution(grid, sfg, "SFG")

    n = grid.n_points
    ax = grid.axis()
    pc = grid.pump_center_frequency
    pump = effective_pump(pump, grid)
    values = np.zeros((n, n))
    for r in range(0, n, BLOCK):
        envelope = pump_envelope(ax[r:r + BLOCK, None] + ax, pump)
        i, j = np.nonzero(envelope)
        wi, ws = ax[r + i], ax[j]
        in_band = envelope[i, j] * phase_matching(wi, ws, spdc, pc)
        if sfg is not None:
            in_band = phase_matching(wi, ws, sfg, pc) * in_band
        values[r + i, j] = in_band
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
    """Run every ``job(buf)`` of ``jobs`` on ``pool`` and return when all
    have run: with k scratch buffers, worker w runs ``jobs[w::k]`` with
    ``buffers[w]``, so the workers share nothing.  A job's error ends its
    worker and is raised here (the lowest-numbered worker's, if several).
    """
    k = len(buffers)

    def worker(w):
        for job in jobs[w::k]:
            job(buffers[w])

    for _ in pool.map(worker, range(k)):
        pass


def apply_psf(amp: JointAmplitude, delta_omega_psf: float) -> JointAmplitude:
    """Convolve the amplitude with the spectral-resolution kernel.

    A linear (zero-padded, not circular) convolution with the centred
    ``'same'`` crop.  Both axes are padded to m, the smallest 5-smooth length
    >= 2n - 1, and the 2-D transforms are run axis by axis in the order
    ``rfftn``/``irfftn`` use, on only the data that reach the crop, in three
    passes:

    - a real-to-complex transform along axis 1 of the n data rows, and of
      each kernel row whose peak, at the column of smallest |omega|, is at
      least ``KERNEL_FLOOR``; the m - n padded rows are zero and are not
      stored.  By the same test every kernel column but these ``live`` ones
      is left out, so no n x n kernel exists and no tap is subnormal (the
      smallest is about eps^6).  At the paper's width 497 of 2049 rows are
      live (249 of 1025, 63 of 257).  The kernel spectra are stored
      transposed, so that a block of spectrum columns copies its live rows
      from contiguous memory;
    - per block of spectrum columns, copied into the rows of a contiguous
      buffer, the complex transform along them, the product with the
      kernel's block of spectrum and the unscaled inverse, of which only the
      n cropped samples are kept;
    - the complex-to-real inverse along axis 1 of those rows, in waves of
      one block per worker; once a wave is joined, its rows are scaled once
      by 1/m^2, cropped and written over the front of the row spectrum,
      which that wave and the earlier ones have consumed.

    The row spectrum, the kernel spectra and the workers' buffers are one
    complex buffer, and the output takes its front: output row r ends at
    byte 8n(r + 1), at or before spectrum row r + 1, which starts at byte
    16 half (r + 1) as half >= n.  The buffer is then shrunk to the n x n
    output with ``ndarray.resize``, a ``realloc`` that returns its tail to
    the system, before the output is renormalized.  So the blur never holds
    its input, the row spectrum and a separate output plane at once: it
    traces 2.91 planes of n^2 float64 besides its input at 1025^2 and 2.77
    at 2049^2.

    Each pass is a list of disjoint blocks of rows or columns, split
    statically over a thread pool of one worker per CPU the process may use
    (:func:`_cpus`, at most ``BLOCK``), joined before the function returns:
    of k workers, worker w runs blocks w, w + k, w + 2k, ... with its own
    buffer.  numpy's FFTs release the GIL, so the blocks run concurrently.
    Every block of rows or columns is ``BLOCK // workers`` high or wide, and
    all scratch is allocated here, before the pool starts, so the workers'
    buffers together hold at most ``BLOCK`` rows or columns; the workers
    call no BLAS.  Each transform reads the same data and writes the same
    destination whatever the block size, so the result has the same bits on
    any number of CPUs and for any ``BLOCK``.

    numpy's FFTs are the pocketfft that ``scipy.fft`` wraps, and the padding,
    product order and crop are those of SciPy's ``fftconvolve(values, kernel,
    mode="same")`` with the kernel :func:`_gaussian` sampled on the whole
    offset lattice, so the result is bit-identical to it (the taps below
    ``KERNEL_FLOOR`` reach no output bit).  The output is renormalized.  A
    zero width returns ``amp`` itself (amplitudes are immutable, so its
    Schmidt data are shared); any other kernel narrower than one grid cell
    degenerates to the identity, and scenario configs reject such a width.
    """
    if delta_omega_psf < 0:
        raise ValueError("PSF width must be non-negative")
    if delta_omega_psf == 0.0:
        return amp

    n = amp.grid.n_points
    m = _next_fast_len(2 * n - 1)
    half = m // 2 + 1
    crop = slice((n - 1) // 2, (n - 1) // 2 + n)
    sq = amp.grid.axis() ** 2
    live = np.flatnonzero(_gaussian(sq + sq[np.argmin(sq)], delta_omega_psf) >= KERNEL_FLOOR)
    cols = slice(live[0], live[-1] + 1)  # sq falls, then rises: live is one run
    u = len(live)
    workers = min(_cpus(), BLOCK)
    size = BLOCK // workers

    def blocks(count):
        return [slice(r, min(r + size, count)) for r in range(0, count, size)]

    # [row spectrum | kernel spectra | scratch]: the scratch holds the kernel
    # rows, then the column buffers; the inverse rows, a quarter of the
    # column buffers' bytes, then overwrite the kernel spectra and the scratch
    work = np.empty(n * half + half * u + workers * 2 * size * m, dtype=complex)
    spectrum = work[:n * half].reshape(n, half)
    tail = work[n * half:]
    kernel_spectra = tail[:half * u].reshape(half, u)
    scratch = tail[half * u:]
    column_bufs = scratch.reshape(workers, 2, size, m)
    kernel_bufs = scratch.view(float)[:workers * size * n].reshape(workers, size, n)
    kernel_bufs[:] = 0.0

    def kernel_rows(block, buf):
        rows = buf[:block.stop - block.start]
        live_part = np.add(sq[cols][block, None], sq[cols], out=rows[:, cols])
        _gaussian(live_part, delta_omega_psf, out=live_part)
        np.fft.rfft(rows, m, axis=1, out=kernel_spectra[:, block].T)

    def data_rows(block, _buf):
        np.fft.rfft(amp.values[block], m, axis=1, out=spectrum[block])

    def columns(block, bufs):
        kernel, data = bufs[:, :block.stop - block.start]
        kernel[:] = 0.0
        kernel[:, cols] = kernel_spectra[block]
        np.fft.fft(kernel, axis=1, out=kernel)
        data[:, :n] = spectrum[:, block].T
        data[:, n:] = 0.0
        np.fft.fft(data, axis=1, out=data)
        data *= kernel
        np.fft.ifft(data, axis=1, norm="forward", out=data)
        spectrum[:, block] = data[:, crop].T

    def inverse_rows(block, buf):
        rows = buf[:block.stop - block.start]
        np.fft.irfft(spectrum[block], m, axis=1, norm="forward", out=rows)

    # irfftn's factor, which pocketfft computes in long double
    scale = float(1 / np.longdouble(m * m))
    blurred = work.view(float)[:n * n].reshape(n, n)
    with ThreadPoolExecutor(workers) as pool:
        _run_jobs(pool, [partial(kernel_rows, b) for b in blocks(u)]
                  + [partial(data_rows, b) for b in blocks(n)], kernel_bufs)
        _run_jobs(pool, [partial(columns, b) for b in blocks(half)], column_bufs)
        row_bufs = tail.view(float)[:workers * size * m].reshape(workers, size, m)
        row_blocks = blocks(n)
        for w in range(0, len(row_blocks), workers):
            wave = row_blocks[w:w + workers]
            _run_jobs(pool, [partial(inverse_rows, b) for b in wave], row_bufs)
            for block, rows in zip(wave, row_bufs):
                np.multiply(rows[:block.stop - block.start, crop], scale, out=blurred[block])
    # no view of the buffer may outlive the resize
    del spectrum, tail, kernel_spectra, scratch, column_bufs, kernel_bufs, row_bufs, rows, blurred
    work.resize((n * n + 1) // 2, refcheck=False)
    blurred = work.view(float)[:n * n].reshape(n, n)
    return JointAmplitude(amp.grid, blurred)


def photon_flux_limit(spdc_bandwidth_nm: float, center_wavelength: float):
    """Maximum photon flux below the single-photon limit, flux = c*dlambda/lambda^2,
    and its power: (flux [1/s], power [W]).

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
    return flux, power
