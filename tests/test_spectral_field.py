"""Spectral-field construction: pump, phase matching, amplitudes, PSF, flux."""

import itertools
import os
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len

from biphoton_shaper import (
    CrystalSpec,
    DomainError,
    GridError,
    JointAmplitude,
    NumericalError,
    PumpSpec,
    ResolutionError,
    SellmeierIndex,
    SellmeierMismatch,
    SpectralGrid,
    TaylorMismatch,
    apply_psf,
    build_joint_amplitude,
    phase_matching,
    photon_flux_limit,
    pump_envelope,
)
from biphoton_shaper import spectral_field
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.config import DEFAULT_TAYLOR_A2, load_config, validate_config
from biphoton_shaper.measurement import _product_signals, coincidence_signal
from biphoton_shaper.shaper import franson_transfer
from biphoton_shaper.spectral_field import (
    KERNEL_FLOOR,
    _matching_argument,
    _next_fast_len,
    effective_pump,
    singles_bandwidth_nm,
)

from conftest import PSF_WIDTH, make_crystals
from oracles import (
    amplitude_norm,
    dense_joint_amplitude,
    double_gaussian_amplitude,
    psf_kernel,
    rotated_psf_blur,
)

LN2 = np.log(2.0)


class TestSpectralGrid:
    def test_axis_symmetric_with_zero_sample(self):
        grid = SpectralGrid(n_points=101, omega_max=0.5)
        ax = grid.axis()
        assert ax[0] == -0.5 and ax[-1] == 0.5
        assert ax[50] == 0.0
        assert np.allclose(ax, -ax[::-1])

    def test_weights_sum_to_window(self):
        grid = SpectralGrid(n_points=101, omega_max=0.5)
        assert np.isclose(grid.weights().sum(), 1.0)

    def test_rejects_even_or_tiny_n(self):
        with pytest.raises(GridError):
            SpectralGrid(n_points=100, omega_max=0.5)
        with pytest.raises(GridError):
            SpectralGrid(n_points=1, omega_max=0.5)

    def test_rejects_nonpositive_window(self):
        for omega_max in (0.0, -0.5, float("nan")):
            with pytest.raises(GridError):
                SpectralGrid(n_points=101, omega_max=omega_max)

    def test_pump_center_frequency(self):
        grid = SpectralGrid(n_points=11, omega_max=0.1, center_wavelength=1064.0)
        # twice the degenerate frequency = the frequency of a 532 nm photon
        assert np.isclose(grid.pump_center_frequency,
                          2 * np.pi * 299.792458 / 532.0, rtol=1e-12)


class TestPumpEnvelope:
    def test_peak_is_one(self):
        pump = PumpSpec(bandwidth=0.3)
        assert pump_envelope(0.0, pump) == 1.0

    def test_half_width_half_max_in_intensity(self):
        pump = PumpSpec(bandwidth=0.3)
        amp = pump_envelope(0.15, pump)
        assert np.isclose(amp, np.exp(-LN2 / 2))
        assert np.isclose(amp**2, 0.5)

    def test_value_at_full_bandwidth(self):
        # exp(-2 ln2) = 1/4 amplitude one full FWHM from center
        pump = PumpSpec(bandwidth=0.3)
        assert np.isclose(pump_envelope(0.3, pump), 0.25)

    def test_linewidth_conversion(self):
        pump = PumpSpec.from_linewidth_mhz(5.0)
        assert np.isclose(pump.bandwidth, 2 * np.pi * 5e6 * 1e-15)


# any pump centre: the Taylor model does not read it
PUMP_CENTER = SpectralGrid(n_points=11, omega_max=0.1).pump_center_frequency


class TestPhaseMatching:
    def test_mismatch_perfect_qpm(self):
        g = 2 * np.pi / 9e-3
        dk = TaylorMismatch.quasi_phase_matched(9.0).mismatch(0.1, -0.2, PUMP_CENTER)
        assert np.isclose(dk, -g, rtol=1e-14)

    # The upconversion crystal, the source's time-reversed twin, has the
    # argument -x; sinc is even, so both crystals are evaluated at x.
    @pytest.mark.parametrize("n_points", [257, 1025])
    @pytest.mark.parametrize("dispersion", ["taylor", "taylor-a1=2", "sellmeier"])
    def test_phase_matching_is_even_in_its_argument(self, dispersion, n_points):
        grid = SpectralGrid(n_points=n_points, omega_max=0.35)
        crystal, _ = _crystals(dispersion, grid)
        ax = grid.axis()
        wi, ws = np.meshgrid(ax, ax, indexing="ij")
        pc = grid.pump_center_frequency
        x = _matching_argument(wi, ws, crystal, pc)
        at_x = phase_matching(wi, ws, crystal, pc)
        assert np.array_equal(at_x, spectral_field.sinc(x))
        assert np.array_equal(at_x, spectral_field.sinc(-x))

    def test_mismatch_quadratic_term(self):
        x = 0.07
        dk = TaylorMismatch(dk0=-1.0, a2=3.0).mismatch(x, -x, PUMP_CENTER)
        assert np.isclose(dk, -1.0 + 3.0 * (2 * x) ** 2)

    def test_sinc_peak_at_perfect_matching(self):
        crystal = CrystalSpec(11.5, 9.0, TaylorMismatch.quasi_phase_matched(9.0))
        assert np.isclose(abs(phase_matching(0.0, 0.0, crystal, PUMP_CENTER)), 1.0)

    def test_sinc_zero_and_midpoint(self):
        length = 2.0
        # dk0 shifted so x = (dk + 2pi/G) L/2 hits pi, then pi/2
        for x_target, expected in ((np.pi, 0.0), (np.pi / 2, 2 / np.pi)):
            dk0 = -2 * np.pi / 9e-3 + 2 * x_target / length
            crystal = CrystalSpec(length, 9.0, TaylorMismatch(dk0=dk0))
            assert np.isclose(phase_matching(0.0, 0.0, crystal, PUMP_CENTER), expected,
                              atol=1e-12)


class TestSellmeier:
    def test_constant_index_means_perfect_matching(self):
        # k = n*Omega/c with constant n makes k_i + k_s - k_p vanish exactly
        flat = SellmeierIndex(a=1.8**2)
        model = SellmeierMismatch(index_i=flat, index_s=flat, index_p=flat)
        grid = SpectralGrid(n_points=11, omega_max=0.1)
        dk = model.mismatch(0.05, -0.02, pump_center=grid.pump_center_frequency)
        assert abs(dk) < 1e-9

    def test_dispersive_index_evaluates(self):
        ktp_like = SellmeierIndex(a=2.25, terms=((0.8, 0.05),), d=0.01)
        n = ktp_like.refractive_index(1.064)
        assert 1.0 < n < 3.0

    def test_validity_window(self):
        index = SellmeierIndex(a=2.25, validity_um=(0.4, 2.0))
        with pytest.raises(DomainError):
            index.refractive_index(3.5)

    def test_validity_window_takes_a_list(self):
        index = SellmeierIndex(a=2.0, validity_um=(0.4, 1.6))
        assert np.array_equal(index.refractive_index([0.5, 0.6]), [np.sqrt(2.0)] * 2)
        with pytest.raises(DomainError):
            index.refractive_index([0.5, 1.7])

    @pytest.mark.parametrize("index, wavelength", [
        (SellmeierIndex(a=2.0, d=5.0), 0.65),                 # n^2 < 0
        (SellmeierIndex(a=2.0, terms=((1.0, 0.25),)), 0.5),   # pole at l^2 = c
        (SellmeierIndex(a=2.0, d=8.0), 0.5),                  # n^2 = 0
    ])
    def test_non_physical_index_raises_domain_error(self, index, wavelength):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"not physical at {wavelength} um"):
                index.refractive_index(np.array([0.4, wavelength, 0.6]))

    def test_end_to_end_amplitude_with_dispersive_index(self):
        # normally dispersive toy material; poling chosen to quasi-match at
        # degeneracy, so the amplitude peaks on the energy-conservation line
        grid = SpectralGrid(n_points=257, omega_max=0.35)
        toy = SellmeierIndex(a=3.2, terms=((0.9, 0.06),), d=0.008)
        model = SellmeierMismatch(index_i=toy, index_s=toy, index_p=toy)
        dk0 = model.mismatch(0.0, 0.0, pump_center=grid.pump_center_frequency)
        assert dk0 < 0  # normal dispersion needs poling compensation
        poling_um = 2.0 * np.pi / (-dk0) * 1e3
        spdc = CrystalSpec(11.5, poling_um, model)
        amp = build_joint_amplitude(grid, PumpSpec(bandwidth=0.05), spdc)
        assert abs(amplitude_norm(amp) - 1.0) < 1e-9
        assert np.max(np.abs(amp.values - amp.values.T)) < 1e-9
        x = phase_matching(0.0, 0.0, spdc, pump_center=grid.pump_center_frequency)
        assert np.isclose(abs(x), 1.0, atol=1e-9)


class TestBuildJointAmplitude:
    def test_unit_l2_norm(self, gamma_small):
        assert abs(amplitude_norm(gamma_small) - 1.0) < 1e-9

    def test_perfect_matching_reduces_to_pump(self, small_grid):
        pump = PumpSpec(bandwidth=0.2)
        spdc, _ = make_crystals(a2=0.0)
        amp = build_joint_amplitude(small_grid, pump, spdc)
        ax = small_grid.axis()
        wi, ws = np.meshgrid(ax, ax, indexing="ij")
        expected = pump_envelope(wi + ws, pump)
        expected /= np.sqrt((expected**2).sum() * small_grid.spacing**2)
        assert np.allclose(amp.values, expected, atol=1e-12)
        # ridge runs along the anti-diagonal
        n = small_grid.n_points
        assert np.isclose(amp.values[n // 4, n - 1 - n // 4], amp.values.max())

    def test_broad_pump_perfect_matching_is_separable(self, small_grid):
        pump = PumpSpec(bandwidth=1e8)
        spdc, _ = make_crystals(a2=0.0)
        amp = build_joint_amplitude(small_grid, pump, spdc)
        beta, _ = amplitude_svd(amp, compute_modes=False)
        assert beta[1] < 1e-9  # single Schmidt mode

    def test_default_amplitude_is_narrow_antidiagonal_ridge(self, gamma_small):
        # quasi-monochromatic pump: the intensity lives on a thin ridge along
        # the energy-conservation line
        grid = gamma_small.grid
        ax = grid.axis()
        wi, ws = np.meshgrid(ax, ax, indexing="ij")
        intensity = np.abs(gamma_small.values) ** 2
        near_ridge = np.abs(wi + ws) < 5 * grid.spacing
        assert intensity[near_ridge].sum() / intensity.sum() > 0.99
        n = grid.n_points
        assert np.isclose(intensity[n // 2, n // 2], intensity.max())

    def test_cw_pump_clamped_to_grid(self, gamma_small, small_grid, pump_cw):
        effective = effective_pump(pump_cw, small_grid)
        assert pump_cw.bandwidth < effective.bandwidth
        assert np.isclose(effective.bandwidth, 3 * small_grid.spacing)
        spdc, sfg = make_crystals()
        clamped = build_joint_amplitude(small_grid, effective, spdc, sfg)
        assert np.array_equal(clamped.values, gamma_small.values)

    def test_resolution_error_for_coarse_grid(self, pump_cw):
        grid = SpectralGrid(n_points=65, omega_max=0.35)
        spdc, _ = make_crystals(a2=5e4)
        with pytest.raises(ResolutionError):
            build_joint_amplitude(grid, pump_cw, spdc)

    def test_symmetry(self, gamma_small, gamma_psf_small):
        for amp in (gamma_small, gamma_psf_small):
            assert np.max(np.abs(amp.values - amp.values.T)) < 1e-9

    # The upconversion crystal's phase-matching phase exp(i*x_sfg) undoes the
    # source's exp(i*x_spdc), which is why the package builds a real amplitude.
    @pytest.mark.parametrize("model, a1", [("taylor", 0.0), ("taylor", 2.0), ("sellmeier", None)],
                             ids=["taylor-a1=0", "taylor-a1=2", "sellmeier"])
    def test_phase_factors_cancel_for_identical_crystals(self, small_grid, pump_cw, model, a1):
        spdc, sfg = (_sellmeier_crystals(small_grid) if model == "sellmeier"
                     else make_crystals(a1=a1))
        ax = small_grid.axis()
        wi, ws = np.meshgrid(ax, ax, indexing="ij")
        pc = small_grid.pump_center_frequency
        x_spdc = _matching_argument(wi, ws, spdc, pc)
        x_sfg = -_matching_argument(wi, ws, sfg, pc)  # the source's time-reversed twin
        phased = (pump_envelope(wi + ws, effective_pump(pump_cw, small_grid))
                  * spectral_field.sinc(x_spdc) * np.exp(1j * x_spdc)
                  * spectral_field.sinc(x_sfg) * np.exp(1j * x_sfg))
        phased /= np.sqrt(np.sum(np.abs(phased) ** 2) * small_grid.spacing**2)
        plain = build_joint_amplitude(small_grid, pump_cw, spdc, sfg)
        assert plain.values.dtype == np.float64
        assert np.max(np.abs(plain.values - phased)) < 1e-12

    def test_complex_values_rejected(self, small_grid):
        values = np.ones((small_grid.n_points, small_grid.n_points), dtype=complex)
        with pytest.raises(ValueError, match="real"):
            JointAmplitude(grid=small_grid, values=values)

    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(GridError):
            JointAmplitude(grid=small_grid, values=np.ones((5, 5)))

    # 1e200 is finite, but its square overflows: dividing by the infinite
    # norm would give an all-zero amplitude
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_amplitude_raises_numerical_error(self, small_grid, bad):
        values = np.ones((small_grid.n_points, small_grid.n_points))
        values[3, 5] = bad
        with pytest.raises(NumericalError):
            JointAmplitude(grid=small_grid, values=values)


def _sellmeier_crystals(grid):
    """Toy normally dispersive crystals, poled to quasi-match at degeneracy."""
    toy = SellmeierIndex(a=3.2, terms=((0.9, 0.06),), d=0.008)
    model = SellmeierMismatch(index_i=toy, index_s=toy, index_p=toy)
    dk0 = model.mismatch(0.0, 0.0, pump_center=grid.pump_center_frequency)
    poling_um = 2.0 * np.pi / (-dk0) * 1e3
    return CrystalSpec(11.5, poling_um, model), CrystalSpec(11.5, poling_um, model)


def _crystals(dispersion, grid):
    """The identical crystal pair of a dispersion case.

    ``taylor`` is the shipped, mirror-symmetric model; a nonzero Taylor a1
    tilts the phase-matching band off the anti-diagonal, and the Sellmeier
    toy curves it.
    """
    if dispersion == "sellmeier":
        return _sellmeier_crystals(grid)
    return make_crystals(a1={"taylor": 0.0, "taylor-a1=2": 2.0}[dispersion])


CW_BANDWIDTH = PumpSpec.from_linewidth_mhz(5.0).bandwidth


class TestSubnormalFlush:
    """The pump envelope's underflow tail leaves subnormal samples at the
    band's edges of the shipped 1025^2 build; the amplitude stores +0.0 in
    their place, and no product with it sees the difference."""

    @pytest.fixture(scope="class")
    def shipped(self):
        """The amplitude and its normalized samples before the flush."""
        root = Path(__file__).resolve().parents[1]
        scenario = validate_config(load_config(root / "configs" / "default.yaml"))
        args = (scenario.grid, scenario.pump, scenario.spdc, scenario.sfg)
        raw = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral_field, "JointAmplitude",
                          lambda grid, values: raw.append(values))
            build_joint_amplitude(*args)
        amp = build_joint_amplitude(*args)
        (values,) = raw
        return amp, values / np.sqrt(np.sum(np.abs(values) ** 2) * amp.grid.spacing**2)

    def test_no_sample_is_subnormal(self, shipped):
        amp, unflushed = shipped
        below = np.abs(unflushed) < np.finfo(float).tiny
        assert np.count_nonzero(below & (unflushed != 0.0)) == 3496
        assert not np.any((np.abs(amp.values) < np.finfo(float).tiny) & (amp.values != 0.0))
        assert amp.values.tobytes() == np.where(below, 0.0, unflushed).tobytes()

    def test_franson_signals_keep_their_bits(self, shipped):
        amp, unflushed = shipped
        stack = franson_transfer(0.5, 0.5, 50.0, np.linspace(0, 2 * np.pi, 24), amp.grid)
        kept = _product_signals(unflushed, stack.values, stack.values, amp.grid.weights())
        assert coincidence_signal(amp, stack, stack).tobytes() == kept.tobytes()


class TestBandLimitedBuild:
    """The build evaluates the phase matching only where the pump envelope is
    nonzero; it must equal the full-grid oracle bit for bit.

    The 3-cell pump clamp bounds the band from below: the clamped
    continuous-wave pump is nonzero on 79% of a 129-point grid, 47% of a
    257-point grid and 13% of a 1025-point grid.  A 0.5 rad/fs pump covers
    the whole window.
    """

    @pytest.mark.parametrize("n, pump_bandwidth, band_share", [
        (129, 0.5, 1.0), (257, 0.5, 1.0),
        (129, CW_BANDWIDTH, 0.79), (257, CW_BANDWIDTH, 0.47), (1025, CW_BANDWIDTH, 0.13),
    ])
    @pytest.mark.parametrize("dispersion", ["taylor", "taylor-a1=2", "sellmeier"])
    @pytest.mark.parametrize("with_sfg", [False, True], ids=["spdc", "spdc+sfg"])
    def test_equals_full_grid_oracle(self, n, pump_bandwidth, band_share, dispersion,
                                     with_sfg):
        self._check_oracle(n, pump_bandwidth, band_share, dispersion, with_sfg)

    def test_equals_full_grid_oracle_at_2049(self):
        # the size of the schmidt_2049 benchmark, where the envelope's
        # column window is the narrowest share of a row
        self._check_oracle(2049, CW_BANDWIDTH, 0.07, "taylor", True)

    @staticmethod
    def _check_oracle(n, pump_bandwidth, band_share, dispersion, with_sfg):
        grid = SpectralGrid(n_points=n, omega_max=0.35)
        spdc, sfg = _crystals(dispersion, grid)
        sfg = sfg if with_sfg else None
        pump = PumpSpec(bandwidth=pump_bandwidth)
        amp = build_joint_amplitude(grid, pump, spdc, sfg)
        want = dense_joint_amplitude(grid, pump, spdc, sfg)
        assert amp.values.dtype == want.values.dtype == np.float64
        assert np.array_equal(amp.values, want.values)
        ax = grid.axis()
        outside = pump_envelope(ax[:, None] + ax, effective_pump(pump, grid)) == 0.0
        assert abs(1.0 - outside.mean() - band_share) < 0.01
        # +0.0 outside the band, whatever the sign of the phase matching there
        zeros = amp.values[outside]
        assert not np.any(np.signbit(zeros))

    def test_dispersion_is_evaluated_in_the_band_only(self, small_grid, pump_cw):
        # a pump index valid only within 0.2 rad/fs of the pump center: the
        # grid corners (sum frequency +-0.7 rad/fs) lie outside its window
        # but also outside the clamped pump's band, where the amplitude is 0
        pc = small_grid.pump_center_frequency
        window = tuple(2e-3 * np.pi * 299.792458 / (pc + dw) for dw in (0.2, -0.2))
        toy = dict(a=3.2, terms=((0.9, 0.06),), d=0.008)
        model = SellmeierMismatch(index_i=SellmeierIndex(**toy), index_s=SellmeierIndex(**toy),
                                  index_p=SellmeierIndex(**toy, validity_um=window))
        dk0 = model.mismatch(0.0, 0.0, pump_center=pc)
        spdc = CrystalSpec(11.5, 2.0 * np.pi / (-dk0) * 1e3, model)
        amp = build_joint_amplitude(small_grid, pump_cw, spdc)
        with pytest.raises(DomainError):
            dense_joint_amplitude(small_grid, pump_cw, spdc)
        assert abs(amplitude_norm(amp) - 1.0) < 1e-9

    def test_quick_config_amplitude_bytes(self):
        root = Path(__file__).resolve().parents[1]
        scenario = validate_config(load_config(root / "configs" / "quick.yaml"))
        args = (scenario.grid, scenario.pump, scenario.spdc, scenario.sfg)
        amp = build_joint_amplitude(*args)
        want = dense_joint_amplitude(*args)
        assert amp.values.tobytes() == want.values.tobytes()


class TestApplyPsf:
    def test_zero_width_is_identity(self, gamma_small):
        out = apply_psf(gamma_small, 0.0)
        assert np.array_equal(out.values, gamma_small.values)

    def test_impulse_reproduces_kernel(self, small_grid):
        n = small_grid.n_points
        impulse = np.zeros((n, n))
        impulse[n // 2, n // 2] = 1.0
        amp = JointAmplitude(grid=small_grid, values=impulse)
        out = apply_psf(amp, PSF_WIDTH)
        kernel = psf_kernel(small_grid, PSF_WIDTH)
        got = out.values / out.values.max()
        want = kernel / kernel.max()
        mask = want > 1e-8
        assert np.max(np.abs(got[mask] - want[mask]) / want[mask]) < 1e-6

    def test_ridge_cross_section_fwhm(self, antidiagonal_ridge):
        # 1-d convolution oracle: blur the pre-PSF diagonal cut with the
        # kernel's diagonal cut, compare intensity FWHMs on the blurred field.
        amp = apply_psf(antidiagonal_ridge, PSF_WIDTH)
        grid = amp.grid
        ax = grid.axis()
        n = grid.n_points
        cut = np.abs(amp.values[np.arange(n), np.arange(n)]) ** 2  # along +45 deg
        s = np.sqrt(2.0) * ax  # euclidean coordinate along the cut

        def fwhm(x, y):
            y = y / y.max()
            above = np.where(y >= 0.5)[0]
            lo, hi = above[0], above[-1]

            def cross(i0, i1):
                x0, x1, y0, y1 = x[i0], x[i1], y[i0], y[i1]
                return x0 + (0.5 - y0) * (x1 - x0) / (y1 - y0)

            return cross(hi, hi + 1) - cross(lo, lo - 1)

        measured = fwhm(s, cut)
        # oracle: original cross-section convolved with the 1-d kernel slice
        pre = np.abs(antidiagonal_ridge.values[np.arange(n), np.arange(n)])
        kern1d = np.exp(-(s**2) * 2 * LN2 / PSF_WIDTH**2)
        oracle = np.convolve(pre, kern1d, mode="same")
        predicted = fwhm(s, oracle**2)
        assert abs(measured - predicted) / predicted < 0.02
        assert abs(measured - PSF_WIDTH) / PSF_WIDTH < 0.05

    def test_negative_width_rejected(self, gamma_small):
        with pytest.raises(ValueError):
            apply_psf(gamma_small, -1.0)

    def test_padding_length_is_scipys(self):
        assert all(_next_fast_len(t) == next_fast_len(t, True) for t in range(1, 20001))

    # The blur's bit identity to fftconvolve rests on numpy 2's FFTs being
    # the pocketfft that scipy.fft wraps: each call apply_psf makes gives the
    # bits of the scipy call, at the padded lengths of 257, 1025 and 2049
    # points.
    @pytest.mark.parametrize("transform", ["rfft", "fft_in_place", "ifft_forward",
                                           "irfft_forward"])
    def test_numpy_transforms_give_scipys_bits(self, transform):
        import scipy.fft

        rng = np.random.default_rng(3)
        for n in (257, 1025, 2049):
            m = _next_fast_len(2 * n - 1)
            real = rng.standard_normal((4, n))
            half = m // 2 + 1
            spectra = rng.standard_normal((4, half)) + 1j * rng.standard_normal((4, half))
            full = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
            if transform == "rfft":
                got = np.empty((4, half), dtype=complex)
                np.fft.rfft(real, m, axis=1, out=got)
                want = scipy.fft.rfft(real, m, axis=1)
            elif transform == "fft_in_place":
                got = full.copy()
                np.fft.fft(got, axis=1, out=got)
                want = scipy.fft.fft(full, axis=1)
            elif transform == "ifft_forward":
                got = full.copy()
                np.fft.ifft(got, axis=1, norm="forward", out=got)
                want = scipy.fft.ifft(full, axis=1, norm="forward")
            else:
                got = np.empty((4, m))
                np.fft.irfft(spectra, m, axis=1, norm="forward", out=got)
                want = scipy.fft.irfft(spectra, m, axis=1, norm="forward")
            assert got.tobytes() == want.tobytes(), n

    # 65, 129, 257, 301 and 513 points pad to 135, 270, 540, 625 and 1080;
    # the last width is below one grid cell at every size.
    @pytest.mark.parametrize("n", [65, 129, 257, 301, 513])
    @pytest.mark.parametrize("width", [PSF_WIDTH, 0.05, 2.0e-4])
    def test_bit_identical_to_fftconvolve(self, n, width):
        grid = SpectralGrid(n_points=n, omega_max=0.35)
        rng = np.random.default_rng(n)
        amp = JointAmplitude(grid=grid, values=rng.standard_normal((n, n)))
        assert np.array_equal(apply_psf(amp, width).values, self._fftconvolve(amp, width))

    # Band-limited amplitudes, whose blurred tails fall to FFT rounding: the
    # samples that a kernel floor would move first
    @pytest.mark.parametrize("dispersion", ["taylor", "taylor-a1=2", "sellmeier"])
    @pytest.mark.parametrize("bandwidth", [None, 0.2], ids=["cw", "broad"])
    @pytest.mark.parametrize("cells", [1, 2, 3.5, 20, 60])
    def test_bit_identical_to_fftconvolve_band_limited(self, small_grid, pump_cw, bandwidth,
                                                       cells, dispersion):
        pump = pump_cw if bandwidth is None else PumpSpec(bandwidth=bandwidth)
        amp = build_joint_amplitude(small_grid, pump, *_crystals(dispersion, small_grid))
        width = cells * small_grid.spacing
        assert apply_psf(amp, width).values.tobytes() == self._fftconvolve(amp, width).tobytes()

    # The blocks of rows are ROW_BLOCK // workers high (64, 32, 21 and 4
    # here), those of columns COLUMN_BLOCK // workers wide (32, 16, 10 and
    # 2), and they run on a pool of that many threads; every
    # split gives fftconvolve's bits.  The 257 data rows leave a one-row
    # last block at every height; the 63 rows of the smaller grid, at the
    # same spacing, fill three 21-row blocks exactly and are fewer than one
    # 64-row block.  Without sched_getaffinity the pool
    # has os.cpu_count() workers, or one when that is unknown.  Worker w runs
    # every workers-th block from block w; sixteen workers on a short switch
    # interval guard that split: a block skipped or run twice leaves garbage
    # in, or transforms twice, its rows or columns.
    @pytest.mark.parametrize("affinity, cpu_count, workers",
                             [(1, None, 1), (2, None, 2), (3, None, 3), (16, None, 16),
                              (None, 3, 3), (None, None, 1)],
                             ids=["1", "2", "3", "16", "cpu_count-3", "cpu_count-None"])
    @pytest.mark.parametrize("n", [257, 63])
    def test_bit_identical_on_any_cpu_count(self, affinity, cpu_count, workers, n,
                                            monkeypatch):
        if affinity is None:  # a platform without sched_getaffinity
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        pools = []

        class RecordingPool(spectral_field.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(spectral_field, "ThreadPoolExecutor", RecordingPool)
        grid = SpectralGrid(n_points=n, omega_max=0.35 * (n - 1) / 256)
        rng = np.random.default_rng(n)
        amp = JointAmplitude(grid=grid, values=rng.standard_normal((n, n)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blurred = apply_psf(amp, PSF_WIDTH)
        finally:
            sys.setswitchinterval(interval)
        assert blurred.values.tobytes() == self._fftconvolve(amp, PSF_WIDTH).tobytes()
        assert pools == [workers]

    def test_workers_end_with_the_call(self, gamma_small):
        before = threading.active_count()
        apply_psf(gamma_small, PSF_WIDTH)
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller(self, gamma_small, monkeypatch):
        real_irfft = np.fft.irfft
        calls = itertools.count()  # next() on it is atomic across threads

        def failing_irfft(*args, **kwargs):
            if next(calls) == 1:
                raise FloatingPointError("irfft failed")
            return real_irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", failing_irfft)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="irfft failed"):
            apply_psf(gamma_small, PSF_WIDTH)
        assert threading.active_count() == before

    def test_default_config_blur_bit_identical_to_fftconvolve(self):
        # the 1025^2 continuous-wave amplitude whose blur feeds default's
        # time-bin gamma fits
        root = Path(__file__).resolve().parents[1]
        scenario = validate_config(load_config(root / "configs" / "default.yaml"))
        amp = build_joint_amplitude(scenario.grid, scenario.pump, scenario.spdc, scenario.sfg)
        width = scenario.psf_delta_omega
        assert (apply_psf(amp, width).values.tobytes()
                == self._fftconvolve(amp, width).tobytes())

    @staticmethod
    def _fftconvolve(amp, width):
        """The renormalized ``fftconvolve(..., mode="same")`` of the amplitude."""
        from scipy.signal import fftconvolve

        want = fftconvolve(amp.values, psf_kernel(amp.grid, width), mode="same")
        return want / np.sqrt(np.sum(np.abs(want) ** 2) * amp.grid.spacing**2)

    @pytest.mark.parametrize("cells", [1.0, 2.0, 3.5, 14.0])
    def test_interior_matches_rotated_oracle(self, small_grid, pump_cw, cells):
        spdc, sfg = make_crystals()
        self._assert_interior_matches_rotated_oracle(
            small_grid, pump_cw, spdc, sfg, cells * small_grid.spacing)

    def test_default_config_interior_matches_rotated_oracle(self):
        root = Path(__file__).resolve().parents[1]
        scenario = validate_config(load_config(root / "configs" / "default.yaml"))
        self._assert_interior_matches_rotated_oracle(
            scenario.grid, scenario.pump, scenario.spdc, scenario.sfg,
            scenario.psf_delta_omega)

    @staticmethod
    def _assert_interior_matches_rotated_oracle(grid, pump, spdc, sfg, width):
        # Beyond the reach of the kernel's live taps from every edge the zero
        # padding of apply_psf is invisible.  The oracle is scaled at the peak
        # sample: scaled by its whole-plane norm, the gap at the window's
        # anti-diagonal corners (3e-6 to 1e-5 of the max) would leak 3e-11 to
        # 1e-10 into every sample.
        blurred = apply_psf(build_joint_amplitude(grid, pump, spdc, sfg), width).values
        oracle = rotated_psf_blur(grid, pump, spdc, sfg, width)
        peak = np.unravel_index(np.argmax(np.abs(blurred)), blurred.shape)
        oracle *= blurred[peak] / oracle[peak]
        a = 2.0 * LN2 * grid.spacing**2 / width**2
        reach = int(np.sqrt(-np.log(KERNEL_FLOOR) / a))
        inner = slice(reach + 1, grid.n_points - 1 - reach)
        assert inner.start < inner.stop
        gap = np.max(np.abs(blurred[inner, inner] - oracle[inner, inner]))
        assert gap <= 1e-14 * np.max(np.abs(blurred))

    def test_traced_peak_memory(self, gamma_small):
        # Unit: one padded half-spectrum of a 257^2 grid.  The in-place
        # product, with the kernel spectrum freed before the inverse
        # transform, keeps the blur at about three of them; fftconvolve's
        # out-of-place product of two live spectra needs 4.2.
        n = gamma_small.grid.n_points
        size = next_fast_len(2 * n - 1, True)
        spectrum_bytes = size * (size // 2 + 1) * 16
        apply_psf(gamma_small, PSF_WIDTH)  # warm the transform plan cache
        tracemalloc.start()
        try:
            apply_psf(gamma_small, PSF_WIDTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * spectrum_bytes

    # kernel rows whose peak reaches KERNEL_FLOOR at the paper's width: only
    # these are transformed, and none of their taps is subnormal
    @pytest.mark.parametrize("n, live", [(257, 63), (1025, 249)])
    def test_transforms_only_kernel_rows_above_the_floor(self, n, live, monkeypatch):
        grid = SpectralGrid(n_points=n, omega_max=0.35)
        kernel = psf_kernel(grid, PSF_WIDTH)
        assert np.count_nonzero(kernel.max(axis=1) >= KERNEL_FLOOR) == live
        impulse = np.zeros((n, n))
        impulse[n // 2, n // 2] = 1.0
        real_rfft = np.fft.rfft
        rows, subnormal = [], []

        def counting_rfft(x, *args, **kwargs):
            rows.append(len(x))
            subnormal.append(np.count_nonzero((x != 0) & (np.abs(x) < np.finfo(float).tiny)))
            return real_rfft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        apply_psf(JointAmplitude(grid=grid, values=impulse), PSF_WIDTH)
        assert sum(rows) == n + live
        assert sum(subnormal) == 0

    def test_schmidt_number_nonincreasing_in_psf_width(self, gamma_small):
        widths = [0.0, 0.005, 0.01, 0.02, 0.04]
        ks = []
        for w in widths:
            beta, _ = amplitude_svd(apply_psf(gamma_small, w), compute_modes=False)
            ks.append(1.0 / np.sum(beta**2))
        assert all(k2 <= k1 + 1e-9 for k1, k2 in zip(ks, ks[1:]))

    def test_cw_limit_stability(self):
        # metrics of the blurred amplitude are insensitive to the clamped pump
        # bandwidth once it is far below the blur width
        grid = SpectralGrid(n_points=513, omega_max=0.35)
        psf = 0.05
        spdc, sfg = make_crystals()
        ks, es = [], []
        for bw in (psf / 100, psf / 10):
            amp = build_joint_amplitude(grid, PumpSpec(bandwidth=bw), spdc, sfg)
            beta, _ = amplitude_svd(apply_psf(amp, psf), compute_modes=False)
            kept = beta[beta > 1e-15]
            es.append(-(kept * np.log2(kept)).sum())
            ks.append(1.0 / (kept**2).sum())
        assert abs(ks[1] - ks[0]) / ks[0] < 0.01
        assert abs(es[1] - es[0]) / es[0] < 0.01


class TestPeakMemory:
    """Peak traced allocation at 1025^2, in planes of n^2 float64 (8.4 MB).

    tracemalloc sees numpy's arrays but not pocketfft's internal buffers, so
    these bound the Python-visible working set only; it sees the blur's
    worker threads too.  Measured: the build peaks at 2.0 planes (4.0 with
    the pump envelope on the whole grid, 8.0 with the phase matching there
    too) and the blur at 2.93 with the row spectrum, kernel spectra and
    worker buffers in one array whose front takes the output (2.80 with
    16-column blocks, 3.19 with 64; 3.29 with its output planes in a
    separate scratch array of the kernel spectra and column buffers, 3.63
    with separate planes, 3.78
    on one thread before numpy's transforms wrote into their destinations,
    4.24 with one spectrum per live kernel row and per-block column buffers,
    5.0 with every kernel row transformed, 13.3 through padded 2-D spectra).
    """

    @pytest.fixture(scope="class")
    def grid(self):
        return SpectralGrid(n_points=1025, omega_max=0.35)

    @staticmethod
    def _traced_peak_planes(n, call, *args):
        tracemalloc.start()
        try:
            call(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (n * n * 8)

    def test_build_joint_amplitude(self, grid, pump_cw):
        spdc, sfg = make_crystals()
        planes = self._traced_peak_planes(grid.n_points, build_joint_amplitude,
                                          grid, pump_cw, spdc, sfg)
        assert planes <= 2.5

    def test_apply_psf(self, grid, pump_cw):
        spdc, sfg = make_crystals()
        amp = build_joint_amplitude(grid, pump_cw, spdc, sfg)
        apply_psf(amp, PSF_WIDTH)  # warm the transform plan cache
        planes = self._traced_peak_planes(grid.n_points, apply_psf, amp, PSF_WIDTH)
        assert planes <= 3.0

    def test_amplitude_svd(self, grid, pump_cw):
        """Full decomposition (modes) of the 1025^2 amplitude.

        LAPACK's workspace is not traced.  Measured: the one n x n
        eigenproblem peaked at 2.0 planes (S and H); split by mirror parity
        it peaked at 1.72 with all n modes lifted, at 1.12 with only the
        612 modes whose weight reaches the rank floor, each 64-row chunk
        padded to n mirror coordinates before the lift, and at 1.02 with
        each chunk lifted straight into its rows of the mode array.
        """
        spdc, sfg = make_crystals()
        amp = build_joint_amplitude(grid, pump_cw, spdc, sfg)
        planes = self._traced_peak_planes(grid.n_points, amplitude_svd, amp)
        assert planes <= 1.07


class TestFluxLimit:
    def test_reported_flux_and_power(self):
        flux, power = photon_flux_limit(105.0, 1064.0)
        assert abs(flux - 2.8e13) / 2.8e13 < 0.05
        assert abs(power - 5.2e-6) / 5.2e-6 < 0.05

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            photon_flux_limit(-1.0, 1064.0)


class TestDocumentedCurvature:
    @pytest.mark.parametrize("a2, target_nm", [(DEFAULT_TAYLOR_A2, 61.4), (7.93, 105.0)])
    def test_singles_bandwidth_matches_the_readme_formula(self, a2, target_nm):
        # README: a2 = 1.39156 / (2 L (dw/2)^2) for a sinc^2 singles FWHM dw;
        # build an amplitude with a2 and re-measure that bandwidth on the
        # energy-conservation cut
        grid = SpectralGrid(n_points=1025, omega_max=0.35)
        spdc, _ = make_crystals(a2=a2)
        amp = build_joint_amplitude(grid, PumpSpec(bandwidth=1e6), spdc)
        n = grid.n_points
        ax = grid.axis()
        cut = np.abs(amp.values[np.arange(n), n - 1 - np.arange(n)]) ** 2
        above = np.where(cut >= 0.5 * cut.max())[0]
        fwhm = ax[above[-1]] - ax[above[0]]
        target = 2 * np.pi * 299.792458 * target_nm / 1064.0**2
        assert abs(fwhm - target) / target < 0.02
        # flux_check's interpolated width of the ridge cut, in nm
        assert abs(singles_bandwidth_nm(grid, spdc) - target_nm) / target_nm < 0.005


class TestDoubleGaussian:
    def test_constructor_normalized_and_symmetric(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.05, 0.01)
        assert abs(amplitude_norm(amp) - 1.0) < 1e-9
        assert np.max(np.abs(amp.values - amp.values.T)) < 1e-12
