"""Spectral-field construction: pump, phase matching, amplitudes, PSF, flux."""

import numpy as np
import pytest

from biphoton_shaper import (
    CrystalSpec,
    DomainError,
    GridError,
    JointAmplitude,
    PumpSpec,
    ResolutionError,
    SellmeierIndex,
    SellmeierMismatch,
    SpectralGrid,
    TaylorMismatch,
    apply_psf,
    build_joint_amplitude,
    double_gaussian_amplitude,
    phase_matching,
    phase_mismatch,
    photon_flux_limit,
    pump_envelope,
)
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.spectral_field import psf_kernel, taylor_curvature_for_bandwidth

from conftest import PSF_WIDTH, make_crystals

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

    def test_rejects_asymmetric_window(self):
        with pytest.raises(GridError):
            SpectralGrid(n_points=101, omega_max=0.5, omega_min=-0.4)

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


class TestPhaseMatching:
    def test_mismatch_perfect_qpm(self):
        crystal = CrystalSpec(11.5, 9.0, TaylorMismatch.quasi_phase_matched(9.0),
                              role="SPDC")
        g = 2 * np.pi / 9e-3
        assert np.isclose(phase_mismatch(0.1, -0.2, crystal), -g, rtol=1e-14)

    def test_mismatch_sfg_sign_flip(self):
        crystal = CrystalSpec(11.5, 9.0, TaylorMismatch.quasi_phase_matched(9.0),
                              role="SFG")
        g = 2 * np.pi / 9e-3
        assert np.isclose(phase_mismatch(0.1, -0.2, crystal), +g, rtol=1e-14)

    def test_mismatch_quadratic_term(self):
        disp = TaylorMismatch(dk0=-1.0, a2=3.0)
        crystal = CrystalSpec(1.0, 9.0, disp, role="SPDC")
        x = 0.07
        assert np.isclose(phase_mismatch(x, -x, crystal), -1.0 + 3.0 * (2 * x) ** 2)

    def test_sinc_peak_at_perfect_matching(self):
        for role in ("SPDC", "SFG"):
            crystal = CrystalSpec(11.5, 9.0, TaylorMismatch.quasi_phase_matched(9.0),
                                  role=role)
            assert np.isclose(abs(phase_matching(0.0, 0.0, crystal)), 1.0)

    def test_sinc_zero_and_midpoint(self):
        length = 2.0
        # dk0 shifted so x = (dk + 2pi/G) L/2 hits pi, then pi/2
        for x_target, expected in ((np.pi, 0.0), (np.pi / 2, 2 / np.pi)):
            dk0 = -2 * np.pi / 9e-3 + 2 * x_target / length
            crystal = CrystalSpec(length, 9.0, TaylorMismatch(dk0=dk0), role="SPDC")
            assert np.isclose(phase_matching(0.0, 0.0, crystal), expected, atol=1e-12)

    def test_include_phase_factor(self):
        length = 2.0
        x = 1.1
        dk0 = -2 * np.pi / 9e-3 + 2 * x / length
        crystal = CrystalSpec(length, 9.0, TaylorMismatch(dk0=dk0), role="SPDC")
        value = phase_matching(0.0, 0.0, crystal, include_phase=True)
        assert np.isclose(value, np.sinc(x / np.pi) * np.exp(1j * x))


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

    def test_end_to_end_amplitude_with_dispersive_index(self):
        # normally dispersive toy material; poling chosen to quasi-match at
        # degeneracy, so the amplitude peaks on the energy-conservation line
        grid = SpectralGrid(n_points=257, omega_max=0.35)
        toy = SellmeierIndex(a=3.2, terms=((0.9, 0.06),), d=0.008)
        model = SellmeierMismatch(index_i=toy, index_s=toy, index_p=toy)
        dk0 = model.mismatch(0.0, 0.0, pump_center=grid.pump_center_frequency)
        assert dk0 < 0  # normal dispersion needs poling compensation
        poling_um = 2.0 * np.pi / (-dk0) * 1e3
        spdc = CrystalSpec(11.5, poling_um, model, role="SPDC")
        amp = build_joint_amplitude(grid, PumpSpec(bandwidth=0.05), spdc)
        assert abs(amp.norm() - 1.0) < 1e-9
        assert np.max(np.abs(amp.values - amp.values.T)) < 1e-9
        x = phase_matching(0.0, 0.0, spdc, pump_center=grid.pump_center_frequency)
        assert np.isclose(abs(x), 1.0, atol=1e-9)


class TestBuildJointAmplitude:
    def test_unit_l2_norm(self, gamma_small):
        assert abs(gamma_small.norm() - 1.0) < 1e-9

    def test_kind_tags(self, small_grid, pump_cw):
        spdc, sfg = make_crystals()
        assert build_joint_amplitude(small_grid, pump_cw, spdc).kind == "lambda"
        assert build_joint_amplitude(small_grid, pump_cw, spdc, sfg).kind == "gamma"

    def test_perfect_matching_reduces_to_pump(self, small_grid):
        pump = PumpSpec(bandwidth=0.2)
        spdc, _ = make_crystals(a2=0.0)
        amp = build_joint_amplitude(small_grid, pump, spdc)
        wi, ws = small_grid.mesh()
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
        wi, ws = grid.mesh()
        intensity = np.abs(gamma_small.values) ** 2
        near_ridge = np.abs(wi + ws) < 5 * grid.spacing
        assert intensity[near_ridge].sum() / intensity.sum() > 0.99
        n = grid.n_points
        assert np.isclose(intensity[n // 2, n // 2], intensity.max())

    def test_cw_pump_clamped_to_grid(self, gamma_small, small_grid):
        meta = gamma_small.metadata
        assert meta["pump_bandwidth_clamped"]
        assert np.isclose(meta["pump_bandwidth_effective"], 3 * small_grid.spacing)

    def test_resolution_error_for_coarse_grid(self, pump_cw):
        grid = SpectralGrid(n_points=65, omega_max=0.35)
        spdc, _ = make_crystals(a2=5e4)
        with pytest.raises(ResolutionError):
            build_joint_amplitude(grid, pump_cw, spdc)

    def test_symmetry(self, gamma_small, gamma_psf_small):
        for amp in (gamma_small, gamma_psf_small):
            assert np.max(np.abs(amp.values - amp.values.T)) < 1e-9

    def test_phase_factors_cancel_for_identical_crystals(self, small_grid, pump_cw):
        spdc, sfg = make_crystals()
        plain = build_joint_amplitude(small_grid, pump_cw, spdc, sfg)
        phased = build_joint_amplitude(small_grid, pump_cw, spdc, sfg, include_phase=True)
        assert np.max(np.abs(plain.values - phased.values)) < 1e-12

    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(GridError):
            JointAmplitude(grid=small_grid, values=np.ones((5, 5)))


class TestApplyPsf:
    def test_zero_width_is_identity(self, gamma_small):
        out = apply_psf(gamma_small, 0.0)
        assert out.kind == "gamma_psf"
        assert np.array_equal(out.values, gamma_small.values)

    def test_impulse_reproduces_kernel(self, small_grid):
        n = small_grid.n_points
        impulse = np.zeros((n, n))
        impulse[n // 2, n // 2] = 1.0
        amp = JointAmplitude(grid=small_grid, values=impulse, kind="gamma")
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

    def test_subresolution_warning(self, gamma_small):
        out = apply_psf(gamma_small, gamma_small.grid.spacing / 10)
        assert out.metadata.get("psf_subresolution")

    def test_negative_width_rejected(self, gamma_small):
        with pytest.raises(ValueError):
            apply_psf(gamma_small, -1.0)

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


class TestFluxLimit:
    def test_reported_flux_and_power(self):
        limit = photon_flux_limit(105.0, 1064.0)
        assert abs(limit.flux - 2.8e13) / 2.8e13 < 0.05
        assert abs(limit.power - 5.2e-6) / 5.2e-6 < 0.05

    def test_mode_density(self):
        limit = photon_flux_limit(105.0, 1064.0)
        assert abs(limit.mode_density(1e-6) - 0.2) < 0.02

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            photon_flux_limit(-1.0, 1064.0)


class TestCalibration:
    def test_curvature_matches_requested_bandwidth(self):
        # build an amplitude with the calibrated curvature and re-measure the
        # singles bandwidth on the energy-conservation cut
        target_nm = 105.0
        grid = SpectralGrid(n_points=1025, omega_max=0.35)
        a2 = taylor_curvature_for_bandwidth(target_nm, 1064.0, 11.5)
        spdc, _ = make_crystals(a2=a2)
        amp = build_joint_amplitude(grid, PumpSpec(bandwidth=1e6), spdc)
        n = grid.n_points
        ax = grid.axis()
        cut = np.abs(amp.values[np.arange(n), n - 1 - np.arange(n)]) ** 2
        above = np.where(cut >= 0.5 * cut.max())[0]
        fwhm = ax[above[-1]] - ax[above[0]]
        target = 2 * np.pi * 299.792458 * target_nm / 1064.0**2
        assert abs(fwhm - target) / target < 0.02


class TestDoubleGaussian:
    def test_constructor_normalized_and_symmetric(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.05, 0.01)
        assert abs(amp.norm() - 1.0) < 1e-9
        assert np.max(np.abs(amp.values - amp.values.T)) < 1e-12
