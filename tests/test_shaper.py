"""Transfer functions: coefficient synthesis, interferometer form, pixelation."""

import numpy as np
import pytest

from biphoton_shaper import (
    SlmModel,
    SpectralGrid,
    TransferFunction,
    TransferSpec,
    franson_transfer,
    frequency_bins,
    pixelate,
    time_bins,
    transfer_from_coefficients,
)


class TestTransferFromCoefficients:
    def test_single_rect_bin_flat_top(self, small_grid):
        basis = frequency_bins([0.0], [0.08], small_grid)
        m = transfer_from_coefficients(TransferSpec(basis, np.array([1.0]),
                                                    np.array([0.0])))
        inside = np.abs(m.values) > 0
        assert np.allclose(np.abs(m.values[inside]), 1.0, atol=1e-12)
        assert np.abs(basis.functions).max() > 1.0  # rect height 1/sqrt(width) rescaled

    def test_phase_ladder_on_disjoint_bins(self, small_grid):
        basis = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, small_grid)
        phi = 0.7
        m = transfer_from_coefficients(
            TransferSpec(basis, np.ones(3), phi * np.arange(3)))
        ax = small_grid.axis()
        for j, c in enumerate([-0.1, 0.0, 0.1]):
            sel = np.abs(ax - c) < 0.015
            phases = np.angle(m.values[sel])
            assert np.allclose(np.mod(phases, 2 * np.pi), (j * phi) % (2 * np.pi),
                               atol=1e-9)

    def test_narrow_time_bins_give_interferometer_form(self, small_grid):
        t1, phi = 40.0, 0.9
        basis = time_bins([0.0, t1], [0.0, 0.0], small_grid)
        m = transfer_from_coefficients(
            TransferSpec(basis, np.array([0.5, 0.5]), np.array([0.0, phi])))
        ax = small_grid.axis()
        expected = 0.5 + 0.5 * np.exp(1j * (ax * t1 + phi))
        got = m.values / np.abs(m.values).max()
        want = expected / np.abs(expected).max()
        assert np.max(np.abs(got - want)) < 1e-12

    def test_amplitude_range_validated(self, small_grid):
        basis = frequency_bins([0.0], [0.08], small_grid)
        with pytest.raises(ValueError):
            TransferSpec(basis, np.array([1.5]), np.array([0.0]))

    def test_physicality_on_random_specs(self, small_grid):
        rng = np.random.default_rng(11)
        basis = time_bins([0.0, 35.0, 80.0], [0.0, 0.0, 0.0], small_grid)
        for _ in range(20):
            spec = TransferSpec(basis, rng.uniform(0, 1, 3), rng.uniform(0, 2 * np.pi, 3))
            m = transfer_from_coefficients(spec)
            assert np.max(np.abs(m.values)) <= 1.0 + 1e-12


class TestFransonTransfer:
    def test_no_reflection_is_constant(self, small_grid):
        m = franson_transfer(0.4, 0.0, 50.0, 1.0, small_grid)
        assert np.allclose(m.values, 0.4)

    def test_destructive_point(self, small_grid):
        # pick the delay so that omega = pi/dt falls exactly on a grid sample
        ax = small_grid.axis()
        k = small_grid.n_points - 10
        dt = np.pi / ax[k]
        m = franson_transfer(0.5, 0.5, dt, 0.0, small_grid)
        assert abs(m.values[k]) < 1e-12

    def test_balanced_peak_reaches_one(self, small_grid):
        m = franson_transfer(0.5, 0.5, 0.0, 0.0, small_grid)
        assert np.allclose(np.abs(m.values), 1.0)

    def test_amplitude_budget_enforced(self, small_grid):
        with pytest.raises(ValueError):
            franson_transfer(0.7, 0.5, 10.0, 0.0, small_grid)

    def test_matches_zero_width_time_bins(self, small_grid):
        # acceptance: after sup-norm normalization both constructions agree
        t1, phi = 30.0, 0.3
        basis = time_bins([0.0, t1], [0.0, 0.0], small_grid)
        a = transfer_from_coefficients(
            TransferSpec(basis, np.array([0.5, 0.5]), np.array([0.0, phi])))
        b = franson_transfer(0.5, 0.5, t1, phi, small_grid)
        va = a.values / np.abs(a.values).max()
        vb = b.values / np.abs(b.values).max()
        assert np.max(np.abs(va - vb)) < 1e-12


class TestPixelate:
    def test_identity_when_pixels_below_grid_spacing(self, small_grid):
        m = franson_transfer(0.5, 0.5, 25.0, 0.4, small_grid)
        slm = SlmModel(n_pixels=small_grid.n_points * 10, pixel_width=1.0, gap=0.0)
        out = pixelate(m, slm)
        assert np.max(np.abs(out.values - m.values)) < 1e-9

    def test_fill_factor_on_flat_input(self):
        grid = SpectralGrid(n_points=8193, omega_max=0.35)
        flat = TransferFunction(grid, np.ones(grid.n_points))
        slm = SlmModel(n_pixels=640, pixel_width=100.0, gap=3.0)
        out = pixelate(flat, slm)
        power_fraction = np.sum(np.abs(out.values) ** 2) / grid.n_points
        assert abs(power_fraction - 100.0 / 103.0) < 5e-3

    def test_linear_phase_attenuation(self):
        # averaging e^{i w t} over a pixel of spectral width dw attenuates the
        # modulus by |sinc(dw t / 2)|
        grid = SpectralGrid(n_points=8193, omega_max=0.35)
        t = 120.0
        m = TransferFunction(grid, np.exp(1j * grid.axis() * t))
        n_pixels = 64
        slm = SlmModel(n_pixels=n_pixels, pixel_width=100.0, gap=0.0)
        out = pixelate(m, slm)
        dw = 2 * grid.omega_max / n_pixels
        expected = abs(np.sinc(dw * t / 2 / np.pi))
        mid = np.abs(out.values[100:-100])
        assert np.allclose(mid, expected, rtol=0.01)

    def test_cell_averaging_on_coarse_grid(self):
        # grid cells wider than a pixel pitch cannot point-sample the gap
        # comb; the sample is attenuated by the fill fraction instead
        grid = SpectralGrid(n_points=129, omega_max=0.35)
        m = franson_transfer(0.5, 0.5, 20.0, 0.3, grid)
        slm = SlmModel(n_pixels=640, pixel_width=100.0, gap=3.0)
        out = pixelate(m, slm)
        assert np.diff(slm.positions(grid)).min() >= slm.pitch
        assert np.allclose(out.values, m.values * (100.0 / 103.0), atol=1e-12)

    @pytest.mark.parametrize("slm", [SlmModel(), SlmModel(n_pixels=7, gap=0.0),
                                     SlmModel(n_pixels=1, pixel_width=0.3, gap=11.0)])
    @pytest.mark.parametrize("omega_max", [0.1, 0.35, 1.7, 2.0 / 3.0])
    def test_positions_span_exactly_the_aperture(self, slm, omega_max):
        # pixelate has no out-of-aperture branch: every grid sample must map
        # onto [0, extent], both ends exactly
        for n in range(3, 4098, 2):
            pos = slm.positions(SpectralGrid(n_points=n, omega_max=omega_max))
            assert pos[0] == 0.0 and pos[-1] == slm.extent, n
            assert np.all(np.diff(pos) >= 0.0), n


class TestCombinedModulation:
    """The two-photon modulation M_i(w_i) * M_s(w_s) the coincidence integral applies."""

    def test_opaque_side_blocks_everything(self, small_grid, gamma_small):
        from biphoton_shaper import coincidence_signal

        ones = TransferFunction(small_grid, np.ones(small_grid.n_points))
        zero = TransferFunction(small_grid, np.zeros(small_grid.n_points))
        assert coincidence_signal(gamma_small, zero, ones) == 0.0


class TestNormalizationCovariance:
    def test_signal_scales_as_fourth_power(self, small_grid, gamma_small):
        from biphoton_shaper import coincidence_signal

        rng = np.random.default_rng(5)
        basis = time_bins([0.0, 45.0], [0.0, 0.0], small_grid)
        for _ in range(10):
            spec_i = TransferSpec(basis, rng.uniform(0.2, 1, 2),
                                  rng.uniform(0, 2 * np.pi, 2))
            spec_s = TransferSpec(basis, rng.uniform(0.2, 1, 2),
                                  rng.uniform(0, 2 * np.pi, 2))
            m_i = transfer_from_coefficients(spec_i)
            m_s = transfer_from_coefficients(spec_s)
            lam = rng.uniform(0.1, 1.0)
            s0 = coincidence_signal(gamma_small, m_i, m_s)
            s1 = coincidence_signal(gamma_small, m_i.scaled(lam), m_s.scaled(lam))
            assert np.isclose(s1, lam**4 * s0, rtol=1e-12)
