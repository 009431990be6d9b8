"""Transfer functions: coefficient synthesis, interferometer form, pixelation."""

import numpy as np
import pytest

from biphoton_shaper import (
    SlmModel,
    GridError,
    SpectralGrid,
    TransferFunction,
    franson_transfer,
    frequency_bins,
    mirrored,
    pixelate,
    schmidt_modes,
    time_bins,
    transfer_from_coefficients,
)


class TestTransferFromCoefficients:
    def test_single_rect_bin_flat_top(self, small_grid):
        basis = frequency_bins([0.0], [0.08], small_grid)
        m = transfer_from_coefficients(basis, np.array([1.0]), np.array([0.0]))
        inside = np.abs(m.values) > 0
        assert np.allclose(np.abs(m.values[inside]), 1.0, atol=1e-12)
        assert np.abs(basis.functions).max() > 1.0  # rect height 1/sqrt(width) rescaled

    def test_phase_ladder_on_disjoint_bins(self, small_grid):
        basis = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, small_grid)
        phi = 0.7
        m = transfer_from_coefficients(basis, np.ones(3), phi * np.arange(3))
        ax = small_grid.axis()
        for j, c in enumerate([-0.1, 0.0, 0.1]):
            sel = np.abs(ax - c) < 0.015
            phases = np.angle(m.values[sel])
            assert np.allclose(np.mod(phases, 2 * np.pi), (j * phi) % (2 * np.pi),
                               atol=1e-9)

    def test_narrow_time_bins_give_interferometer_form(self, small_grid):
        t1, phi = 40.0, 0.9
        basis = time_bins([0.0, t1], [0.0, 0.0], small_grid)
        m = transfer_from_coefficients(basis, np.array([0.5, 0.5]), np.array([0.0, phi]))
        ax = small_grid.axis()
        expected = 0.5 + 0.5 * np.exp(1j * (ax * t1 + phi))
        got = m.values / np.abs(m.values).max()
        want = expected / np.abs(expected).max()
        assert np.max(np.abs(got - want)) < 1e-12

    def test_amplitude_range_validated(self, small_grid):
        basis = frequency_bins([0.0], [0.08], small_grid)
        with pytest.raises(ValueError):
            transfer_from_coefficients(basis, np.array([1.5]), np.array([0.0]))

    @pytest.mark.parametrize("amplitudes, phases", [
        (np.ones(3), np.zeros(2)),
        (np.ones(2), np.zeros(3)),
        (np.ones(2), np.zeros((4, 3))),
        (np.ones(2), np.zeros((2, 4, 2))),
    ])
    def test_shapes_validated(self, small_grid, amplitudes, phases):
        basis = frequency_bins([-0.1, 0.1], [0.04, 0.04], small_grid)
        with pytest.raises(ValueError):
            transfer_from_coefficients(basis, amplitudes, phases)

    def test_physicality_on_random_specs(self, small_grid):
        rng = np.random.default_rng(11)
        basis = time_bins([0.0, 35.0, 80.0], [0.0, 0.0, 0.0], small_grid)
        for _ in range(20):
            m = transfer_from_coefficients(basis, rng.uniform(0, 1, 3),
                                           rng.uniform(0, 2 * np.pi, 3))
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

    @pytest.mark.parametrize("n_points", [257, 1025, 2049])
    @pytest.mark.parametrize("phi_points", [48, 96])
    def test_shipped_stacks_need_no_rescale(self, n_points, phi_points):
        # the balanced response peaks at T + R = 1; at every delay the
        # shipped configs use, rounding never lifts a row above it
        grid = SpectralGrid(n_points=n_points, omega_max=0.35)
        phi = np.linspace(0.0, 2.0 * np.pi, phi_points, endpoint=False)
        for t1 in (0.0, 10.0, 25.0, 35.0, 50.0, 70.0, 100.0):
            m = franson_transfer(0.5, 0.5, t1, phi, grid)
            assert np.max(np.abs(m.values)) <= 1.0, (t1, phi_points)

    def test_amplitude_budget_enforced(self, small_grid):
        with pytest.raises(ValueError):
            franson_transfer(0.7, 0.5, 10.0, 0.0, small_grid)

    def test_matches_zero_width_time_bins(self, small_grid):
        # acceptance: after sup-norm normalization both constructions agree
        t1, phi = 30.0, 0.3
        basis = time_bins([0.0, t1], [0.0, 0.0], small_grid)
        a = transfer_from_coefficients(basis, np.array([0.5, 0.5]), np.array([0.0, phi]))
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


class TestStacks:
    """A (P, n) stack built at once equals its P single settings, bit for bit."""

    PHI = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)

    def test_franson_stack_equals_per_phase_builds(self, small_grid):
        stack = franson_transfer(0.5, 0.5, 35.0, self.PHI, small_grid)
        rows = [franson_transfer(0.5, 0.5, 35.0, p, small_grid).values for p in self.PHI]
        assert stack.values.shape == (len(self.PHI), small_grid.n_points)
        assert np.array_equal(stack.values, np.array(rows))

    def test_schmidt_mode_stack_equals_per_phase_builds(self, gamma_psf_small):
        # overlapping modes: every row is its raw superposition times one
        # and the same phase-independent factor, and no row exceeds 1
        basis = mirrored(schmidt_modes(gamma_psf_small, 3))
        amps = np.array([1.0, 0.6, 0.8])
        phases = self.PHI[:, np.newaxis] * np.arange(3)
        stack = transfer_from_coefficients(basis, amps, phases)
        rows = [transfer_from_coefficients(basis, amps, row).values for row in phases]
        assert np.array_equal(stack.values, np.array(rows))
        raw = np.array([(amps * np.exp(1j * row)) @ basis.functions.conj() for row in phases])
        factors = np.abs(stack.values).max(axis=1) / np.abs(raw).max(axis=1)
        assert np.allclose(factors, factors[0], rtol=1e-14, atol=0.0)
        assert factors[0] == pytest.approx(1.0 / (amps @ np.abs(basis.functions)).max(),
                                           rel=1e-14)
        assert factors[0] < 1.0
        assert np.allclose(stack.values, factors[0] * raw, rtol=0.0, atol=1e-15)
        assert np.abs(stack.values).max() <= 1.0

    def test_pixelated_stack_equals_per_row_quantization(self, small_grid):
        slm = SlmModel(n_pixels=128, pixel_width=100.0, gap=3.0)
        assert np.diff(slm.positions(small_grid)).max() < slm.pitch  # pixel-mean branch
        stack = franson_transfer(0.5, 0.5, 35.0, self.PHI, small_grid)
        rows = [pixelate(franson_transfer(0.5, 0.5, 35.0, p, small_grid), slm).values
                for p in self.PHI]
        assert np.array_equal(pixelate(stack, slm).values, np.array(rows))

    @pytest.mark.parametrize("shape", [(4, 129), (2, 3, 257)])
    def test_stack_must_match_the_grid_axis(self, small_grid, shape):
        with pytest.raises(GridError):
            TransferFunction(small_grid, np.zeros(shape))

    def test_one_unphysical_row_rejects_the_stack(self, small_grid):
        values = np.ones((3, small_grid.n_points))
        values[1, 7] = 1.5
        with pytest.raises(ValueError):
            TransferFunction(small_grid, values)


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
            m_i = transfer_from_coefficients(basis, rng.uniform(0.2, 1, 2),
                                             rng.uniform(0, 2 * np.pi, 2))
            m_s = transfer_from_coefficients(basis, rng.uniform(0.2, 1, 2),
                                             rng.uniform(0, 2 * np.pi, 2))
            lam = rng.uniform(0.1, 1.0)
            s0 = coincidence_signal(gamma_small, m_i, m_s)
            s1 = coincidence_signal(gamma_small,
                                    TransferFunction(small_grid, m_i.values * lam),
                                    TransferFunction(small_grid, m_s.values * lam))
            assert np.isclose(s1, lam**4 * s0, rtol=1e-12)
