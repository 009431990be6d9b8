"""Coincidence integrals, state projection, fringe scans, count synthesis."""

import numpy as np
import pytest

from biphoton_shaper import (
    BasisError,
    GridError,
    SlmModel,
    SpectralGrid,
    TransferFunction,
    TransferSpec,
    coincidence_scan,
    coincidence_signal,
    double_gaussian_amplitude,
    franson_transfer,
    fringe_scan,
    frequency_bins,
    gamma_model_state,
    max_entangled_state,
    mirrored,
    pixelate,
    procrustean_amplitudes,
    project_state,
    projection_probability,
    schmidt_modes,
    synthesize_counts,
    time_bins,
    transfer_from_coefficients,
)
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.measurement import QuditState


def ones_transfer(grid):
    return TransferFunction(grid, np.ones(grid.n_points))


class TestCoincidenceSignal:
    def test_unit_modulation_integrates_amplitude(self, gamma_small):
        grid = gamma_small.grid
        s = coincidence_signal(gamma_small, ones_transfer(grid), ones_transfer(grid))
        w = grid.weights()
        expected = (w @ gamma_small.values @ w) ** 2
        assert np.isclose(s, expected, rtol=1e-12)
        assert s > 0

    def test_sign_flip_on_half_the_weight_cancels(self, gamma_small):
        # amplitude is parity symmetric, so flipping the idler sign at
        # omega = 0 splits the weight exactly in half
        grid = gamma_small.grid
        values = np.sign(grid.axis())
        m_i = TransferFunction(grid, values.astype(complex))
        s_ref = coincidence_signal(gamma_small, ones_transfer(grid), ones_transfer(grid))
        s = coincidence_signal(gamma_small, m_i, ones_transfer(grid))
        assert s / s_ref < 1e-10

    def test_sum_frequency_phase_invisible_on_ridge(self, antidiagonal_ridge):
        # on the energy-conservation line the two delay phases cancel exactly
        grid = antidiagonal_ridge.grid
        t = 30.0
        phase = TransferFunction(grid, np.exp(1j * grid.axis() * t))
        s_ref = coincidence_signal(antidiagonal_ridge, ones_transfer(grid),
                                   ones_transfer(grid))
        s_both = coincidence_signal(antidiagonal_ridge, phase, phase)
        assert abs(s_both - s_ref) / s_ref < 1e-6
        # a one-sided phase does change the signal
        s_one = coincidence_signal(antidiagonal_ridge, phase, ones_transfer(grid))
        assert abs(s_one - s_ref) / s_ref > 1e-3

    def test_grid_mismatch(self, gamma_small):
        other = SpectralGrid(n_points=129, omega_max=0.35)
        with pytest.raises(GridError):
            coincidence_signal(gamma_small, ones_transfer(other),
                               ones_transfer(gamma_small.grid))


class TestCoincidenceScan:
    def test_franson_pairs_match_signal_loop_bitwise(self, gamma_small):
        grid = gamma_small.grid
        phi = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        transfers = [franson_transfer(0.5, 0.5, 35.0, p, grid) for p in phi]
        values = coincidence_scan(gamma_small, [(m, m) for m in transfers])
        loop = np.empty(len(phi))
        for n, p in enumerate(phi):
            m_i = franson_transfer(0.5, 0.5, 35.0, p, grid)
            m_s = franson_transfer(0.5, 0.5, 35.0, p, grid)
            loop[n] = coincidence_signal(gamma_small, m_i, m_s)
        assert np.array_equal(values, loop / loop.mean())

    def test_dark_scan_stays_zero(self, gamma_small):
        dark = TransferFunction(gamma_small.grid, np.zeros(gamma_small.grid.n_points))
        ones = ones_transfer(gamma_small.grid)
        values = coincidence_scan(gamma_small, [(dark, ones), (ones, dark)])
        assert np.array_equal(values, np.zeros(2))


class TestProjectState:
    def test_frequency_bins_on_cw_ridge_are_diagonal(self, gamma_small):
        basis_i = frequency_bins([-0.12, 0.0, 0.12], [0.05] * 3, gamma_small.grid)
        basis_s = mirrored(basis_i)
        state = project_state(gamma_small, basis_i, basis_s)
        c = np.abs(state.coefficients)
        offdiag = c - np.diag(np.diag(c))
        assert offdiag.max() < 0.01 * np.diag(c).min()

    def test_schmidt_basis_diagonalizes_own_amplitude(self, gamma_psf_small):
        basis_i = schmidt_modes(gamma_psf_small, 4)
        basis_s = mirrored(basis_i)
        state = project_state(gamma_psf_small, basis_i, basis_s)
        expected = np.sqrt(amplitude_svd(gamma_psf_small)[0][:4])
        assert np.allclose(np.diag(state.coefficients).real, expected, atol=1e-8)
        off = state.coefficients - np.diag(np.diag(state.coefficients))
        assert np.max(np.abs(off)) < 1e-8

    def test_separable_amplitude_gives_rank_one_coefficients(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.06, 0.06)
        basis = time_bins([0.0, 40.0, 90.0], [0.0, 0.0, 0.0], small_grid)
        state = project_state(amp, basis, basis)
        sv = np.linalg.svd(state.coefficients, compute_uv=False)
        assert sv[1] < 1e-9 * sv[0]

    def test_captured_weight_bounded(self, gamma_psf_small):
        basis_i = schmidt_modes(gamma_psf_small, 6)
        state = project_state(gamma_psf_small, basis_i, mirrored(basis_i))
        assert state.captured_weight <= 1.0 + 1e-9


class TestProjectionProbability:
    def test_diagonal_qubit_fringes(self):
        phi0 = 0.42
        state = max_entangled_state(2, phi0)
        phis = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        for phi in phis:
            u = np.exp(1j * phi * np.arange(2)) / np.sqrt(2)
            got = projection_probability(state, u, u)
            want = (1 + np.cos(2 * phi + phi0)) / 4
            assert np.isclose(got, want, atol=1e-12)

    def test_row_column_selection(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c /= np.linalg.norm(c) * 1.3
        state = QuditState(coefficients=c)
        e = np.eye(3)
        assert np.isclose(projection_probability(state, e[1], e[2]),
                          abs(c[1, 2]) ** 2)

    def test_ququart_min_reaches_zero(self):
        state = max_entangled_state(4)
        u = np.exp(1j * (np.pi / 2) * np.arange(4)) / 2.0  # theta = pi
        assert projection_probability(state, u, u) < 1e-15

    def test_dimension_mismatch(self):
        state = max_entangled_state(2)
        with pytest.raises(ValueError):
            projection_probability(state, np.ones(3) / 2, np.ones(3) / 2)


class TestFringeScan:
    def test_ideal_qubit_visibility_and_period(self):
        state = max_entangled_state(2)
        phi = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        scan = fringe_scan(state, phi)
        vis = (scan.values.max() - scan.values.min()) / \
              (scan.values.max() + scan.values.min())
        assert np.isclose(vis, 1.0, atol=1e-12)
        half = len(phi) // 2
        assert np.allclose(scan.values[:half], scan.values[half:], atol=1e-9)

    def test_pi_periodicity_all_dims(self):
        for d in (2, 3, 4):
            state = max_entangled_state(d, phi0=0.3)
            phi = np.linspace(0, 2 * np.pi, 40, endpoint=False)
            scan = fringe_scan(state, phi)
            half = len(phi) // 2
            assert np.allclose(scan.values[:half], scan.values[half:], atol=1e-9)

    def test_overlapping_bins_cos4(self):
        # both time bins at t = 0: separable state, single-photon fringes squared
        from biphoton_shaper import fit_cos4

        state = gamma_model_state(1.0, 1.0, phi0=0.0)
        phi = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        scan = fringe_scan(state, phi)
        fit = fit_cos4(scan)
        assert fit.residual_norm < 1e-6

    def test_unit_mean(self, gamma_psf_small):
        basis_i = frequency_bins([-0.1, 0.1], [0.04, 0.04], gamma_psf_small.grid)
        basis_s = mirrored(basis_i)
        spec_i = TransferSpec(basis_i, np.ones(2), np.zeros(2))
        spec_s = TransferSpec(basis_s, np.ones(2), np.zeros(2))
        phi = np.linspace(0, np.pi, 24, endpoint=False)
        scan = fringe_scan((gamma_psf_small, spec_i, spec_s), phi)
        assert np.isclose(scan.values.mean(), 1.0, atol=1e-12)

    def test_dual_route_agreement(self, gamma_psf_small):
        basis_i = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, gamma_psf_small.grid)
        basis_s = mirrored(basis_i)
        spec_i = TransferSpec(basis_i, np.ones(3), np.zeros(3))
        spec_s = TransferSpec(basis_s, np.ones(3), np.zeros(3))
        phi = np.linspace(0, np.pi, 30, endpoint=False)
        ff = fringe_scan((gamma_psf_small, spec_i, spec_s), phi)
        state = project_state(gamma_psf_small, basis_i, basis_s)
        ss = fringe_scan(state, phi)
        gap = np.max(np.abs(ff.values - ss.values))
        assert gap < 0.01  # contract tolerance
        assert gap < 1e-10  # realized: identical up to rounding
        assert 0.0 < state.truncation_weight < 1.0

    def test_dual_route_agreement_overlapping_basis(self, gamma_psf_small):
        basis_i = schmidt_modes(gamma_psf_small, 3)
        basis_s = mirrored(basis_i)
        spec_i = TransferSpec(basis_i, np.ones(3), np.zeros(3))
        spec_s = TransferSpec(basis_s, np.ones(3), np.zeros(3))
        phi = np.linspace(0, np.pi, 30, endpoint=False)
        ff = fringe_scan((gamma_psf_small, spec_i, spec_s), phi)
        ss = fringe_scan(project_state(gamma_psf_small, basis_i, basis_s), phi)
        assert np.max(np.abs(ff.values - ss.values)) < 1e-10

    def test_pixelated_scan_matches_per_point_reference(self, gamma_psf_small):
        # disjoint bins: the common amplitude scale equals every per-point
        # rescale, so the scan agrees with quantizing each transfer separately
        grid = gamma_psf_small.grid
        slm = SlmModel(n_pixels=128, pixel_width=100.0, gap=3.0)
        basis_i = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, grid)
        basis_s = mirrored(basis_i)
        amps = np.array([1.0, 0.7, 0.9])
        spec_i = TransferSpec(basis_i, amps, np.zeros(3))
        spec_s = TransferSpec(basis_s, amps, np.zeros(3))
        phi = np.linspace(0, np.pi, 12, endpoint=False)
        scan = fringe_scan((gamma_psf_small, spec_i, spec_s), phi, slm=slm)
        ladder = np.arange(3)
        ref = np.array([coincidence_signal(
            gamma_psf_small,
            pixelate(transfer_from_coefficients(TransferSpec(basis_i, amps, ladder * p)), slm),
            pixelate(transfer_from_coefficients(
                TransferSpec(basis_s, amps, ladder * p)), slm))
            for p in phi])
        assert np.max(np.abs(scan.values - ref / ref.mean())) < 1e-12
        plain = fringe_scan((gamma_psf_small, spec_i, spec_s), phi)
        assert np.max(np.abs(scan.values - plain.values)) > 1e-6  # quantization shows

    def test_short_phase_grid_rejected(self):
        state = max_entangled_state(2)
        with pytest.raises(ValueError):
            fringe_scan(state, np.linspace(0, 1.0, 20))  # < one period

    def test_basis_dimension_mismatch(self, gamma_psf_small):
        basis_i = frequency_bins([-0.1, 0.1], [0.04, 0.04], gamma_psf_small.grid)
        basis_s = frequency_bins([0.0], [0.04], gamma_psf_small.grid)
        spec_i = TransferSpec(basis_i, np.ones(2), np.zeros(2))
        spec_s = TransferSpec(basis_s, np.ones(1), np.zeros(1))
        with pytest.raises(BasisError):
            fringe_scan((gamma_psf_small, spec_i, spec_s), np.linspace(0, 3, 10))


class TestSynthesizeCounts:
    def _flat_scan(self, n=100):
        from biphoton_shaper.measurement import FringeScan

        phi = np.linspace(0, np.pi, n, endpoint=False)
        return FringeScan(phi=phi, values=np.zeros(n))

    def test_background_only_statistics(self):
        scan = self._flat_scan(100)
        record = synthesize_counts(scan, peak_rate=100.0, background_rate=11.0,
                                   duration_s=300.0, seed=7)
        mean = record.gross.mean()
        sigma_mean = np.sqrt(3300.0 / 100)
        assert abs(mean - 3300.0) < 5 * sigma_mean

    def test_zero_duration_all_zero(self):
        scan = self._flat_scan(10)
        record = synthesize_counts(scan, 100.0, 11.0, 0.0, seed=1)
        assert not record.gross.any() and not record.background.any()

    def test_seed_determinism(self):
        state = max_entangled_state(3)
        phi = np.linspace(0, np.pi, 30, endpoint=False)
        scan = fringe_scan(state, phi)
        a = synthesize_counts(scan, 50.0, 11.0, 300.0, seed=99)
        b = synthesize_counts(scan, 50.0, 11.0, 300.0, seed=99)
        assert np.array_equal(a.gross, b.gross)
        assert np.array_equal(a.background, b.background)
        c = synthesize_counts(scan, 50.0, 11.0, 300.0, seed=100)
        assert not np.array_equal(a.gross, c.gross)


class TestProcrustean:
    def test_two_level_example(self):
        u = procrustean_amplitudes([4.0, 1.0])
        assert np.allclose(u, [1 / np.sqrt(2), 1.0], atol=1e-12)

    def test_equal_signals_identity(self):
        assert np.allclose(procrustean_amplitudes([3.3, 3.3, 3.3]), 1.0)

    def test_fourth_root_rule(self):
        assert np.allclose(procrustean_amplitudes([16.0, 1.0, 1.0]), [0.5, 1.0, 1.0])

    def test_zero_signal_rejected(self):
        with pytest.raises(BasisError):
            procrustean_amplitudes([1.0, 0.0])

    def test_postcondition_on_random_signals(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = rng.uniform(0.1, 9.0, size=rng.integers(2, 6))
            u = procrustean_amplitudes(s)
            out = u**4 * s
            assert u.max() == 1.0
            assert (out.max() - out.min()) / out.min() < 5e-3


class TestTimeDomainOracle:
    def test_time_bin_coefficients_match_temporal_integral(self, gamma_small):
        # frequency-domain projection against the Fourier-transformed joint
        # amplitude integrated over the rectangular time bins
        grid = gamma_small.grid
        centers = [0.0, 60.0]
        widths = [20.0, 20.0]
        basis = time_bins(centers, widths, grid)
        state = project_state(gamma_small, basis, basis)

        w = grid.weights()
        ax = grid.axis()
        # window-truncation renormalization applied by the basis constructor;
        # scaling commutes with the Fourier transform, so it carries over
        rho = np.array([
            np.sqrt(np.sum(np.abs(np.sqrt(dt / (2 * np.pi)) * np.exp(-1j * ax * t)
                                  * np.sinc(ax * dt / 2 / np.pi)) ** 2 * w))
            for t, dt in zip(centers, widths)
        ])

        def temporal_coefficient(tj, dtj, tk, dtk):
            ti = np.linspace(tj - dtj / 2, tj + dtj / 2, 401)
            ts = np.linspace(tk - dtk / 2, tk + dtk / 2, 401)
            ei = np.exp(1j * np.outer(ti, ax)) * w      # (nt, n)
            es = np.exp(1j * np.outer(ts, ax)) * w
            g = ei @ gamma_small.values @ es.T / (2 * np.pi) ** 2
            inner = np.trapezoid(np.trapezoid(g, ts, axis=1), ti)
            return 2 * np.pi / np.sqrt(dtj * dtk) * inner

        for j in range(2):
            for k in range(2):
                oracle = temporal_coefficient(centers[j], widths[j],
                                              centers[k], widths[k]) / (rho[j] * rho[k])
                got = state.coefficients[j, k]
                assert abs(got - oracle) < 1e-4

    def test_time_bins_pair_unmirrored(self, gamma_small):
        # photons are born together: the temporal correlation is diagonal in
        # identical time labels, no mirroring of the signal basis
        basis = time_bins([0.0, 60.0], [20.0, 20.0], gamma_small.grid)
        state = project_state(gamma_small, basis, basis)
        c = np.abs(state.coefficients)
        assert c[0, 0] > 10 * c[0, 1]
        assert c[1, 1] > 10 * c[0, 1]
