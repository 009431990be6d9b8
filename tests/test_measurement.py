"""Coincidence integrals, state projection, fringe scans, count synthesis."""

from pathlib import Path

import numpy as np
import pytest

from biphoton_shaper import (
    BasisError,
    GridError,
    PumpSpec,
    SlmModel,
    SpectralGrid,
    TransferFunction,
    build_joint_amplitude,
    coincidence_scan,
    coincidence_signal,
    franson_transfer,
    fringe_scan,
    frequency_bins,
    gamma_model_state,
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
from biphoton_shaper.config import load_config, validate_config
from biphoton_shaper.measurement import FringeScan, QuditState
from biphoton_shaper.metrics import fit_gamma
from oracles import (
    canonical_gamma,
    cos4_residual,
    cw_franson_gamma1,
    double_gaussian_amplitude,
    ladder,
    max_entangled_state,
)


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

    def test_other_center_wavelength_rejected(self, gamma_small):
        # the same relative axis, but other absolute frequencies than the
        # 1064 nm amplitude's
        other = SpectralGrid(n_points=gamma_small.grid.n_points, omega_max=0.35,
                             center_wavelength=1550.0)
        with pytest.raises(GridError):
            coincidence_signal(gamma_small, ones_transfer(other),
                               ones_transfer(gamma_small.grid))
        bins = frequency_bins([-0.05, 0.05], [0.03, 0.03], other)
        with pytest.raises(GridError):
            project_state(gamma_small, bins, mirrored(bins))


def _pair_integrals(amp, stack_i, stack_s):
    """|(w * m_i) @ Gamma @ (w * m_s)|^2 for each pair of rows, one at a time."""
    w = amp.grid.weights()
    return np.array([np.abs((w * m_i) @ amp.values @ (w * m_s)) ** 2
                     for m_i, m_s in zip(stack_i.values, stack_s.values)])


class TestCoincidenceScan:
    def test_franson_pairs_match_signal_loop_bitwise(self, gamma_small):
        grid = gamma_small.grid
        phi = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        stack = franson_transfer(0.5, 0.5, 35.0, phi, grid)
        loop = _pair_integrals(gamma_small, stack, stack)
        assert np.array_equal(coincidence_signal(gamma_small, stack, stack), loop)
        assert np.array_equal(coincidence_scan(gamma_small, stack, stack),
                              loop / loop.mean())
        single = franson_transfer(0.5, 0.5, 35.0, phi[3], grid)
        assert coincidence_signal(gamma_small, single, single) == loop[3]

    def test_distinct_stacks_match_per_pair_integrals_bitwise(self, gamma_psf_small):
        basis_i = schmidt_modes(gamma_psf_small, 3)
        phases = np.linspace(0, np.pi, 8, endpoint=False)[:, np.newaxis] * np.arange(3)
        m_i = transfer_from_coefficients(basis_i, np.array([1.0, 0.5, 0.7]), phases)
        m_s = transfer_from_coefficients(mirrored(basis_i), np.ones(3), phases)
        loop = _pair_integrals(gamma_psf_small, m_i, m_s)
        assert np.array_equal(coincidence_scan(gamma_psf_small, m_i, m_s),
                              loop / loop.mean())

    def test_schmidt_mode_stack_matches_real_amplitude_loop_bitwise(self, gamma_psf_small):
        # a stacked GEMM drifts from the row loop on Schmidt modes (~1e-15)
        values = gamma_psf_small.values
        basis_i = schmidt_modes(gamma_psf_small, 4)
        phases = np.linspace(0, np.pi, 12, endpoint=False)[:, np.newaxis] * np.arange(4)
        m_i = transfer_from_coefficients(basis_i, np.full(4, 0.5), phases)
        m_s = transfer_from_coefficients(mirrored(basis_i), np.full(4, 0.5), phases)
        signals = coincidence_signal(gamma_psf_small, m_i, m_s)
        assert np.array_equal(signals, _pair_integrals(gamma_psf_small, m_i, m_s))
        # the cast is a local copy: the amplitude keeps its read-only float64 array
        assert gamma_psf_small.values is values
        assert values.dtype == np.float64 and not values.flags.writeable

    def test_pixelated_frequency_bin_stack_matches_real_amplitude_loop_bitwise(
            self, gamma_small):
        basis_i = frequency_bins([-0.12, 0.0, 0.12], [0.05] * 3, gamma_small.grid)
        phases = np.linspace(0, np.pi, 12, endpoint=False)[:, np.newaxis] * np.arange(3)
        slm = SlmModel(n_pixels=96)
        m_i = pixelate(transfer_from_coefficients(basis_i, np.full(3, 0.2), phases), slm)
        m_s = pixelate(transfer_from_coefficients(mirrored(basis_i), np.full(3, 0.2), phases),
                       slm)
        assert np.array_equal(coincidence_signal(gamma_small, m_i, m_s),
                              _pair_integrals(gamma_small, m_i, m_s))

    def test_stack_shapes_must_match(self, gamma_small):
        grid = gamma_small.grid
        phi = np.linspace(0, 2 * np.pi, 4, endpoint=False)
        with pytest.raises(ValueError):
            coincidence_scan(gamma_small, franson_transfer(0.5, 0.5, 35.0, phi, grid),
                             franson_transfer(0.5, 0.5, 35.0, phi[:3], grid))

    def test_dark_scan_stays_zero(self, gamma_small):
        n = gamma_small.grid.n_points
        dark_first = TransferFunction(gamma_small.grid, np.array([np.zeros(n), np.ones(n)]))
        dark_last = TransferFunction(gamma_small.grid, np.array([np.ones(n), np.zeros(n)]))
        values = coincidence_scan(gamma_small, dark_first, dark_last)
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

    def test_stack_equals_per_row_calls(self, gamma_psf_small):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        basis = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, gamma_psf_small.grid)
        states = (QuditState(coefficients=c / (1.3 * np.linalg.norm(c))),
                  project_state(gamma_psf_small, basis, mirrored(basis)))
        phi = np.linspace(0, np.pi, 17, endpoint=False)
        ladders = np.exp(1j * phi[:, np.newaxis] * np.arange(3)) / np.sqrt(3)
        for state in states:
            stacked = projection_probability(state, ladders, ladders[::-1])
            rows = [projection_probability(state, u_i, u_s)
                    for u_i, u_s in zip(ladders, ladders[::-1])]
            assert stacked.shape == (len(phi),)
            assert np.array_equal(stacked, rows)

    def test_dimension_mismatch(self):
        state = max_entangled_state(2)
        with pytest.raises(ValueError):
            projection_probability(state, np.ones(3) / 2, np.ones(3) / 2)
        with pytest.raises(ValueError):
            projection_probability(state, np.ones((4, 2)) / 2, np.ones(2) / 2)


def _ladder_scan(amp, basis_i, basis_s, phi, amplitudes=None, slm=None):
    """Full-field phase-ladder scan: one transfer stack per photon, a row per
    phase, quantized onto ``slm`` when given, through coincidence_scan."""
    d = basis_i.d
    amplitudes = np.ones(d) if amplitudes is None else amplitudes
    m_i, m_s = (transfer_from_coefficients(basis, amplitudes, ladder(phi, d))
                for basis in (basis_i, basis_s))
    if slm is not None:
        m_i, m_s = pixelate(m_i, slm), pixelate(m_s, slm)
    return coincidence_scan(amp, m_i, m_s)


class TestFringeScan:
    def test_ideal_qubit_visibility_and_period(self):
        state = max_entangled_state(2)
        phi = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        values = fringe_scan(state, np.ones(2), ladder(phi, 2))
        vis = (values.max() - values.min()) / (values.max() + values.min())
        assert np.isclose(vis, 1.0, atol=1e-12)
        half = len(phi) // 2
        assert np.allclose(values[:half], values[half:], atol=1e-9)

    def test_pi_periodicity_all_dims(self):
        for d in (2, 3, 4):
            state = max_entangled_state(d, phi0=0.3)
            phi = np.linspace(0, 2 * np.pi, 40, endpoint=False)
            values = fringe_scan(state, np.ones(d), ladder(phi, d))
            half = len(phi) // 2
            assert np.allclose(values[:half], values[half:], atol=1e-9)

    def test_overlapping_bins_cos4(self):
        # both time bins at t = 0: separable state, single-photon fringes squared
        state = gamma_model_state(1.0, 1.0)
        phi = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        scan = FringeScan(phi, fringe_scan(state, np.ones(2), ladder(phi, 2)))
        assert cos4_residual(scan) < 1e-6

    def test_unit_mean(self, gamma_psf_small):
        basis_i = frequency_bins([-0.1, 0.1], [0.04, 0.04], gamma_psf_small.grid)
        phi = np.linspace(0, np.pi, 24, endpoint=False)
        values = _ladder_scan(gamma_psf_small, basis_i, mirrored(basis_i), phi)
        assert np.isclose(values.mean(), 1.0, atol=1e-12)

    def test_dual_route_agreement(self, gamma_psf_small):
        basis_i = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, gamma_psf_small.grid)
        basis_s = mirrored(basis_i)
        phi = np.linspace(0, np.pi, 30, endpoint=False)
        ff = _ladder_scan(gamma_psf_small, basis_i, basis_s, phi)
        state = project_state(gamma_psf_small, basis_i, basis_s)
        ss = fringe_scan(state, np.ones(3), ladder(phi, 3))
        gap = np.max(np.abs(ff - ss))
        assert gap < 0.01  # contract tolerance
        assert gap < 1e-10  # realized: identical up to rounding
        assert 0.0 < state.truncation_weight < 1.0

    def test_dual_route_agreement_overlapping_basis(self, gamma_psf_small):
        basis_i = schmidt_modes(gamma_psf_small, 3)
        basis_s = mirrored(basis_i)
        phi = np.linspace(0, np.pi, 30, endpoint=False)
        ff = _ladder_scan(gamma_psf_small, basis_i, basis_s, phi)
        ss = fringe_scan(project_state(gamma_psf_small, basis_i, basis_s), np.ones(3),
                         ladder(phi, 3))
        assert np.max(np.abs(ff - ss)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["frequency_bins", "schmidt_modes"])
    def test_routes_agree_on_settings_that_are_not_ladders(self, gamma_psf_small, kind, d):
        # random amplitudes in (0, 1] and an independent random phase per point
        # and basis function: the two routes share these arrays and nothing else
        grid = gamma_psf_small.grid
        if kind == "frequency_bins":
            basis_i = frequency_bins((np.arange(d) - (d - 1) / 2.0) * 0.05, [0.04] * d, grid)
        else:
            basis_i = schmidt_modes(gamma_psf_small, d)
        basis_s = mirrored(basis_i)
        rng = np.random.default_rng(d)
        amplitudes = 1.0 - rng.uniform(0.0, 1.0, d)
        phases = rng.uniform(0.0, 2.0 * np.pi, (20, d))
        m_i, m_s = (transfer_from_coefficients(basis, amplitudes, phases)
                    for basis in (basis_i, basis_s))
        full = coincidence_scan(gamma_psf_small, m_i, m_s)
        state = project_state(gamma_psf_small, basis_i, basis_s)
        assert np.max(np.abs(fringe_scan(state, amplitudes, phases) - full)) < 1e-12

    def test_pixelated_scan_matches_per_point_reference(self, gamma_psf_small):
        # disjoint bins: the common amplitude scale equals every per-point
        # rescale, so the scan agrees with quantizing each transfer separately
        grid = gamma_psf_small.grid
        slm = SlmModel(n_pixels=128, pixel_width=100.0, gap=3.0)
        basis_i = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, grid)
        basis_s = mirrored(basis_i)
        amps = np.array([1.0, 0.7, 0.9])
        phi = np.linspace(0, np.pi, 12, endpoint=False)
        scan = _ladder_scan(gamma_psf_small, basis_i, basis_s, phi, amps, slm)
        ladder = np.arange(3)
        ref = np.array([coincidence_signal(
            gamma_psf_small,
            pixelate(transfer_from_coefficients(basis_i, amps, ladder * p), slm),
            pixelate(transfer_from_coefficients(basis_s, amps, ladder * p), slm))
            for p in phi])
        assert np.max(np.abs(scan - ref / ref.mean())) < 1e-12
        plain = _ladder_scan(gamma_psf_small, basis_i, basis_s, phi, amps)
        assert np.max(np.abs(scan - plain)) > 1e-6  # quantization shows

    def test_short_phase_grid_rejected(self):
        # the scan takes any phase grid; the fit's coverage rule rejects it
        from biphoton_shaper import FitError, fit_fringe

        state = max_entangled_state(2)
        for phi in (np.linspace(0, 1.0, 20), np.zeros(1)):  # < one period
            scan = FringeScan(phi, fringe_scan(state, np.ones(2), ladder(phi, 2)))
            with pytest.raises(FitError):
                fit_fringe(scan, 2)


class TestSynthesizeCounts:
    def _flat_scan(self, n=100):
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
        scan = FringeScan(phi, fringe_scan(state, np.ones(3), ladder(phi, 3)))
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

    def test_franson_gamma_extrapolates_to_the_continuous_wave_oracle(self):
        # The shipped 1025^2 grid cannot hold a continuous-wave pump, which
        # is widened to a few grid cells; the unblurred gamma's error is
        # second order in that width, so one Richardson step from 3 and 6
        # cells must land on the closed-form continuous-wave gamma.  The fit
        # bounds gamma1 >= 0 (phi0 takes its sign), so |gamma1| is compared.
        root = Path(__file__).resolve().parents[1]
        scenario = validate_config(load_config(root / "configs" / "default.yaml"))
        grid = scenario.grid
        phi = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        t1_values = (10.0, 25.0, 35.0, 50.0, 70.0, 100.0)
        gammas = {}
        for cells in (3, 6):
            amp = build_joint_amplitude(grid, PumpSpec(bandwidth=cells * grid.spacing),
                                        scenario.spdc, scenario.sfg)
            for t1 in t1_values:
                transfers = franson_transfer(0.5, 0.5, t1, phi, grid)
                fit = fit_gamma(FringeScan(phi, coincidence_scan(amp, transfers, transfers)))
                gammas[cells, t1] = np.array(canonical_gamma(fit.parameters["gamma1"],
                                                             fit.parameters["gamma2"]))
        for t1 in t1_values:
            gamma1, gamma2 = (4.0 * gammas[3, t1] - gammas[6, t1]) / 3.0
            oracle = cw_franson_gamma1(grid, scenario.spdc, scenario.sfg, t1)
            assert abs(gamma1 - abs(oracle)) < 5e-6, t1
            assert abs(gamma2 - 1.0) < 2e-4, t1
