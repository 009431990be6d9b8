"""Entanglement metrics, thresholds, fringe fits and the Bell parameter."""

import numpy as np
import pytest

from biphoton_shaper import (
    FitError,
    JointAmplitude,
    NumericalError,
    SpectralGrid,
    bell_i2,
    cglmp_parameter,
    cos4_model,
    critical_visibility,
    double_gaussian_amplitude,
    double_gaussian_oracle,
    fit_cos4,
    fit_fringe,
    fit_gamma,
    gamma_fringe_model,
    lambda_fringe_model,
    lambda_from_visibility,
    max_entangled_state,
    schmidt_decompose,
    synthesize_counts,
    visibility_from_lambda,
)
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.measurement import FringeScan
from biphoton_shaper.metrics import QUANTUM_BELL_CEILING


def scan_from_model(d, lam, phi0=0.0, n=40, kind="lambda"):
    phi = np.linspace(0, np.pi if kind == "lambda" else 2 * np.pi, n, endpoint=False)
    if kind == "lambda":
        values = lambda_fringe_model(d, phi, lam, phi0)
    else:
        raise ValueError(kind)
    values = values / values.mean()
    return FringeScan(phi=phi, values=values)


class TestSchmidtDecompose:
    def test_rank_one(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.05, 0.05)
        report = schmidt_decompose(amp)
        assert report.entropy < 1e-8
        assert np.isclose(report.schmidt_number, 1.0, atol=1e-8)

    def test_uniform_spectrum(self, small_grid):
        # d equal-weight orthogonal layers: E = log2 d, K = d
        d = 4
        n = small_grid.n_points
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(n, d)))
        values = sum(np.outer(q[:, j], q[:, j]) for j in range(d))
        amp = JointAmplitude(grid=small_grid, values=values)
        report = schmidt_decompose(amp)
        assert np.isclose(report.entropy, np.log2(d), atol=1e-9)
        assert np.isclose(report.schmidt_number, d, atol=1e-9)

    def test_entropy_bounds(self, gamma_psf_small, small_grid):
        for amp in (gamma_psf_small, double_gaussian_amplitude(small_grid, 0.02, 0.09)):
            report = schmidt_decompose(amp)
            assert 1.0 - 1e-9 <= report.schmidt_number
            assert report.schmidt_number <= report.effective_dimension * (1 + 1e-9)

    def test_non_finite_amplitude_raises_numerical_error(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.05, 0.05)
        amp.values = np.full_like(amp.values, np.nan)
        with pytest.raises(NumericalError):
            schmidt_decompose(amp)


class TestDoubleGaussianOracle:
    def test_symmetric_is_separable(self):
        assert double_gaussian_oracle(0.3, 0.3) == 1.0

    def test_against_brute_force_svd(self):
        grid = SpectralGrid(n_points=513, omega_max=1.0)
        for a, b in ((0.02, 0.02), (0.05, 0.02), (0.1, 0.02), (0.02, 0.12),
                     (0.03, 0.2)):
            amp = double_gaussian_amplitude(grid, a, b)
            beta, _ = amplitude_svd(amp, compute_modes=False)
            k_svd = 1.0 / np.sum(beta**2)
            k_oracle = double_gaussian_oracle(a, b)
            assert abs(k_svd - k_oracle) / k_oracle < 5e-3

    def test_monotone_in_width_ratio(self):
        ratios = np.logspace(0.1, 2, 12)
        ks = [double_gaussian_oracle(r, 1.0) for r in ratios]
        assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))

    def test_positive_widths_required(self):
        with pytest.raises(ValueError):
            double_gaussian_oracle(-1.0, 1.0)


class TestThresholds:
    def test_critical_visibilities(self):
        for d, want in ((2, 0.707), (3, 0.775), (4, 0.817)):
            got = critical_visibility(d)
            assert abs(got - want) < 5e-4

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            critical_visibility(5)

    def test_visibility_identity_for_qubits(self):
        for lam in (0.0, 0.3, 0.9, 1.0):
            assert visibility_from_lambda(lam, 2) == pytest.approx(lam)

    def test_visibility_saturates_at_one(self):
        for d in (2, 3, 4):
            assert visibility_from_lambda(1.0, d) == pytest.approx(1.0)

    def test_inversion_consistency(self):
        assert visibility_from_lambda(0.6906, 4) == pytest.approx(0.817, abs=5e-4)
        for d in (2, 3, 4):
            for v in (0.2, 0.707, 0.95):
                lam = lambda_from_visibility(v, d)
                assert visibility_from_lambda(lam, d) == pytest.approx(v, abs=1e-12)


class TestFitFringe:
    def test_noiseless_recovery(self):
        fit = fit_fringe(scan_from_model(2, 0.903, phi0=0.8), 2)
        assert abs(fit.parameters["lambda"] - 0.903) < 1e-6

    def test_lambda_one_all_dims(self):
        for d in (2, 3, 4):
            fit = fit_fringe(scan_from_model(d, 1.0, phi0=0.3), d)
            assert abs(fit.parameters["lambda"] - 1.0) < 1e-6

    def test_fit_idempotence(self):
        first = fit_fringe(scan_from_model(3, 0.71, phi0=1.9), 3)
        phi = np.linspace(0, np.pi, 50, endpoint=False)
        regenerated = first.parameters["scale"] * lambda_fringe_model(
            3, phi, first.parameters["lambda"], first.parameters["phi0"])
        scan = FringeScan(phi=phi, values=regenerated)
        second = fit_fringe(scan, 3)
        assert abs(second.parameters["lambda"] - first.parameters["lambda"]) < 1e-6
        assert abs(second.parameters["scale"] - first.parameters["scale"]) < 1e-6

    def test_period_coverage_required(self):
        phi = np.linspace(0, 1.0, 30, endpoint=False)  # less than one period
        values = lambda_fringe_model(2, phi, 0.9, 0.0)
        scan = FringeScan(phi=phi, values=values)
        with pytest.raises(FitError):
            fit_fringe(scan, 2)

    def test_too_few_points(self):
        phi = np.linspace(0, np.pi, 4, endpoint=False)
        values = lambda_fringe_model(2, phi, 0.9, 0.0)
        scan = FringeScan(phi=phi, values=values)
        with pytest.raises(FitError):
            fit_fringe(scan, 2)

    def test_counts_fit_recovers(self):
        scan = scan_from_model(2, 0.9, phi0=0.4)
        record = synthesize_counts(scan, 80.0, 11.0, 300.0, seed=5)
        fit = fit_fringe(record, 2)
        assert abs(fit.parameters["lambda"] - 0.9) < 4 * fit.uncertainties["lambda"]
        assert fit.uncertainties["lambda"] > 0


class TestFitGamma:
    def test_both_unity_matches_cos4(self):
        phi = np.linspace(0, 2 * np.pi, 60, endpoint=False)
        assert np.allclose(gamma_fringe_model(phi, 1.0, 1.0, 0.5),
                           16.0 * cos4_model(phi, 0.5), atol=1e-9)

    def test_pure_two_photon_term_recovers_lambda_model(self):
        for g2 in (1.0, 0.6):
            phi = np.linspace(0, 2 * np.pi, 60, endpoint=False)
            values = gamma_fringe_model(phi, 0.0, g2, 0.2)
            scan = FringeScan(phi=phi, values=values / values.mean())
            fit = fit_fringe(scan, 2)
            want = 2 * g2 / (1 + g2**2)
            assert abs(fit.parameters["lambda"] - want) < 1e-6

    def test_recovers_generator(self):
        phi = np.linspace(0, 2 * np.pi, 72, endpoint=False)
        values = 3.3 * gamma_fringe_model(phi, 0.35, 0.87, 1.1)
        scan = FringeScan(phi=phi, values=values)
        fit = fit_gamma(scan)
        assert abs(fit.parameters["gamma1"] - 0.35) < 1e-6
        assert abs(fit.parameters["gamma2"] - 0.87) < 1e-6

    def test_reciprocal_branch_symmetry(self):
        # (g1, g2, s) -> (g1/g2, 1/g2, s*g2^2) with phi0 fixed leaves the
        # fringe and I2 unchanged for every g1, not only as g1 -> 0
        phi = np.linspace(0, 2 * np.pi, 72, endpoint=False)
        rng = np.random.default_rng(11)
        for g1, g2, scale, phi0 in zip(rng.uniform(0.0, 2.0, 50),
                                       rng.uniform(0.05, 3.0, 50),
                                       rng.uniform(0.1, 10.0, 50),
                                       rng.uniform(-np.pi, np.pi, 50)):
            direct = scale * gamma_fringe_model(phi, g1, g2, phi0)
            image = scale * g2**2 * gamma_fringe_model(phi, g1 / g2, 1.0 / g2, phi0)
            assert np.allclose(image, direct, rtol=1e-12, atol=1e-12 * direct.max())
            assert np.isclose(bell_i2(g1 / g2, 1.0 / g2),
                              bell_i2(g1, g2), rtol=0.0, atol=1e-12)

    def test_cos4_fit(self):
        phi = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        values = 7.0 * cos4_model(phi, 0.9)
        scan = FringeScan(phi=phi, values=values)
        fit = fit_cos4(scan)
        assert fit.residual_norm < 1e-9
        assert abs(fit.parameters["scale"] - 7.0) < 1e-6


class TestBellParameter:
    def test_maximally_entangled_reaches_tsirelson(self):
        value = bell_i2(0.0, 1.0)
        assert abs(value - QUANTUM_BELL_CEILING) < 1e-6
        assert value > 2.0

    def test_separable_stays_local(self):
        assert bell_i2(1.0, 1.0) <= 2.0

    def test_ceiling_on_random_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            g1, g2 = rng.uniform(0, 1, 2)
            assert bell_i2(g1, g2) <= QUANTUM_BELL_CEILING + 1e-9

    def test_cross_check_against_state_projection(self):
        # independent route: outcome probabilities from the maximally
        # entangled state vector instead of the closed-form signal
        from biphoton_shaper import projection_probability

        state = max_entangled_state(2)

        def probe(phi_i, phi_s):
            u_i = np.exp(1j * phi_i * np.arange(2)) / np.sqrt(2)
            u_s = np.exp(1j * phi_s * np.arange(2)) / np.sqrt(2)
            return projection_probability(state, u_i, u_s)

        direct = cglmp_parameter(probe)
        assert abs(direct - bell_i2(0.0, 1.0)) < 1e-12

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            bell_i2(-0.1, 1.0)


class TestGammaExtractionFullField:
    def test_fit_matches_integral_oracle(self, gamma_small):
        # the full-field interferometer fringe has an exact expansion whose
        # coefficients are overlap integrals of the amplitude
        from biphoton_shaper import coincidence_signal, franson_transfer

        grid = gamma_small.grid
        t1 = 30.0
        phi = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        stack = franson_transfer(0.5, 0.5, t1, phi, grid)
        values = coincidence_signal(gamma_small, stack, stack)
        scan = FringeScan(phi=phi, values=values / values.mean())
        fit = fit_gamma(scan)

        w = grid.weights()
        phase = np.exp(1j * grid.axis() * t1)
        a = w @ gamma_small.values @ w
        b = (w * phase) @ gamma_small.values @ w
        c = (w * phase) @ gamma_small.values @ (w * phase)
        assert abs(fit.parameters["gamma1"] - abs(b / a)) < 1e-7
        assert abs(fit.parameters["gamma2"] - abs(c / a)) < 1e-7
