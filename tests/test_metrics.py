"""Entanglement metrics, thresholds, fringe fits and the Bell parameter."""

from pathlib import Path

import numpy as np
import pytest

from biphoton_shaper import (
    FitError,
    JointAmplitude,
    SpectralGrid,
    bell_i2,
    cglmp_parameter,
    critical_visibility,
    fit_cos4,
    fit_fringe,
    fit_gamma,
    gamma_fringe_model,
    lambda_fringe_model,
    lambda_from_visibility,
    schmidt_decompose,
    synthesize_counts,
    visibility_from_lambda,
)
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.measurement import FringeScan
from biphoton_shaper.metrics import QUANTUM_BELL_CEILING, cglmp_maximum

from oracles import (
    double_gaussian_amplitude,
    double_gaussian_oracle,
    lambda_fringe_branches,
    max_entangled_state,
)


def cos4(phi, phi0):
    """The separable-state fringe cos^4((phi + phi0/2)/2), written out."""
    return np.cos((phi + phi0 / 2.0) / 2.0) ** 4


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

    def test_dimension_below_two_rejected(self):
        for d in (1, 0, -3):
            with pytest.raises(ValueError):
                critical_visibility(d)
            with pytest.raises(ValueError):
                cglmp_maximum(d)

    def test_cglmp_maximum_closed_form(self):
        # Collins et al., PRL 88, 040404 (2002), maximally entangled state
        for d, want in ((2, 2.828427), (3, 2.872934), (4, 2.896243)):
            assert abs(cglmp_maximum(d) - want) <= 1e-6
        assert cglmp_maximum(2) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-15)

    def test_cglmp_maximum_rises_to_its_limit(self):
        values = [cglmp_maximum(d) for d in range(2, 51)]
        assert all(b > a for a, b in zip(values, values[1:]))
        catalan = 0.915965594177219015054603514932384110774
        assert abs(cglmp_maximum(10000) - 32.0 * catalan / np.pi**2) <= 5e-5

    def test_critical_visibility_from_cglmp_maximum(self):
        for d in (2, 3, 4, 5, 9):
            lam = lambda_from_visibility(critical_visibility(d), d)
            assert lam * cglmp_maximum(d) == pytest.approx(2.0, rel=1e-14)
        assert critical_visibility(5) == pytest.approx(0.84595, abs=5e-6)

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


class TestLambdaFringeModel:
    PHI = np.random.default_rng(3).uniform(-10.0, 10.0, 1000)

    def test_matches_written_out_branches(self):
        rng = np.random.default_rng(4)
        for lam, phi0 in [(0.0, 0.0), (1.0, 0.0), *rng.uniform(0.0, 1.0, (5, 2))]:
            for d in (3, 4):
                assert np.array_equal(lambda_fringe_model(d, self.PHI, lam, phi0),
                                      lambda_fringe_branches(d, self.PHI, lam, phi0))
            assert np.array_equal(lambda_fringe_model(2, self.PHI, lam, phi0),
                                  2.0 * lambda_fringe_branches(2, self.PHI, lam, phi0))

    def test_mean_and_peak(self):
        # mean d over a period; at lam = 1 the peak is d^2 and the trough 0
        for d in (2, 5, 8):
            phi = np.linspace(0, np.pi, 4 * d, endpoint=False)
            assert lambda_fringe_model(d, phi, 0.6).mean() == pytest.approx(d, rel=1e-14)
            full = lambda_fringe_model(d, phi, 1.0)
            assert full.max() == pytest.approx(d * d, rel=1e-14)
            assert abs(full.min()) <= 1e-12 * d * d

    def test_fit_any_dimension(self):
        for d in (5, 6):
            fit = fit_fringe(scan_from_model(d, 0.87, phi0=0.5, n=48), d)
            assert abs(fit.parameters["lambda"] - 0.87) < 1e-6

    def test_fit_rejects_dimension_below_two(self):
        with pytest.raises(ValueError):
            fit_fringe(scan_from_model(2, 0.9), 1)


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

    def test_lambda_stable_under_rounding_noise(self):
        # The pixelated d = 3 full-field fringe (96 points, lambda 0.9958) of
        # perfbench's fringe_scan workload.  With a finite-difference
        # Jacobian, 1e-15 relative noise moved lambda by 1.5e-10 to 5.8e-10;
        # with the analytic one, by at most 4e-12.
        path = Path(__file__).parent / "data" / "fringe_scan_d3_pixelated.csv"
        phi, values = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        lam = fit_fringe(FringeScan(phi=phi, values=values), 3).parameters["lambda"]
        assert abs(lam - 0.99579448) < 1e-8
        rng = np.random.default_rng(7)
        for _ in range(7):
            noisy = values * (1.0 + 1e-15 * rng.standard_normal(len(values)))
            moved = fit_fringe(FringeScan(phi=phi, values=noisy), 3).parameters["lambda"]
            assert abs(moved - lam) <= 2e-11

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
                           16.0 * cos4(phi, 0.5), atol=1e-9)

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
        values = 7.0 * cos4(phi, 0.9)
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

    def test_cross_check_against_closed_form_probe(self):
        # independent route: the closed-form model signal and the explicit
        # eight-term combination, not the state projections bell_i2 uses
        def oracle_i2(g1, g2):
            def probe(phi_i, phi_s):
                return abs(1.0 + g1 * (np.exp(1j * phi_i) + np.exp(1j * phi_s))
                           + g2 * np.exp(1j * (phi_i + phi_s))) ** 2

            probs = {}
            for a, th_i in enumerate((0.0, np.pi / 2.0)):
                for b, th_s in enumerate((np.pi / 4.0, -np.pi / 4.0)):
                    table = np.array([[probe(th_i + np.pi * k, th_s - np.pi * l)
                                       for l in range(2)] for k in range(2)])
                    probs[(a, b)] = table / table.sum()

            def p_equal(a, b, shift):
                table = probs[(a, b)]
                return table[0, shift % 2] + table[1, (1 + shift) % 2]

            return (p_equal(0, 0, 0) + p_equal(1, 0, -1) + p_equal(1, 1, 0)
                    + p_equal(0, 1, 0) - p_equal(0, 0, -1) - p_equal(1, 0, 0)
                    - p_equal(1, 1, -1) - p_equal(0, 1, 1))

        sweep = np.linspace(0.0, 1.0, 11)
        pairs = [(g1, g2) for g1 in sweep for g2 in sweep]
        pairs += list(np.random.default_rng(5).uniform(0.0, 1.0, (100, 2)))
        for g1, g2 in pairs:
            assert abs(bell_i2(g1, g2) - oracle_i2(g1, g2)) < 1e-14
        assert abs(cglmp_parameter(max_entangled_state(2)) - 2.0 * np.sqrt(2.0)) < 1e-12

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
