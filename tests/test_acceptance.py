"""Acceptance criteria for the full pipeline.

Each test exercises one criterion at its stated tolerance and records a
PASS/FAIL line; the lines are printed in the terminal summary.
"""

import numpy as np
import pytest

from biphoton_shaper import (
    PumpSpec,
    SpectralGrid,
    TransferSpec,
    apply_psf,
    bell_i2,
    build_joint_amplitude,
    cglmp_thresholds,
    coincidence_signal,
    double_gaussian_amplitude,
    double_gaussian_oracle,
    fit_cos4,
    fit_fringe,
    fit_gamma,
    franson_transfer,
    frequency_bins,
    fringe_scan,
    gram_matrix,
    lambda_fringe_model,
    max_entangled_state,
    mirrored,
    photon_flux_limit,
    procrustean_amplitudes,
    project_state,
    projection_probability,
    schmidt_decompose,
    schmidt_modes,
    synthesize_counts,
    time_bins,
    transfer_from_coefficients,
)
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.measurement import FringeScan
from biphoton_shaper.metrics import QUANTUM_BELL_CEILING

from conftest import PSF_WIDTH, make_crystals

RESULTS = []


def record(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    RESULTS.append(f"criterion {number:>2} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def paper_amplitudes(n_points):
    grid = SpectralGrid(n_points=n_points, omega_max=0.35)
    pump = PumpSpec.from_linewidth_mhz(5.0)
    spdc, sfg = make_crystals()
    gamma = build_joint_amplitude(grid, pump, spdc, sfg)
    return gamma, apply_psf(gamma, PSF_WIDTH)


@pytest.fixture(scope="module")
def paper_1025():
    return paper_amplitudes(1025)


def spectrum_metrics(amp):
    beta, _ = amplitude_svd(amp, compute_modes=False)
    kept = beta[beta > 1e-15]
    entropy = float(-(kept * np.log2(kept)).sum())
    return entropy, float(1.0 / (kept**2).sum())


def test_criterion_1_cglmp_thresholds():
    table = {2: 0.707, 3: 0.775, 4: 0.817}
    got = {d: cglmp_thresholds(d).visibility_critical for d in table}
    ok = all(abs(got[d] - table[d]) < 5e-4 for d in table)
    record(1, "CGLMP thresholds", ok,
           "Vc = " + ", ".join(f"{got[d]:.3f}" for d in (2, 3, 4)))


def test_criterion_2_psf_reduced_entanglement(paper_1025):
    _, gamma_psf = paper_1025
    report, _ = schmidt_decompose(gamma_psf, modes=False)
    e1, k1 = report.entropy, report.schmidt_number
    d1 = report.effective_dimension

    _, gamma_psf_2049 = paper_amplitudes(2049)
    e2, k2 = spectrum_metrics(gamma_psf_2049)

    in_window = (abs(e1 - 2.6) <= 0.3) and (abs(k1 - 4.9) <= 0.5) and (abs(d1 - 6) <= 1)
    converged = abs(e2 - e1) / e1 < 0.02 and abs(k2 - k1) / k1 < 0.02
    record(2, "PSF-reduced entanglement", in_window and converged,
           f"E={e1:.3f} ebits, K={k1:.3f}, d_eff={d1:.2f}; "
           f"doubling: dE={abs(e2 - e1) / e1:.2%}, dK={abs(k2 - k1) / k1:.2%}")


def test_criterion_3_cw_limit_oracle():
    # the full continuous-wave entropy is out of desk-scale reach; the closed
    # form stands in, validated against brute-force SVD on fine grids
    pairs = [(0.02, 0.02), (0.05, 0.02), (0.1, 0.02), (0.2, 0.02), (0.03, 0.24)]
    max_rel = 0.0
    for a, b in pairs:
        grid = SpectralGrid(n_points=2049, omega_max=6.0 * max(a, b))
        beta, _ = amplitude_svd(double_gaussian_amplitude(grid, a, b),
                                compute_modes=False)
        k_svd = 1.0 / np.sum(beta**2)
        k_cf = double_gaussian_oracle(a, b)
        max_rel = max(max_rel, abs(k_svd - k_cf) / k_cf)
    validated = max_rel < 5e-3

    # shrink the pump-to-phase-matching width ratio over four decades
    ratios = np.logspace(-0.5, -4.5, 17)
    ks = [double_gaussian_oracle(r, 1.0) for r in ratios]
    monotone = all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))

    # one grid spot check along the sweep
    grid = SpectralGrid(n_points=2049, omega_max=0.6)
    beta, _ = amplitude_svd(double_gaussian_amplitude(grid, 0.01, 0.1),
                            compute_modes=False)
    k_spot = 1.0 / np.sum(beta**2)
    spot_ok = abs(k_spot - double_gaussian_oracle(0.01, 0.1)) / k_spot < 5e-3

    record(3, "CW-limit oracle substitute", validated and monotone and spot_ok,
           f"max SVD deviation {max_rel:.2%} over {len(pairs)} pairs; "
           f"K rises {ks[0]:.1f} -> {ks[-1]:.0f} over 4 decades")


def test_criterion_4_ideal_fringes():
    lambdas = {}
    harmonics_ok = False
    for d in (2, 3, 4):
        phi = np.linspace(0, np.pi, 64, endpoint=False)
        scan = fringe_scan(max_entangled_state(d), phi)
        fit = fit_fringe(scan, d)
        lambdas[d] = fit.parameters["lambda"]
        if d == 4:
            spectrum = np.abs(np.fft.rfft(scan.values))
            base = spectrum[3]
            harmonics_ok = (
                abs(spectrum[1] / base - 3.0) < 1e-6
                and abs(spectrum[2] / base - 2.0) < 1e-6
                and np.all(spectrum[4:] < 1e-9 * spectrum[0])
            )
    ok = all(abs(lambdas[d] - 1.0) < 1e-6 for d in (2, 3, 4)) and harmonics_ok
    record(4, "ideal fringes", ok,
           "lambda = " + ", ".join(f"{lambdas[d]:.8f}" for d in (2, 3, 4))
           + "; ququart harmonics 3:2:1")


def test_criterion_5_dual_route_equivalence(paper_1025):
    _, gamma_psf = paper_1025
    grid = gamma_psf.grid
    details = []
    ok = True
    for d in (2, 3):
        centers = (np.arange(d) - (d - 1) / 2.0) * 0.036
        basis_i = frequency_bins(centers, np.full(d, 0.024), grid)
        basis_s = mirrored(basis_i)
        spec_i = TransferSpec(basis_i, np.ones(d), np.zeros(d))
        spec_s = TransferSpec(basis_s, np.ones(d), np.zeros(d))
        phi = np.linspace(0, np.pi, 24, endpoint=False)
        full = fringe_scan((gamma_psf, spec_i, spec_s), phi)
        state = fringe_scan(project_state(gamma_psf, basis_i, basis_s), phi)
        gap = float(np.max(np.abs(full.values - state.values)))
        leakage = full.metadata["truncation_weight"]
        ok = ok and gap < 0.01
        details.append(f"d={d}: gap {gap:.2e}, leakage {leakage:.3f}")
    record(5, "dual-route projective equivalence", ok, "; ".join(details))


def test_criterion_6_franson_equivalence():
    grid = SpectralGrid(n_points=1025, omega_max=0.35)
    t1, phi = 42.0, 0.77
    basis = time_bins([0.0, t1], [0.0, 0.0], grid)
    from_bins = transfer_from_coefficients(
        TransferSpec(basis, np.array([0.3, 0.6]), np.array([0.0, phi])))
    reference = franson_transfer(0.3, 0.6, t1, phi, grid)
    va = from_bins.values / np.abs(from_bins.values).max()
    vb = reference.values / np.abs(reference.values).max()
    gap = float(np.max(np.abs(va - vb)))
    record(6, "Franson equivalence", gap < 1e-12, f"sup-norm gap {gap:.2e}")


def _franson_scan(amp, t1, phi):
    values = np.array([
        coincidence_signal(amp,
                           franson_transfer(0.5, 0.5, t1, p, amp.grid),
                           franson_transfer(0.5, 0.5, t1, p, amp.grid))
        for p in phi
    ])
    return FringeScan(phi=phi, values=values / values.mean(), route="full_field",
                      d=2, basis_kind="time_bin")


def test_criterion_7_time_bin_transition(paper_1025):
    gamma, gamma_psf = paper_1025
    phi = np.linspace(0, 2 * np.pi, 48, endpoint=False)

    cos4_residual = fit_cos4(_franson_scan(gamma, 0.0, phi)).residual_norm

    sweep = [0.0, 10.0, 25.0, 35.0, 50.0]
    gamma1, i2_free = [], {}
    for t1 in sweep:
        if t1 == 0.0:
            gamma1.append(1.0)
            i2_free[t1] = bell_i2(1.0, 1.0).value
            continue
        fit = fit_gamma(_franson_scan(gamma, t1, phi))
        gamma1.append(fit.parameters["gamma1"])
        i2_free[t1] = bell_i2(fit.parameters["gamma1"],
                              fit.parameters["gamma2"]).value
    monotone = all(b < a + 1e-9 for a, b in zip(gamma1, gamma1[1:]))
    violation = all(i2_free[t] > 2.0 for t in (35.0, 50.0))

    # past its maximum the blurred-amplitude Bell parameter falls off while
    # the blur-free one saturates near the ceiling
    tail = (70.0, 100.0, 150.0)
    i2_psf, i2_nopsf_tail = [], []
    for t1 in tail:
        fit = fit_gamma(_franson_scan(gamma_psf, t1, phi))
        i2_psf.append(bell_i2(fit.parameters["gamma1"],
                              fit.parameters["gamma2"]).value)
        fit0 = fit_gamma(_franson_scan(gamma, t1, phi))
        i2_nopsf_tail.append(bell_i2(fit0.parameters["gamma1"],
                                     fit0.parameters["gamma2"]).value)
    tail_decreasing = all(b < a for a, b in zip(i2_psf, i2_psf[1:]))
    below_free = all(p < f for p, f in zip(i2_psf, i2_nopsf_tail))

    ok = (cos4_residual < 1e-6 and monotone and violation
          and tail_decreasing and below_free)
    record(7, "time-bin transition", ok,
           f"cos4 residual {cos4_residual:.1e}; gamma1 "
           + "->".join(f"{g:.2f}" for g in gamma1)
           + f"; I2(35fs)={i2_free[35.0]:.2f}, I2(50fs)={i2_free[50.0]:.2f}; "
           f"PSF tail {i2_psf[0]:.3f}>{i2_psf[1]:.3f}>{i2_psf[2]:.3f}")


def test_criterion_8_noise_robust_fitting():
    generators = {2: 0.903, 3: 0.860, 4: 0.959}
    peak, bg, duration, n_points, n_trials = 50.0, 11.0, 300.0, 36, 50
    phi = np.linspace(0, np.pi, n_points, endpoint=False)
    rates = {}
    ok = True
    for d, lam in generators.items():
        values = lambda_fringe_model(d, phi, lam, 0.7)
        scan = FringeScan(phi=phi, values=values / values.mean(),
                          route="state_space", d=d, basis_kind="synthetic")
        hits = 0
        for seed in range(n_trials):
            record_counts = synthesize_counts(scan, peak, bg, duration, seed)
            fit = fit_fringe(record_counts, d)
            if abs(fit.parameters["lambda"] - lam) <= 2 * fit.uncertainties["lambda"]:
                hits += 1
        rates[d] = hits
        ok = ok and hits >= 0.9 * n_trials
    record(8, "noise-robust fitting", ok,
           "2-sigma coverage " + ", ".join(f"d={d}: {rates[d]}/{n_trials}"
                                           for d in (2, 3, 4)))


def test_criterion_9_procrustean_filtering(paper_1025):
    _, gamma_psf = paper_1025
    d = 3
    basis_i = frequency_bins([-0.05, 0.0, 0.05], [0.04, 0.024, 0.015], gamma_psf.grid)
    basis_s = mirrored(basis_i)
    state = project_state(gamma_psf, basis_i, basis_s)

    eye = np.eye(d)
    before = np.array([projection_probability(state, eye[k], eye[k])
                       for k in range(d)])
    asymmetric = before.max() / before.min() > 1.5  # the input is genuinely unequal
    filt = procrustean_amplitudes(before)
    after = np.array([projection_probability(state, filt[k] * eye[k],
                                             filt[k] * eye[k])
                      for k in range(d)])
    spread = float(after.max() / after.min() - 1.0)

    phi = np.linspace(0, np.pi, 36, endpoint=False)
    scan = fringe_scan(state, phi, amplitudes_i=filt, amplitudes_s=filt)
    lam = fit_fringe(scan, d).parameters["lambda"]

    ok = asymmetric and spread < 5e-3 and lam >= 0.99
    record(9, "Procrustean filtering", ok,
           f"signals {before.round(4).tolist()} -> spread {spread:.1e}, "
           f"post-filter lambda={lam:.4f}")


def test_criterion_10_flux_bound():
    limit = photon_flux_limit(105.0, 1064.0)
    flux_ok = abs(limit.flux - 2.8e13) / 2.8e13 < 0.05
    power_ok = abs(limit.power - 5.2e-6) / 5.2e-6 < 0.05
    record(10, "flux bound", flux_ok and power_ok,
           f"{limit.flux:.3e}/s, {limit.power * 1e6:.2f} uW")


def test_criterion_11_property_suites(paper_1025):
    gamma, gamma_psf = paper_1025
    grid = gamma.grid
    checks = {}

    bins = frequency_bins([-0.1, 0.0, 0.1], [0.04] * 3, grid)
    modes = schmidt_modes(gamma_psf, 6)
    checks["orthonormality"] = all(
        np.max(np.abs(gram_matrix(b) - np.eye(b.d))) < 1e-6 for b in (bins, modes))

    beta, _ = amplitude_svd(gamma_psf, compute_modes=False)
    checks["spectrum_normalized"] = abs(beta.sum() - 1.0) < 1e-6

    basis_s = mirrored(modes)
    recon = sum(np.sqrt(beta[j]) * np.outer(modes.functions[j].real,
                                            basis_s.functions[j].real)
                for j in range(6))
    err2 = np.sum((gamma_psf.values - recon) ** 2) * grid.spacing**2
    checks["reconstruction_bound"] = err2 <= 1.0 - beta[:6].sum() + 1e-6

    periodic = True
    for d in (2, 3, 4):
        phi = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        scan = fringe_scan(max_entangled_state(d, 0.4), phi)
        half = len(phi) // 2
        periodic &= bool(np.allclose(scan.values[:half], scan.values[half:],
                                     atol=1e-9))
    checks["fringe_pi_periodicity"] = periodic

    rng = np.random.default_rng(17)
    ceiling = all(
        bell_i2(*rng.uniform(0, 1, 2)).value <= QUANTUM_BELL_CEILING + 1e-9
        for _ in range(100))
    checks["bell_ceiling"] = ceiling and \
        abs(bell_i2(0.0, 1.0).value - QUANTUM_BELL_CEILING) < 1e-6

    covariance = True
    tb = time_bins([0.0, 45.0], [0.0, 0.0], grid)
    for _ in range(5):
        spec_i = TransferSpec(tb, rng.uniform(0.2, 1, 2), rng.uniform(0, 2 * np.pi, 2))
        spec_s = TransferSpec(tb, rng.uniform(0.2, 1, 2), rng.uniform(0, 2 * np.pi, 2))
        m_i, m_s = transfer_from_coefficients(spec_i), transfer_from_coefficients(spec_s)
        lam = rng.uniform(0.1, 1.0)
        s0 = coincidence_signal(gamma, m_i, m_s)
        s1 = coincidence_signal(gamma, m_i.scaled(lam), m_s.scaled(lam))
        covariance &= bool(np.isclose(s1, lam**4 * s0, rtol=1e-12))
    checks["signal_scale_covariance"] = covariance

    failed = [k for k, v in checks.items() if not v]
    record(11, "property suites", not failed,
           "all green" if not failed else f"failed: {failed}")
