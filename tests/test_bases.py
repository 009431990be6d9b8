"""Basis construction: frequency bins, time bins, Schmidt modes, Gram checks."""

import numpy as np
import pytest

from biphoton_shaper import (
    BasisError,
    JointAmplitude,
    PumpSpec,
    RankError,
    ResolutionError,
    SpectralGrid,
    apply_psf,
    build_joint_amplitude,
    double_gaussian_amplitude,
    frequency_bins,
    gram_matrix,
    mirrored,
    schmidt_decompose,
    schmidt_modes,
    time_bins,
)
from biphoton_shaper import bases
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.metrics import ENTROPY_EIGENVALUE_FLOOR

from conftest import PSF_WIDTH, make_crystals


def max_offdiag(g):
    return np.max(np.abs(g - np.eye(g.shape[0])))


class TestFrequencyBins:
    def test_two_disjoint_bins_gram_identity(self, small_grid):
        basis = frequency_bins([-0.1, 0.1], [0.05, 0.05], small_grid)
        assert max_offdiag(gram_matrix(basis)) < 1e-12

    def test_unit_norm(self, small_grid):
        basis = frequency_bins([0.0], [0.0423], small_grid)
        g = gram_matrix(basis)
        assert np.isclose(g[0, 0].real, 1.0, atol=1e-12)
        assert bases.max_offdiag(basis) == 0.0

    def test_overlap_rejected(self, small_grid):
        with pytest.raises(BasisError):
            frequency_bins([0.0, 0.03], [0.05, 0.05], small_grid)

    def test_subresolution_bin_rejected(self, small_grid):
        with pytest.raises(ResolutionError):
            frequency_bins([0.0], [small_grid.spacing * 1.5], small_grid)

    def test_bin_outside_window_rejected(self, small_grid):
        with pytest.raises(BasisError):
            frequency_bins([0.34], [0.05], small_grid)

    def test_rect_height(self, small_grid):
        width = 0.08
        basis = frequency_bins([0.0], [width], small_grid)
        peak = np.abs(basis.functions[0]).max()
        assert np.isclose(peak, 1 / np.sqrt(width), rtol=5e-3)


class TestTimeBins:
    def test_zero_width_phasor_gram_offdiag(self, small_grid):
        # closed-form oracle: the overlap of two unit phasors on a window of
        # width W is sinc(dt * W / 2)
        t1 = 50.0
        basis = time_bins([0.0, t1], [0.0, 0.0], small_grid)
        g = gram_matrix(basis)
        window = 2 * small_grid.omega_max
        oracle = np.sinc(t1 * window / 2 / np.pi)
        assert abs(abs(g[0, 1]) - abs(oracle)) < 1e-3
        assert abs(g[0, 1]) <= 0.06
        assert bases.max_offdiag(basis) == pytest.approx(abs(g[0, 1]))

    def test_zero_width_functions_are_phasors(self, small_grid):
        t = 20.0
        basis = time_bins([0.0, t], [0.0, 0.0], small_grid)
        ax = small_grid.axis()
        f0, f1 = basis.functions
        assert np.allclose(f0, f0[0])  # constant
        ratio = f1 / f1[len(ax) // 2]
        assert np.allclose(ratio, np.exp(-1j * ax * t), atol=1e-12)

    def test_closed_form_value_at_zero(self, small_grid):
        dt = 30.0
        basis = time_bins([0.0], [dt], small_grid)
        ax = small_grid.axis()
        i0 = small_grid.n_points // 2
        closed = np.sqrt(dt / (2 * np.pi)) * np.sinc(ax * dt / 2 / np.pi)
        # sampled closed form, boosted by the norm truncated at the window
        truncated_norm = np.sqrt(np.sum(closed**2 * small_grid.weights()))
        assert np.isclose(abs(basis.functions[0][i0]),
                          np.sqrt(dt / (2 * np.pi)) / truncated_norm, rtol=1e-12)
        assert abs(basis.functions[0][i0]) == pytest.approx(np.sqrt(dt / (2 * np.pi)),
                                                            rel=0.05)

    def test_separation_precondition(self, small_grid):
        with pytest.raises(BasisError):
            time_bins([0.0, 0.0], [0.0, 0.0], small_grid)
        with pytest.raises(BasisError):
            time_bins([0.0, 10.0], [15.0, 15.0], small_grid)

    def test_duality_with_quadrature_oracle(self, small_grid):
        # Fourier transform of the rectangular time bin, done by quadrature,
        # matches the closed-form frequency samples on the sinc main lobe
        t0, dt = 12.0, 25.0
        ax = small_grid.axis()
        ts = np.linspace(t0 - dt / 2, t0 + dt / 2, 4001)
        rect = np.sqrt(2 * np.pi / dt)
        oracle = np.array([
            np.trapezoid(rect * np.exp(-1j * w * ts), ts) / (2 * np.pi) for w in ax
        ])
        closed = np.sqrt(dt / (2 * np.pi)) * np.exp(-1j * ax * t0) \
            * np.sinc(ax * dt / 2 / np.pi)
        lobe = np.abs(ax) < 2 * np.pi / dt * 0.9
        rel = np.abs(oracle[lobe] - closed[lobe]) / np.abs(closed[lobe])
        assert rel.max() < 1e-4


class TestSchmidtModes:
    def test_separable_gaussian_single_mode(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.05, 0.05)
        beta, _ = amplitude_svd(amp, compute_modes=False)
        assert np.isclose(beta[0], 1.0, atol=1e-10)
        assert beta[1] < 1e-10

    def test_rank_error(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.05, 0.05)
        with pytest.raises(RankError):
            schmidt_modes(amp, 10)

    def test_weights_normalized_and_sorted(self, gamma_psf_small):
        beta, _ = amplitude_svd(gamma_psf_small, compute_modes=False)
        assert abs(beta.sum() - 1.0) < 1e-6
        assert np.all(np.diff(beta) <= 1e-15)

    def test_orthonormal(self, gamma_psf_small):
        basis = schmidt_modes(gamma_psf_small, 6)
        assert max_offdiag(gram_matrix(basis)) < 1e-6

    def test_sign_convention(self, gamma_psf_small):
        basis = schmidt_modes(gamma_psf_small, 4)
        for f in basis.functions:
            peak = f[np.argmax(np.abs(f))]
            assert np.isreal(peak) and peak.real > 0

    def test_tied_peaks_take_the_phase_of_the_lowest_omega_one(self):
        # the mirror peaks of an odd mode tie to rounding: the lower one decides
        tied = np.array([[0.0, -1.0, 0.0, 1.0 + 1e-15, 0.0]])
        assert np.array_equal(bases._fix_mode_signs(tied), -tied)
        distinct = np.array([[0.0, -1.0, 0.0, 1.0 + 1e-6, 0.0]])
        assert np.array_equal(bases._fix_mode_signs(distinct), distinct)

    def test_mode_sign_changes(self, gamma_psf_small):
        # mode j oscillates with j sign changes over its support
        basis = schmidt_modes(gamma_psf_small, 4)
        for j, f in enumerate(basis.functions):
            f = np.real(f)
            support = np.abs(f) > 0.02 * np.abs(f).max()
            signs = np.sign(f[support])
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert changes == j

    def test_double_gaussian_geometric_spectrum(self, small_grid):
        a, b = 0.012, 0.09
        amp = double_gaussian_amplitude(small_grid, a, b)
        beta, _ = amplitude_svd(amp, compute_modes=False)
        mu = ((a - b) / (a + b)) ** 2
        ratios = beta[1:8] / beta[:7]
        assert np.allclose(ratios, mu, rtol=1e-3)

    def test_schmidt_number_converges_with_resolution(self):
        # doubling the grid changes K by < 0.5% and matches the closed form
        a, b = 0.012, 0.09
        want = (a * a + b * b) / (2 * a * b)
        ks = []
        for n in (513, 1025):
            grid = SpectralGrid(n_points=n, omega_max=0.35)
            beta, _ = amplitude_svd(double_gaussian_amplitude(grid, a, b),
                                    compute_modes=False)
            ks.append(1.0 / np.sum(beta**2))
        assert abs(ks[1] - ks[0]) / ks[0] < 5e-3
        assert abs(ks[1] - want) / want < 5e-3

    def test_reconstruction_bound(self, gamma_psf_small):
        # truncated expansion reproduces the amplitude up to the discarded weight
        d = 6
        basis_i = schmidt_modes(gamma_psf_small, d)
        basis_s = mirrored(basis_i)
        beta = amplitude_svd(gamma_psf_small)[0][:d]
        h = gamma_psf_small.grid.spacing
        recon = np.zeros_like(gamma_psf_small.values, dtype=float)
        for j in range(d):
            recon += np.sqrt(beta[j]) * np.outer(basis_i.functions[j].real,
                                                 basis_s.functions[j].real)
        err2 = np.sum(np.abs(gamma_psf_small.values - recon) ** 2) * h * h
        assert err2 <= 1.0 - beta.sum() + 1e-6

    def test_reconstruction_single_set_main_diagonal_ridge(self, small_grid):
        # for a main-diagonal ridge the same mode set serves both photons
        amp = double_gaussian_amplitude(small_grid, 0.09, 0.012)
        basis = schmidt_modes(amp, 5)
        beta = amplitude_svd(amp)[0][:5]
        h = small_grid.spacing
        recon = np.zeros_like(amp.values)
        for j in range(5):
            f = basis.functions[j].real
            recon += np.sqrt(beta[j]) * np.outer(f, f)
        err2 = np.sum((amp.values - recon) ** 2) * h * h
        assert err2 <= 1.0 - beta.sum() + 1e-6


class TestSchmidtCache:
    def test_values_request_reuses_full_decomposition(self, small_grid, eigensolver_calls):
        amp = double_gaussian_amplitude(small_grid, 0.012, 0.09)
        beta, modes = amplitude_svd(amp)
        values_beta, no_modes = amplitude_svd(amp, compute_modes=False)
        assert values_beta is beta and no_modes is None
        assert amplitude_svd(amp)[1] is modes
        assert eigensolver_calls == [True]
        assert eigensolver_calls.svd == 0

    def test_full_request_replaces_values_only(self, small_grid, eigensolver_calls):
        amp = double_gaussian_amplitude(small_grid, 0.012, 0.09)
        amplitude_svd(amp, compute_modes=False)
        _, modes = amplitude_svd(amp)
        assert modes.shape == (small_grid.n_points, small_grid.n_points)
        amplitude_svd(amp, compute_modes=False)
        amplitude_svd(amp)
        assert eigensolver_calls == [False, True]
        assert eigensolver_calls.svd == 0

    def test_cached_beta_bit_identical_to_fresh_decomposition(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.012, 0.09)
        for compute_modes in (False, True):
            first = amplitude_svd(amp, compute_modes)
            cached = amplitude_svd(amp, compute_modes)
            copy = double_gaussian_amplitude(small_grid, 0.012, 0.09)
            assert np.array_equal(copy.values, amp.values)
            fresh = amplitude_svd(copy, compute_modes)
            assert cached[0] is first[0]
            assert np.array_equal(cached[0], fresh[0])
            if compute_modes:
                assert np.array_equal(cached[1], fresh[1])

    def test_amplitude_and_cached_data_are_read_only(self, small_grid):
        amp = double_gaussian_amplitude(small_grid, 0.012, 0.09)
        beta, modes = amplitude_svd(amp)
        for array in (amp.values, beta, modes):
            with pytest.raises(ValueError):
                array[0, ...] = 0.0


@pytest.fixture(scope="module", params=[257, 1025])
def paper_psf_svd(request):
    """Blurred paper amplitude with its SVD: (amp, beta, first 6 left vectors)."""
    grid = SpectralGrid(n_points=request.param, omega_max=0.35)
    gamma = build_joint_amplitude(grid, PumpSpec.from_linewidth_mhz(5.0), *make_crystals())
    amp = apply_psf(gamma, PSF_WIDTH)
    u, sv, _ = np.linalg.svd(amp.values * grid.spacing, full_matrices=False)
    return amp, sv**2, u[:, :6]


class TestEigenproblemMatchesSvd:
    def test_weights(self, paper_psf_svd):
        amp, beta_svd, _ = paper_psf_svd
        for compute_modes in (False, True):
            fresh = JointAmplitude(grid=amp.grid, values=amp.values)
            beta, _ = amplitude_svd(fresh, compute_modes)
            assert np.max(np.abs(beta - beta_svd)) <= 1e-14

    def test_top_modes(self, paper_psf_svd):
        amp, _, u = paper_psf_svd
        _, modes = amplitude_svd(amp)
        e = modes[:6] * np.sqrt(amp.grid.spacing)
        overlaps = np.abs(np.sum(u.T.conj() * e, axis=1))
        assert np.all(1.0 - overlaps <= 1e-12)

    def test_entropy(self, paper_psf_svd):
        amp, beta_svd, _ = paper_psf_svd
        kept = beta_svd[beta_svd > ENTROPY_EIGENVALUE_FLOOR]
        entropy_svd = -np.sum(kept * np.log2(kept))
        assert abs(schmidt_decompose(amp).entropy - entropy_svd) <= 1e-13

    def test_sign_fixed_modes(self, paper_psf_svd):
        # tied mirror peaks must not let the solver's rounding choose a sign
        amp, _, u = paper_psf_svd
        got = schmidt_modes(amp, 6).functions
        svd_modes = bases._fix_mode_signs(u.T / np.sqrt(amp.grid.spacing))
        want = bases._renormalize(svd_modes, amp.grid)
        column_max = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * column_max)


class TestMirrored:
    def test_involution(self, small_grid):
        basis = frequency_bins([-0.1, 0.05], [0.04, 0.04], small_grid)
        twice = mirrored(mirrored(basis))
        assert np.array_equal(twice.functions, basis.functions)

    def test_centers_negated(self, small_grid):
        basis = frequency_bins([-0.1, 0.05], [0.04, 0.04], small_grid)
        m = mirrored(basis)
        negated = frequency_bins([0.1, -0.05], [0.04, 0.04], small_grid)
        assert np.allclose(m.functions, negated.functions, atol=1e-12)

    def test_mirror_moves_bin_support(self, small_grid):
        basis = frequency_bins([0.1], [0.04], small_grid)
        m = mirrored(basis)
        ax = small_grid.axis()
        assert np.abs(m.functions[0][np.abs(ax + 0.1) < 0.015]).min() > 0
        assert np.abs(m.functions[0][np.abs(ax - 0.1) < 0.015]).max() == 0


class TestGramMatrix:
    def test_matches_manual_trapezoid(self, small_grid):
        basis = time_bins([0.0, 40.0], [10.0, 10.0], small_grid)
        w = small_grid.weights()
        manual = np.einsum("k,jk,lk->jl", w, basis.functions.conj(), basis.functions)
        assert np.allclose(gram_matrix(basis), manual, atol=1e-14)
