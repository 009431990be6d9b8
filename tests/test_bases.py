"""Basis construction: frequency bins, time bins, Schmidt modes, Gram checks."""

from pathlib import Path

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
    frequency_bins,
    gram_matrix,
    mirrored,
    schmidt_decompose,
    schmidt_modes,
    time_bins,
)
from biphoton_shaper import bases
from biphoton_shaper.bases import amplitude_svd
from biphoton_shaper.config import load_config, validate_config
from biphoton_shaper.metrics import ENTROPY_EIGENVALUE_FLOOR
from biphoton_shaper.scenarios import ScenarioContext

from conftest import PSF_WIDTH, make_crystals
from oracles import double_gaussian_amplitude, gram_eigh_schmidt, mirror_coupling


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

    def test_overlap_rule_matches_every_pair(self):
        # the pairwise rule |c_j - c_k| <= (w_j + w_k)/2, checked on random
        # sets with touching, nested, coincident and zero-width intervals
        rng = np.random.default_rng(11)
        for trial in range(400):
            d = int(rng.integers(2, 8))
            centers = np.round(rng.uniform(-1.0, 1.0, d), 1)
            widths = np.round(rng.uniform(0.0, 0.4, d), 1) * (trial % 3 > 0)
            clash = {(j, k) for j in range(d) for k in range(j + 1, d)
                     if abs(centers[j] - centers[k]) <= 0.5 * (widths[j] + widths[k])}
            if clash:
                with pytest.raises(BasisError) as err:
                    bases._check_separation(centers, widths, "bin")
                j, k = map(int, str(err.value).split(" overlap")[0].split()[1::2])
                assert (j, k) in clash
            else:
                bases._check_separation(centers, widths, "bin")

    def test_many_bins_fail_fast(self, small_grid):
        # 10^5 disjoint bins: the separation check is not quadratic in d
        d = 100_000
        with pytest.raises(BasisError, match="outside the grid window"):
            frequency_bins((np.arange(d) - (d - 1) / 2.0) * 0.036, np.full(d, 0.024),
                           small_grid)

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

    def test_quick_config_modes_have_exact_parity(self):
        # mode j of a mirror-symmetric amplitude is even for even j, odd for
        # odd j, to the last bit: mirrored() of the basis is +-the basis
        root = Path(__file__).resolve().parents[1]
        ctx = ScenarioContext(validate_config(load_config(root / "configs" / "quick.yaml")))
        for amp in (ctx.gamma, ctx.gamma_psf):
            basis = schmidt_modes(amp, 6)
            signs = (-1.0) ** np.arange(6)
            for j, f in enumerate(basis.functions):
                assert np.array_equal(f[::-1], signs[j] * f)
                if j % 2:
                    assert f[amp.grid.n_points // 2] == 0.0
            assert np.array_equal(mirrored(basis).functions, signs[:, None] * basis.functions)

    def test_quick_config_modes_stop_at_the_rank_floor(self):
        # 86 weights of quick's blurred amplitude reach SCHMIDT_RANK_FLOOR:
        # those modes are kept and readable, the 87th is a RankError
        root = Path(__file__).resolve().parents[1]
        ctx = ScenarioContext(validate_config(load_config(root / "configs" / "quick.yaml")))
        amp = ctx.gamma_psf
        beta, modes = amplitude_svd(amp)
        assert beta[85] >= bases.SCHMIDT_RANK_FLOOR > beta[86]
        assert modes.shape == (86, amp.grid.n_points)
        assert schmidt_modes(amp, 86).d == 86
        with pytest.raises(RankError):
            schmidt_modes(amp, 87)

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
        assert eigensolver_calls.decompositions(small_grid.n_points) == ["eigh"]
        assert eigensolver_calls.svd == 0

    def test_full_request_replaces_values_only(self, small_grid, eigensolver_calls):
        amp = double_gaussian_amplitude(small_grid, 0.012, 0.09)
        amplitude_svd(amp, compute_modes=False)
        beta, modes = amplitude_svd(amp)
        # only the modes with a weight at or above the rank floor are kept
        readable = np.count_nonzero(beta >= bases.SCHMIDT_RANK_FLOOR)
        assert readable < small_grid.n_points
        assert modes.shape == (readable, small_grid.n_points)
        amplitude_svd(amp, compute_modes=False)
        amplitude_svd(amp)
        assert eigensolver_calls.decompositions(small_grid.n_points) == ["eigvalsh", "eigh"]
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


# (grid points, Taylor a1): a nonzero a1 breaks the mirror symmetry, so
# those amplitudes take the coupled route, one block of order n
PAPER_CASES = [(257, 0.0), (1025, 0.0), (257, 2.0), (1025, 2.0)]


@pytest.fixture(scope="module", params=PAPER_CASES, ids=lambda case: "-".join(map(str, case)))
def paper_psf_svd(request):
    """Blurred paper amplitude with its SVD.

    (amp, beta, first 6 left vectors, whether the amplitude is mirror symmetric)
    """
    n, a1 = request.param
    grid = SpectralGrid(n_points=n, omega_max=0.35)
    gamma = build_joint_amplitude(grid, PumpSpec.from_linewidth_mhz(5.0), *make_crystals(a1=a1))
    amp = apply_psf(gamma, PSF_WIDTH)
    u, sv, _ = np.linalg.svd(amp.values * grid.spacing, full_matrices=False)
    return amp, sv**2, u[:, :6], a1 == 0.0


class EvenGrid(SpectralGrid):
    """A grid with an even number of points, which SpectralGrid rejects."""

    def __post_init__(self):
        pass


def top_mode_overlaps(modes, u, grid):
    e = modes[:u.shape[1]] * np.sqrt(grid.spacing)
    return np.abs(np.sum(u.T.conj() * e, axis=1))


class TestEigenproblemMatchesSvd:
    def test_weights(self, paper_psf_svd):
        amp, beta_svd, _, _ = paper_psf_svd
        for compute_modes in (False, True):
            fresh = JointAmplitude(grid=amp.grid, values=amp.values)
            beta, _ = amplitude_svd(fresh, compute_modes)
            assert np.max(np.abs(beta - beta_svd)) <= 1e-14

    def test_top_modes(self, paper_psf_svd):
        amp, _, u, _ = paper_psf_svd
        _, modes = amplitude_svd(amp)
        assert np.all(1.0 - top_mode_overlaps(modes, u, amp.grid) <= 1e-12)

    def test_parity_blocks(self, paper_psf_svd, eigensolver_calls):
        amp, _, _, symmetric = paper_psf_svd
        n = amp.grid.n_points
        coupling = mirror_coupling(amp)
        _, folded_coupling = bases._parity_blocks(amp)
        assert abs(folded_coupling - coupling) <= 1e-15 + 1e-12 * coupling
        amplitude_svd(JointAmplitude(grid=amp.grid, values=amp.values), compute_modes=False)
        if n <= 257:
            # Q from its definition: mirror pairs (i, n-1-i) as even, centre, odd rows
            m = n // 2
            q = np.zeros((n, n))
            q[np.arange(m), np.arange(m)] = q[np.arange(m), n - 1 - np.arange(m)] = 2**-0.5
            q[m, m] = 1.0
            q[m + 1 + np.arange(m), np.arange(m)] = 2**-0.5
            q[m + 1 + np.arange(m), n - 1 - np.arange(m)] = -(2**-0.5)
            folded = q @ (amp.values * amp.grid.spacing) @ q.T
            blocks, _ = bases._parity_blocks(amp)
            # the coupled route solves S = h * Gamma on the samples
            want = ([folded[:m + 1, :m + 1], folded[m + 1:, m + 1:]] if symmetric
                    else [amp.values * amp.grid.spacing])
            assert [b.shape for b in blocks] == [w.shape for w in want]
            assert all(np.max(np.abs(b - w)) <= 1e-15 for b, w in zip(blocks, want))
        if symmetric:
            assert coupling <= bases.PARITY_COUPLING_MAX
            assert eigensolver_calls == [("eigvalsh", (n + 1) // 2), ("eigvalsh", (n - 1) // 2)]
        else:
            assert coupling >= 1e-4
            assert eigensolver_calls == [("eigvalsh", n)]

    def test_entropy(self, paper_psf_svd):
        amp, beta_svd, _, _ = paper_psf_svd
        kept = beta_svd[beta_svd > ENTROPY_EIGENVALUE_FLOOR]
        entropy_svd = -np.sum(kept * np.log2(kept))
        assert abs(schmidt_decompose(amp).entropy - entropy_svd) <= 1e-13

    def test_sign_fixed_modes(self, paper_psf_svd):
        # tied mirror peaks must not let the solver's rounding choose a sign
        amp, _, u, _ = paper_psf_svd
        got = schmidt_modes(amp, 6).functions
        svd_modes = bases._fix_mode_signs(u.T / np.sqrt(amp.grid.spacing))
        want = bases._renormalize(svd_modes, amp.grid)
        column_max = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * column_max)

    def test_even_grid_splits_into_equal_blocks(self, eigensolver_calls):
        # an even grid has no centre sample: both blocks have order n/2
        grid = EvenGrid(n_points=256, omega_max=0.35)
        amp = double_gaussian_amplitude(grid, 0.012, 0.09)
        u, sv, _ = np.linalg.svd(amp.values * grid.spacing)
        beta, modes = amplitude_svd(amp)
        assert eigensolver_calls == [("eigh", 128), ("eigh", 128)]
        assert np.max(np.abs(beta - sv**2)) <= 1e-14
        assert np.all(1.0 - top_mode_overlaps(modes, u[:, :6], grid) <= 1e-12)
        for j, f in enumerate(modes[:6]):
            assert np.array_equal(f[::-1], (-1) ** j * f)


# (grid points, Taylor a1, PSF width, orders of the eigh calls): the
# 257-point blocks, blurred or not, take the dense step at once (2k would
# reach their order) and the blurred 1025-point ones the 80-column sketch; a
# nonzero a1 is solved whole, in one block of order n, whose sketch fails
# and is followed by the dense step; so is each block of the unblurred
# 1025-point amplitude (612 modes)
LOW_RANK_CASES = [(257, 0.0, PSF_WIDTH, [129, 128]),
                  (257, 0.0, 0.0, [129, 128]),
                  (257, 2.0, PSF_WIDTH, [80, 257]),
                  (1025, 0.0, PSF_WIDTH, [80, 80]),
                  (1025, 2.0, PSF_WIDTH, [80, 1025]),
                  (1025, 0.0, 0.0, [80, 513, 80, 512])]


@pytest.fixture(scope="module", params=LOW_RANK_CASES,
                ids=lambda case: "-".join(map(str, case[:3])))
def low_rank_case(request):
    """(amplitude, oracle weights, oracle modes, orders of the eigh calls)"""
    n, a1, width, orders = request.param
    grid = SpectralGrid(n_points=n, omega_max=0.35)
    gamma = build_joint_amplitude(grid, PumpSpec.from_linewidth_mhz(5.0), *make_crystals(a1=a1))
    amp = apply_psf(gamma, width)
    return (amp, *gram_eigh_schmidt(amp), orders)


class TestLowRankSolve:
    """The Schmidt solve of a mode request against the dense Gram-matrix oracle."""

    def test_weights(self, low_rank_case):
        amp, beta_oracle, _, _ = low_rank_case
        beta, _ = amplitude_svd(JointAmplitude(grid=amp.grid, values=amp.values))
        assert np.max(np.abs(beta - beta_oracle)) <= 1e-15

    def test_leading_modes_and_rank(self, low_rank_case):
        amp, beta_oracle, modes_oracle, _ = low_rank_case
        _, modes = amplitude_svd(JointAmplitude(grid=amp.grid, values=amp.values))
        assert len(modes) == np.count_nonzero(beta_oracle >= bases.SCHMIDT_RANK_FLOOR)
        unit = modes[:6] * np.sqrt(amp.grid.spacing)
        overlaps = np.abs(np.sum(modes_oracle[:6].conj() * unit, axis=1))
        assert np.all(overlaps >= 1.0 - 1e-12)

    def test_same_bytes_on_every_call(self, low_rank_case):
        amp, _, _, _ = low_rank_case
        first, second = (amplitude_svd(JointAmplitude(grid=amp.grid, values=amp.values))
                         for _ in range(2))
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    def test_route(self, low_rank_case, eigensolver_calls):
        amp, _, _, orders = low_rank_case
        amplitude_svd(JointAmplitude(grid=amp.grid, values=amp.values))
        assert eigensolver_calls == [("eigh", order) for order in orders]


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
