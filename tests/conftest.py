"""Shared fixtures: small default-physics grids and amplitudes."""

import numpy as np
import pytest

from biphoton_shaper import (
    CrystalSpec,
    PumpSpec,
    SpectralGrid,
    TaylorMismatch,
    apply_psf,
    build_joint_amplitude,
)
from biphoton_shaper.config import DEFAULT_TAYLOR_A2

PSF_WIDTH = 9.6e-3


def make_crystals(a2=DEFAULT_TAYLOR_A2, length=11.5, poling=9.0):
    disp = TaylorMismatch.quasi_phase_matched(poling, a2=a2)
    return (CrystalSpec(length, poling, disp, role="SPDC"),
            CrystalSpec(length, poling, disp, role="SFG"))


@pytest.fixture(scope="session")
def small_grid():
    return SpectralGrid(n_points=257, omega_max=0.35)


@pytest.fixture(scope="session")
def pump_cw():
    return PumpSpec.from_linewidth_mhz(5.0)


@pytest.fixture(scope="session")
def gamma_small(small_grid, pump_cw):
    spdc, sfg = make_crystals()
    return build_joint_amplitude(small_grid, pump_cw, spdc, sfg)


@pytest.fixture(scope="session")
def gamma_psf_small(gamma_small):
    return apply_psf(gamma_small, PSF_WIDTH)


@pytest.fixture
def svd_calls(monkeypatch):
    """Record the ``compute_uv`` flag of every np.linalg.svd call."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture(scope="session")
def antidiagonal_ridge(small_grid):
    """Amplitude supported exactly on the energy-conservation anti-diagonal."""
    from biphoton_shaper import JointAmplitude

    n = small_grid.n_points
    ax = small_grid.axis()
    values = np.zeros((n, n))
    profile = np.exp(-(ax**2) / (2 * 0.08**2))
    values[np.arange(n), n - 1 - np.arange(n)] = profile
    return JointAmplitude(grid=small_grid, values=values, kind="gamma",
                          metadata={"synthetic": "antidiagonal"})


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "RESULTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
