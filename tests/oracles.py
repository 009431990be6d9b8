"""Closed-form reference states and amplitudes that the tests compare against."""

import numpy as np

from biphoton_shaper import JointAmplitude, QuditState, SpectralGrid


def max_entangled_state(d: int, phi0: float = 0.0) -> QuditState:
    """Maximally entangled diagonal state c = diag(exp(i*l*phi0))/sqrt(d)."""
    c = np.diag(np.exp(1j * phi0 * np.arange(d))) / np.sqrt(d)
    return QuditState(coefficients=c)


def double_gaussian_amplitude(grid: SpectralGrid, a: float, b: float) -> JointAmplitude:
    """Analytic test amplitude exp(-(wi+ws)^2/4a^2 - (wi-ws)^2/4b^2)."""
    wi, ws = grid.mesh()
    values = np.exp(-((wi + ws) ** 2) / (4 * a * a) - ((wi - ws) ** 2) / (4 * b * b))
    return JointAmplitude(grid=grid, values=values)


def double_gaussian_oracle(a: float, b: float) -> float:
    """Closed-form Schmidt number of exp(-(wi+ws)^2/4a^2 - (wi-ws)^2/4b^2).

    The mode weights are geometric, beta_n = (1-mu)*mu^n with
    mu = ((a-b)/(a+b))^2, giving K = (a^2 + b^2) / (2ab).
    """
    if a <= 0 or b <= 0:
        raise ValueError("widths must be positive")
    return (a * a + b * b) / (2.0 * a * b)
