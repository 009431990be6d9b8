"""Unit conversions.

Internally everything spectral is angular frequency in rad/fs and time in fs.
Wavelengths (nm), linewidths (MHz) and lab lengths are converted at the
boundary.
"""

import numpy as np

C_NM_PER_FS = 299.792458        # speed of light
C_NM_PER_S = C_NM_PER_FS * 1e15  # exact in float64
PLANCK_J_S = 6.62607015e-34


def angular_frequency(wavelength_nm):
    """Angular frequency [rad/fs] of light at the given vacuum wavelength."""
    return 2.0 * np.pi * C_NM_PER_FS / wavelength_nm


def linewidth_mhz_to_rad_fs(linewidth_mhz):
    """Convert a frequency linewidth in MHz to angular rad/fs."""
    return 2.0 * np.pi * linewidth_mhz * 1e6 * 1e-15


def photon_energy_j(wavelength_nm):
    """Photon energy [J] at the given vacuum wavelength."""
    return PLANCK_J_S * C_NM_PER_S / wavelength_nm
