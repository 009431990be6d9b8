"""Exception types raised by the simulation modules."""


class ShaperSimError(Exception):
    """Base class for all simulation errors."""


class GridError(ShaperSimError):
    """Incompatible or invalid spectral grids."""


class ResolutionError(ShaperSimError):
    """A spectral feature is too narrow for the grid to resolve."""


class DomainError(ShaperSimError):
    """Dispersion model evaluated outside its declared validity window."""


class BasisError(ShaperSimError):
    """Basis construction preconditions violated (overlap, separation, degenerate bins)."""


class RankError(ShaperSimError):
    """Requested more Schmidt modes than the amplitude numerically supports."""


class FitError(ShaperSimError):
    """Nonlinear fit failed to converge; message carries diagnostics."""


class ConfigError(ShaperSimError):
    """Scenario configuration is invalid.

    ``path`` holds the offending key path, e.g. ``experiments[2].d``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
