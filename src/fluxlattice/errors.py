"""Exception hierarchy. ConfigError family maps to CLI exit 2, NumericalError to exit 3."""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed or invalid input data (config files, constructor arguments)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed; message carries diagnostics."""


class IntegrationOverflowError(NumericalError):
    """Edge ODE propagation produced non-finite values (z too far below the
    spectrum for this edge length); rescale the scan range."""


class BracketingError(NumericalError):
    """Eigenvalue search failed to bracket a root; carries the search window."""

    def __init__(self, message: str, window: tuple[float, float]):
        super().__init__(message)
        self.window = window


class ConsistencyError(NumericalError):
    """An internal cross-check failed (indicates an implementation bug)."""


class TorusSizeError(NumericalError):
    """Requested torus diagonalization exceeds the memory guard."""
