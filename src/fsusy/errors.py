"""Exception types shared across the package."""


class FsusyError(ValueError):
    """Base class for construction and verification errors."""


class InvalidOrderError(FsusyError):
    """Raised when the cyclic order k is below 2."""


class DegenerateSpaceError(FsusyError):
    """Raised when truncation leaves fewer than two levels per sector."""


class InvalidGradingError(FsusyError):
    """Raised when a grading operator is not unitary and cyclic."""


class RepresentationError(FsusyError):
    """Raised when structure-function values admit no Hilbert-space ladder."""


class WindowTooSmallError(FsusyError):
    """Raised when the truncation margin leaves no states to check."""


class DomainError(FsusyError):
    """Raised when a table-family spec lacks a required argument."""


class ConfigError(FsusyError):
    """Raised for invalid run configuration or malformed input files."""


class FactorizationError(FsusyError):
    """Raised when a partner energy needed under a square root is negative."""

    def __init__(self, s: int, n: int, value: float):
        super().__init__(
            f"partner energy H_{s}({n}) = {value:.6g} is negative; "
            "the shift operators for this sector cannot be factorized"
        )
        self.s = s
        self.n = n
        self.value = value
