"""Fractional supersymmetric quantum mechanics on truncated graded Fock spaces.

Builds the cyclic ladder representation of a generalized oscillator algebra,
the order-k supercharge doublet it generates, the ordinary SUSY replicas
hidden inside it, and a tensor-product realization from k-fermions, then
verifies every defining identity numerically and reports the residuals.
"""

from .errors import (
    ConfigError,
    DegenerateSpaceError,
    DomainError,
    FactorizationError,
    FsusyError,
    InvalidOrderError,
    RepresentationError,
    WindowTooSmallError,
)
from .fock import StructureSpec
from .report import PACKAGE_VERSION as __version__, ReportEntry, VerificationReport
from .suite import (
    GradedSystem,
    RunConfig,
    build_system,
    dump_operators,
    emit_spectrum,
    run_verification_suite,
)
from .system import partner_value

__all__ = [
    "ConfigError",
    "DegenerateSpaceError",
    "DomainError",
    "FactorizationError",
    "FsusyError",
    "GradedSystem",
    "InvalidOrderError",
    "ReportEntry",
    "RepresentationError",
    "RunConfig",
    "StructureSpec",
    "VerificationReport",
    "WindowTooSmallError",
    "build_system",
    "dump_operators",
    "emit_spectrum",
    "partner_value",
    "run_verification_suite",
]
