"""Exception types, and the dense-matrix size limit, shared across the
package."""

# Above this many sites no dense N x N matrix is built.  A complex one
# (H, LAPACK's copy of it, the eigenvectors) takes 16 N^2 bytes, 1 GiB at
# 8192 sites, where zgeev would take about an hour on two cores (1 s at
# 509 sites, times (8192/509)^3); 2e5 sites would need 596 GiB apiece.
# It is defined here so that scenario validation reads it without numpy.
DENSE_MAX_SITES = 8192


class NhzmError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(NhzmError, ValueError):
    """A lattice specification violates a structural invariant."""


class EigensolverError(NhzmError, RuntimeError):
    """Dense eigendecomposition failed; carries the offending matrix."""

    def __init__(self, message, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class DomainError(NhzmError, ValueError):
    """An operation was called outside its domain of validity."""


class FitError(NhzmError, RuntimeError):
    """Not enough (or unusable) data for a requested fit."""


class DegeneratePerturbationError(NhzmError, RuntimeError):
    """Perturbation theory hit a (near-)degenerate unperturbed spectrum."""


class ModeMatchingError(NhzmError, RuntimeError):
    """Could not match modes across decompositions (overlap too small)."""


class PropagationOverflowError(NhzmError, OverflowError):
    """Time evolution overflowed; re-run with per-period renormalization."""


class EpSetupError(NhzmError, ValueError):
    """Inconsistent exceptional-point data (eigenvalue/Jordan chain)."""
