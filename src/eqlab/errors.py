"""Exception types shared across the package."""


class EqlabError(Exception):
    """Base class for all package errors."""


class NotHermitianError(EqlabError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergenceError(EqlabError):
    """The LAPACK eigensolver did not converge (numpy raised LinAlgError)."""


class DimensionMismatchError(EqlabError):
    """Operands have incompatible dimensions."""


class DimensionOverflowError(EqlabError):
    """A requested dimension exceeds the configured maximum."""


class DegenerateHamiltonianError(EqlabError):
    """Operation requires non-degenerate energy gaps but the check failed."""


class ConfigInvalidError(EqlabError):
    """Experiment configuration failed validation.

    The message names the offending field.
    """
