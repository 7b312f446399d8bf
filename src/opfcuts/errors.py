"""Exception hierarchy shared across the package."""


class OpfCutsError(Exception):
    """Base class for all package errors."""


class CaseParseError(OpfCutsError):
    """Raised when a MATPOWER case file cannot be parsed."""


class CaseValidationError(OpfCutsError):
    """Raised when parsed case data violates structural invariants."""


class SingularBranchError(OpfCutsError):
    """Raised for a branch with zero series impedance."""


class ModelError(OpfCutsError):
    """Raised on internal relaxation-model invariant violations."""


class LpBackendError(OpfCutsError):
    """Raised when the LP backend fails."""


class CutFileError(OpfCutsError):
    """Raised on malformed warm-start cut files."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
