"""Exception types shared across the package."""


class AdiapowerError(Exception):
    """Base class for all library errors."""


class NotHermitianError(AdiapowerError):
    pass


class NotUnitaryError(AdiapowerError):
    pass


class DimensionMismatchError(AdiapowerError):
    pass


class DegeneracyMismatchError(AdiapowerError):
    pass


class NotConnectibleError(AdiapowerError):
    """The endpoints' degeneracy vectors differ; ``decision`` says how."""

    def __init__(self, message, decision=None):
        super().__init__(message)
        self.decision = decision


class DegeneracyError(AdiapowerError):
    """An eigenvalue gap collapsed below the clustering threshold."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NotAnEigenstateError(AdiapowerError):
    pass


class NotClosedError(AdiapowerError):
    pass


class ConstraintViolatedError(AdiapowerError):
    pass


class ZeroCouplingError(AdiapowerError):
    pass
