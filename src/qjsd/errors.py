"""Exception types raised by the qjsd package."""


class QjsdError(Exception):
    """Base class for all qjsd errors."""


class DimMismatch(QjsdError):
    """Operands have incompatible dimensions."""


class NotUnitary(QjsdError):
    """A matrix expected to be unitary is not, beyond tolerance."""


class NotHermitian(QjsdError):
    """A matrix deviates from its conjugate transpose beyond tolerance."""


class DomainError(QjsdError):
    """An argument lies outside its domain: a scalar out of range, or a matrix that is not PSD."""


class NotPositive(DomainError):
    """A matrix expected to be positive semidefinite has an eigenvalue below -1e-10."""


class RejectionBudgetExceeded(QjsdError):
    """The mixedness filter rejected too many consecutive draws."""


class DegenerateBlock(QjsdError):
    """A parameter block decodes to a matrix with vanishing trace."""


class InvalidConfig(QjsdError, ValueError):
    """A run configuration or argument violates a precondition."""


class ParseError(QjsdError):
    """A state file could not be parsed or fails validation."""
