"""Exception types shared across the package."""


class Aio1Error(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(Aio1Error, ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class ParameterError(Aio1Error, ValueError):
    """An argument value is outside the operation's allowed range."""


class ConfigError(Aio1Error, ValueError):
    """A configuration object is internally inconsistent."""


class InputError(Aio1Error, ValueError):
    """Input data violates a precondition (empty, out of range, mismatched)."""


class NumericError(Aio1Error, ArithmeticError):
    """A computation produced non-finite values."""


class ContractViolation(Aio1Error, ValueError):
    """A caller-supplied structure breaks a documented contract."""


class TrainingDiverged(Aio1Error, ArithmeticError):
    """Training loss became non-finite; the run was aborted."""
