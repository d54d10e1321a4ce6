"""Exception types shared across the package."""


class MomrankError(Exception):
    """Base class for all package errors."""


class ShapeError(MomrankError, ValueError):
    """Operand shapes are structurally incompatible."""


class GraphError(MomrankError, ValueError):
    """A computation-graph contract was violated (e.g. non-scalar backward root)."""


class NumericError(MomrankError, ArithmeticError):
    """A value that must be finite is not."""


class DataError(MomrankError, ValueError):
    """Input data violates the panel/CSV contract."""


class ContractError(MomrankError, ValueError):
    """An operation precondition was violated by the caller."""


class ConfigError(MomrankError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


class TrainingError(MomrankError, RuntimeError):
    """Training diverged, or a split has no usable day to train or score on."""
