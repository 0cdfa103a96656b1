"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class LineageError(RuntimeError):
    """A tensor was not recorded on the tape it is being differentiated against."""


class ConfigError(ValueError):
    """An experiment or objective configuration is invalid."""


class DegenerateEmbeddingError(ValueError):
    """A surrogate embedding has zero norm, so a cosine distance is undefined."""


class InvariantError(RuntimeError):
    """A guarantee the attack or harness promises was found broken at run time."""
