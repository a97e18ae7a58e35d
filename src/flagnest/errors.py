"""Shared exception types."""


class UnsupportedInputError(ValueError):
    """Input outside the engine's declared domain (bad diagram, bad shape)."""


class InternalInconsistencyError(RuntimeError):
    """A dichotomy the theory guarantees was violated; indicates a bug."""
