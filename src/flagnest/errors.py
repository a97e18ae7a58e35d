"""Shared exception types, and the base of the immutable value types."""


class UnsupportedInputError(ValueError):
    """Input outside the engine's declared domain (bad diagram, bad shape)."""


class InternalInconsistencyError(RuntimeError):
    """A dichotomy the theory guarantees was violated; indicates a bug."""


class Frozen:
    """Base of the value types: __init__ stores each field once with
    object.__setattr__, and no field can be assigned or deleted after.

    Instances keep a __dict__, so copy.deepcopy rebuilds them field by field
    without calling __init__.  A subclass that is compared or hashed writes
    __eq__ and __hash__ over its own field tuple; one that does not compares
    by identity."""

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
