"""Shared exception types, and the bases of the immutable value types."""


class UnsupportedInputError(ValueError):
    """Input outside the engine's declared domain (bad diagram, bad shape)."""


class InternalInconsistencyError(RuntimeError):
    """A dichotomy the theory guarantees was violated; indicates a bug."""


class Frozen:
    """Base of the immutable types: __init__ validates its arguments and
    stores every field at once with _store, and no field can be assigned or
    deleted after.  A type on Frozen alone compares by identity.

    Instances keep a __dict__, so copy.deepcopy rebuilds them field by field
    without calling __init__."""

    def _store(self, **fields) -> None:
        self.__dict__.update(fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """Base of the value types.  Each class names the fields it compares in
    _compared, an operator.attrgetter; two instances of one class are equal
    when those fields are, and hash as they do.  Derived fields are left
    out.  A value type whose fields need not be hashable sets
    __hash__ = None, so it is unhashable whatever they hold."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self):
        return hash(self._compared(self))
