import copy
from types import SimpleNamespace

import pytest


def _check_value_type(cls, args, variants, hashable=True):
    """cls(*args) is an immutable value: instances built from equal fields
    are equal (with equal hashes, or unhashable alike), each variant (the
    same arguments with one field changed) is unequal, no other type
    compares equal, no field can be assigned or deleted, and a deep copy is
    equal to the original."""
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for variant in variants:
        other = cls(*variant)
        assert a != other and not a == other, variant
    assert a != args and a != SimpleNamespace(**vars(a))
    for name in (*vars(a), "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    clone = copy.deepcopy(a)
    assert clone is not a and clone == a and vars(clone) == vars(a)


@pytest.fixture
def value_type():
    return _check_value_type
