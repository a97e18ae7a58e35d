"""The identity-compared types: they sit on `errors.Frozen` alone, so two
instances built from equal fields are two distinct objects, each equal only
to itself and hashed by identity."""

import pytest

from flagnest.acceptance import CheckResult
from flagnest.classifier import NestingDecision, NestingQuery
from flagnest.constructions import DRecursionReport, FormSpace, TrialReport
from flagnest.dynkin import diagram
from flagnest.errors import Frozen, Value


@pytest.mark.parametrize(
    "cls, args",
    [
        (NestingDecision, (NestingQuery(diagram("A", 3), {1}, {3}), "exists", ())),
        (FormSpace, (2, ((0, 1), (1, 0)), 1)),
        (DRecursionReport, (((1, (2,)),), ((1, 1),))),
        (TrialReport, ("D", 3, 3, None)),
        (CheckResult, ("check", True, "detail")),
    ],
)
def test_identity_types_compare_by_identity(cls, args):
    a, b = cls(*args), cls(*args)
    assert isinstance(a, Frozen) and not isinstance(a, Value)
    assert vars(a) == vars(b)
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2
