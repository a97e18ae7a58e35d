"""The benchmark tracer's targets still name code in the package.

`bench/tracer.py` wraps functions by module and attribute name and only
records a name it cannot find, so a renamed or deleted target would drop its
span silently.  The tracer imports only the standard library, so it is
loaded here by path, without the benchmark's own imports.
"""

import importlib
import importlib.util
from pathlib import Path

from flagnest import acceptance

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("flagnest_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    tracer = _load_tracer()
    missing = []
    for module, attr in tracer.TARGETS:
        owner = importlib.import_module(f"flagnest.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_traced_check_is_registered():
    tracer = _load_tracer()
    registered = {check.__name__ for check in acceptance.CHECKS}
    assert set(tracer.ACCEPTANCE_CHECKS) <= registered
