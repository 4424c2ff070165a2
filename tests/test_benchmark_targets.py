"""The functions perfbench/tracer.py wraps by name still exist in the package.

The tracer looks each ``(module, attribute)`` of its ``TARGETS`` up with a
plain ``getattr``, so a rename or deletion under ``src/`` would only show
when ``perfbench/run.py --trace 1`` fails.  This reads the table from the
tracer's source file and leaves perfbench untouched.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module,attr", traced_targets())
def test_traced_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"mqcnmr.{module}"), attr))
