"""The traced benchmark run (`perfbench/tracer.py`) wraps engine functions
and methods by name, and a method only from its class's own `vars()`.
Every name it lists must resolve, so that moving a wrapped method into a
base class fails here on every Python, not only in the traced run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "modname, path", [t[1:3] for t in tracer.TARGETS], ids=[t[0] for t in tracer.TARGETS]
)
def test_target_resolves(modname, path):
    tracer._resolve(importlib.import_module(f"cocheck.{modname}"), path)


def test_inherited_method_does_not_resolve():
    # `__neg__` lives on the shared base only: the tracer could not wrap it
    # on FormalVector, which is why the wrapped ones are re-bound there.
    linalg = importlib.import_module("cocheck.linalg")
    with pytest.raises(tracer.TraceError):
        tracer._resolve(linalg, "FormalVector.__neg__")
