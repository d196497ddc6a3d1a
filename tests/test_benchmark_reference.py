"""Every pinned operation of the benchmark, checked against its reference.

The benchmark in ``perfbench/`` checks each output it times against
``perfbench/reference.json``; running the same check here makes a drift in
any pinned output (a representative, a dimension, a verdict, an exit code)
fail the test suite as well.  Nothing under ``perfbench/`` is written.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import nilpoisson
import nilpoisson.cli  # noqa: F401  (the package does not import it)

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "workloads.py")
tracer = _load("perfbench_tracer", "tracer.py")

_OPS = [(name, op) for name, w in workloads.WORKLOADS.items() for op in w.ops]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("name, op", _OPS, ids=[f"{n}: {op.key}" for n, op in _OPS])
def test_pinned_operation_matches_reference(name, op, reference):
    code, text = workloads.run_op(op, nilpoisson)
    assert workloads.mismatch(op, workloads.extract(op, code, text), reference) is None


_TRACED = sorted({name for layers in (tracer.SPAN_LAYERS, tracer.COUNT_LAYERS)
                  for names, _ in layers.values() for name in names})


@pytest.mark.parametrize("name", _TRACED)
def test_traced_name_exists(name):
    # a traced name that is gone reads null in a traced benchmark run
    assert tracer.resolve(name) is not None
