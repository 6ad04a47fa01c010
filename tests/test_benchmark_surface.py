"""The benchmark harness's view of the library: every name its tracer wraps
resolves, and one op of each cell of the gated workloads passes under the
tracer. A renamed function or option then fails here rather than in a
benchmark run. The harness modules are loaded from ``perfbench/`` as they
are; nothing there is written."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.mark.parametrize("name", ["proposition", "periodic"])
def test_one_traced_op_per_cell_passes(tmp_path, name):
    workload = workloads.WORKLOADS[name](seed=1, workdir=str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index in range(len(workload.cells)):
            _, result = workloads.run_op(workload, workload.spec(index), tracer.op_scope(index))
            assert not result.failed, (index, result)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    traced = set(spans["names"][spans["name"]])
    assert "constraints.solve_linear_selection" in traced
    assert "oracle.integrate" in traced
