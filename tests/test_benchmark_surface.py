"""The benchmark harness's view of the library: every name its tracer wraps
resolves, one op of each cell of the gated workloads passes under the
tracer, and so does ``large_system``'s warm-up op. A renamed function or
option then fails here rather than in a benchmark run. The harness modules are loaded from ``perfbench/`` as they
are; nothing there is written."""

import importlib.util
import sys
from pathlib import Path

import pytest

from polyode import constraints, oracle, periodic

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


def test_large_system_warmup_op_passes(tmp_path):
    # The only op that calls the Newton solve (with tol=), the Jacobian and
    # density-0.1 generation: (8, 4) at density 0.1.
    workload = workloads.WORKLOADS["large_system"](seed=1, workdir=str(tmp_path))
    spec = workload.warmup_spec()
    assert (spec.n, spec.m, spec.density) == (8, 4, 0.1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, result = workloads.run_op(workload, spec, tracer.op_scope(0))
    finally:
        tracer.uninstall()
    assert not result.failed, result
    spans = tracer.spans()
    assert "constraints.newton_solve_initial_data" in set(spans["names"][spans["name"]])


def test_harness_checks_the_library_bounds():
    # The harness restates these bounds; each must equal the library's one
    # name, so a drift fails here until the harness imports them.
    assert workloads.MAX_DEVIATION == oracle.MAX_DEVIATION
    assert workloads.MAX_CLOSURE == periodic.CLOSURE_TOL
    assert workloads.MAX_RESIDUAL == constraints.RESIDUAL_TOL
    assert workloads.NEWTON_TOL == constraints.NEWTON_TOL
