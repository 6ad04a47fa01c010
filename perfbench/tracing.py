"""Spans around the calls into each polyode layer, recorded from outside.

``Tracer.install`` replaces each traced function at the module attribute
its callers look up (for example ``polyode.oracle.evaluate_rhs``, which
``verify_instance`` resolves at call time) with a wrapper that records a
span: name, start, end, parent span and op id. Two constructors are
wrapped on their class (``__post_init__``). ``Tracer.uninstall`` puts the
originals back. No library code changes.

Spans live in flat in-memory arrays while the run lasts and are written
out once at the end. A span's self time is its duration minus its
children's durations; each op's root span holds the time no wrapped call
covers (benchmark glue and unwrapped library code), so the self times of
all spans of an op add up to the op's wall time exactly.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "ops.op"

LAYERS = ("polysys", "constraints", "generate", "closedform", "periodic", "oracle", "serialization")


def _terms(args, kwargs, result):
    return len(args[0].coefficients), 0.0


def _points(args, kwargs, result):
    return len(args[1]), 0.0


def _steps(args, kwargs, result):
    return result.meta.accepted, result.meta.rejected


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1]), 0.0


# (module, attribute, span name, amount). The span name's prefix is its
# layer. The same function appears once per module that looks it up.
# ``amount`` maps a call to the two numbers stored with its span: terms,
# points or bytes (and 0), or accepted and rejected steps for ``integrate``.
TARGETS = (
    ("polyode.oracle", "evaluate_rhs", "polysys.evaluate_rhs", _terms),
    ("polyode.periodic", "evaluate_rhs", "polysys.evaluate_rhs", _terms),
    ("polyode.constraints", "evaluate_rhs", "polysys.evaluate_rhs", _terms),
    ("polyode.generate", "enumerate_multi_indices", "polysys.enumerate_multi_indices", None),
    ("polyode.polysys", "PolynomialSystem.__post_init__", "polysys.PolynomialSystem", None),
    ("polyode.generate", "generate_random_instance", "generate.generate_random_instance", None),
    ("polyode.generate", "solve_linear_selection", "constraints.solve_linear_selection", None),
    ("polyode.constraints", "constraint_residual", "constraints.constraint_residual", None),
    ("polyode.constraints", "residual_scale", "constraints.residual_scale", None),
    ("polyode.constraints", "jacobian", "constraints.jacobian", None),
    ("polyode.constraints", "newton_solve_initial_data", "constraints.newton_solve_initial_data", None),
    ("polyode.constraints", "SolvableInstance.__post_init__", "constraints.SolvableInstance", None),
    ("polyode.closedform", "blow_up_time", "closedform.blow_up_time", None),
    ("polyode.oracle", "blow_up_time", "closedform.blow_up_time", None),
    ("polyode.oracle", "eval_closed_form", "closedform.eval_closed_form", None),
    ("polyode.periodic", "detect_period", "periodic.detect_period", None),
    ("polyode.periodic", "eval_periodic_closed_form", "periodic.eval_periodic_closed_form", _points),
    ("polyode.oracle", "eval_periodic_closed_form", "periodic.eval_periodic_closed_form", _points),
    ("polyode.oracle", "eval_periodic_rhs", "periodic.eval_periodic_rhs", None),
    ("polyode.oracle", "verify_instance", "oracle.verify_instance", None),
    ("polyode.oracle", "verify_periodic", "oracle.verify_periodic", None),
    ("polyode.oracle", "integrate", "oracle.integrate", _steps),
    ("polyode.serialization", "write_instance_file", "serialization.write_instance_file", None),
    ("polyode.serialization", "parse_instance_file", "serialization.parse_instance_file", None),
    ("polyode.serialization", "write_trajectory_csv", "serialization.write_trajectory_csv", _bytes_written),
)


def _resolve(module_name: str, attribute: str):
    """(owner object, attribute name) for "name" or "Class.name"."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while an op is open; passes calls straight through
    otherwise (warm-up, untimed checks)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.amount = array("d")
        self.amount2 = array("d")
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.amount.append(0.0)
        self.amount2.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, func, name: str, amount):
        name_id = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._op < 0:
                return func(*args, **kwargs)
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()
            if amount is not None:
                self.amount[idx], self.amount2[idx] = amount(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        self._name_id(ROOT)
        for module_name, attribute, name, amount in TARGETS:
            owner, attr = _resolve(module_name, attribute)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, amount))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def op_scope(self, op_id: int):
        """Root span of one op; spans are recorded only inside it."""
        self._op = op_id
        idx = self._open(self._name_ids[ROOT])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            self._op = -1

    def spans(self) -> dict:
        """All spans as numpy arrays, plus derived duration and self time."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "parent": parent,
            "start": start,
            "end": end,
            "amount": np.frombuffer(self.amount, dtype=float).copy(),
            "amount2": np.frombuffer(self.amount2, dtype=float).copy(),
            "duration": duration,
            "self": duration - children,
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.spans())
