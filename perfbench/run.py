"""polyode benchmark: one workload, one process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the ops with a span around every call into a polyode
layer and reports the per-layer metrics (see README.md). Every op is
checked; failed ops are counted, never dropped. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A full
record with provenance and sample counts goes to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported here or in a child process.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("proposition", "large_system", "periodic")
# Printed and recorded but not in BENCHMARK.json. failed_frac: admission
# makes it 0 on the gated workloads, and the result line carries it as
# failed / attempted. The wall-time figures: they follow the host's drift.
UNDECLARED_UNITS = {
    "failed_frac": "fraction",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ref_ms": "ms",
}
SETUP_PROBES = 7
# The traced run's count metrics come from this fixed prefix of ops, so they
# repeat exactly for one seed whatever the machine's speed: ten passes over
# the proposition cells, one pass over the large_system cells, one pass over
# every periodic (cell, omega, K cap) combination.
TRACE_PREFIX_OPS = {"proposition": 60, "large_system": 4, "periodic": 45}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_declared_metrics() -> dict:
    """Metric name -> unit for each mode, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path}: {exc}")
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Fresh-interpreter set-up times: ``import polyode.cli`` plus building
    the workload's inputs, measured in ``SETUP_PROBES`` child processes."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), SRC],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never pick up a repository above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "polyode")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(args, specs, results) -> dict:
    cells = Counter(spec.cell for spec in specs)
    record = {
        "git_revision": git_revision(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_caps": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_cell": dict(sorted(cells.items())),
        "rejected_draws": rejected_draws(specs),
    }
    if args.workload == "periodic":
        record["ops_per_omega"] = dict(sorted(Counter(str(s.omega) for s in specs).items()))
        record["ops_per_k_cap"] = dict(sorted(Counter(str(s.k_cap) for s in specs).items()))
        record["ops_per_winding_number"] = dict(
            sorted(Counter(str(r.winding) for r in results if r.winding is not None).items())
        )
    return record


def rejected_draws(specs) -> dict:
    """Instance draws the workload's admission skipped, per reason."""
    from workloads import REJECTION_REASONS

    totals = np.array([spec.rejected for spec in specs], dtype=int).reshape(-1, len(REJECTION_REASONS))
    return dict(zip(REJECTION_REASONS, totals.sum(axis=0).tolist()))


def failure_counts(results, failure_keys) -> dict:
    counts = dict.fromkeys(failure_keys, 0)
    for result in results:
        for key in result.failures:
            counts[key] = counts.get(key, 0) + 1
    return counts


# The host's speed drifts by up to 1.5x over tens of seconds, with CPU time
# equal to wall time and no steal, so wall-time figures of 50 s runs spread
# 0.10-0.27 (quartile distance / median) across runs. A fixed reference loop
# is therefore timed between ops, and the gated op times are in units of it
# ("ref"): each op's wall time over the mean of the two loop times beside it.
#
# Fixed inputs of the reference loop:
REF_MATRIX = 4.0 * np.eye(6) + np.arange(36.0).reshape(6, 6) / 36.0
REF_VECTOR = np.arange(6.0)
REF_ROWS = np.linspace(-1.0, 1.0, 256).reshape(64, 4)
REF_DOC = {"rows": REF_ROWS[:16].tolist()}


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the kinds of work an op does, none of
    it polyode code: small-array numpy arithmetic, small linear solves, float
    formatting, JSON encoding and a pure-Python loop (about 1.6 ms).

    Its code and data footprint is broad on purpose: cache and memory
    contention from other tenants slows it as it slows an op. A tight integer
    loop alone missed most of that (relative p50 spread 0.11 against 0.03).
    """
    t0 = time.perf_counter()
    y, one = np.zeros(12), np.ones(12)
    for _ in range(80):
        y = np.concatenate([0.5 * y[6:], y[:6] + one[:6]])
    for _ in range(20):
        np.linalg.solve(REF_MATRIX, REF_VECTOR)
    "\n".join(",".join(repr(float(v)) for v in row) for row in REF_ROWS)
    json.dumps(REF_DOC)
    total = 0
    for i in range(2000):
        total += i * i
    return time.perf_counter() - t0


def run_loop(workload, run_op, seconds: float):
    """Closed loop: the next op starts when the previous one is done. The
    reference loop runs before the first op and after every op."""
    specs, latencies, results = [], [], []
    refs = [reference_loop()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        spec = workload.spec(len(specs))
        elapsed, result = run_op(workload, spec)
        refs.append(reference_loop())
        specs.append(spec)
        latencies.append(elapsed)
        results.append(result)
    return specs, latencies, results, refs


def end_to_end(setup, latencies, results, refs) -> dict:
    attempted = len(latencies)
    failed = sum(r.failed for r in results)
    refs = np.asarray(refs)
    relative = np.asarray(latencies) / (0.5 * (refs[:-1] + refs[1:]))
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        # Run-level: ops per 1000 mean reference-loop times.
        "ops_per_kref": (1e3 * attempted * refs.mean() / sum(latencies), attempted),
        "latency_p50_ref": (float(np.median(relative)), attempted),
        "latency_p90_ref": (float(np.percentile(relative, 90)), attempted),
        "ops_per_s": (attempted / sum(latencies), attempted),
        "latency_p50_ms": (1e3 * statistics.median(latencies), attempted),
        "latency_p90_ms": (1e3 * float(np.percentile(latencies, 90)), attempted),
        "ref_ms": (1e3 * float(np.median(refs)), len(refs)),
        "failed_frac": (failed / attempted, attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def traced_run(workload, wl, tracing, seconds: float):
    """Trace ops until the fixed prefix is done and half the time is used,
    then replay the same ops untraced to measure the tracing overhead."""
    prefix = TRACE_PREFIX_OPS[workload.name]
    tracer = tracing.Tracer()
    tracer.install()
    specs, traced, results = [], [], []
    t_start = time.perf_counter()
    try:
        index = 0
        while index < prefix or time.perf_counter() - t_start < seconds / 2:
            spec = workload.spec(index)
            elapsed, result = wl.run_op(workload, spec, tracer.op_scope(index))
            specs.append(spec)
            traced.append(elapsed)
            results.append(result)
            index += 1
    finally:
        tracer.uninstall()
    untraced = [wl.run_op(workload, spec)[0] for spec in specs]
    return tracer, specs, traced, untraced, results, prefix


def per_layer(spans, prefix: int, import_s: float, overhead: float, prefix_specs, prefix_results, wl) -> dict:
    from tracing import LAYERS

    names = list(spans["names"])
    name, op = spans["name"], spans["op"]
    duration, self_time = spans["duration"], spans["self"]
    amount, amount2, parent = spans["amount"], spans["amount2"], spans["parent"]
    in_prefix = op < prefix

    def mask(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(name, ids)

    def ratio(num, den):
        return float(num / den) if den else 0.0

    root = mask("ops.op")
    n_ops = int(root.sum())
    wall = float(duration[root].sum())
    layer = np.array([s.split(".")[0] for s in names])[name]
    rhs = mask("polysys.evaluate_rhs")
    integ = mask("oracle.integrate")
    jac = mask("constraints.jacobian")
    newton_ids = np.flatnonzero(mask("constraints.newton_solve_initial_data"))
    newton_residuals = mask("constraints.constraint_residual") & np.isin(parent, newton_ids)
    pcf_eval = mask("periodic.eval_periodic_closed_form")
    json_io = mask("serialization.write_instance_file", "serialization.parse_instance_file")
    csv_io = mask("serialization.write_trajectory_csv")
    accepted = float(amount[integ & in_prefix].sum())
    rejected = float(amount2[integ & in_prefix].sum())

    metrics = {
        "polysys.rhs_calls": ratio(float((rhs & in_prefix).sum()), prefix),
        "polysys.rhs_self_us": 1e6 * float(np.median(self_time[rhs])) if rhs.any() else 0.0,
        "polysys.term_evals_per_s": ratio(amount[rhs].sum(), self_time[rhs].sum()),
        "oracle.steps_accepted": accepted / prefix,
        "oracle.steps_rejected": rejected / prefix,
        "oracle.accept_ratio": ratio(accepted, accepted + rejected),
        "oracle.self_us_per_step": 1e6 * ratio(
            self_time[integ].sum(), (amount[integ] + amount2[integ]).sum()
        ),
        "generate.self_s": ratio(self_time[mask("generate.generate_random_instance")].sum(), n_ops),
        "constraints.linear_solve_s": ratio(duration[mask("constraints.solve_linear_selection")].sum(), n_ops),
        "constraints.newton_iters": ratio(float((jac & in_prefix).sum()), prefix),
        "constraints.residual_calls": ratio(float((newton_residuals & in_prefix).sum()), prefix),
        "constraints.jacobian_us": 1e6 * float(np.median(duration[jac])) if jac.any() else 0.0,
        "closedform.us_per_eval": (
            1e6 * float(np.median(duration[mask("closedform.eval_closed_form")]))
            if mask("closedform.eval_closed_form").any() else 0.0
        ),
        "periodic.detect_s": ratio(duration[mask("periodic.detect_period")].sum(), n_ops),
        "periodic.eval_us_per_point": 1e6 * ratio(duration[pcf_eval].sum(), amount[pcf_eval].sum()),
        "serialization.json_s": ratio(self_time[json_io].sum(), n_ops),
        "serialization.csv_s": ratio(self_time[csv_io].sum(), n_ops),
        "serialization.csv_mb_per_s": 1e-6 * ratio(amount[csv_io].sum(), self_time[csv_io].sum()),
        "cli.import_s": import_s,
        "trace.overhead_frac": overhead,
        "ops.unattributed_share": ratio(self_time[root].sum(), wall),
    }
    for layer_name in LAYERS:
        metrics[f"{layer_name}.share"] = ratio(self_time[layer == layer_name].sum(), wall)
    shares = sum(metrics[f"{layer_name}.share"] for layer_name in LAYERS)
    if abs(shares + metrics["ops.unattributed_share"] - 1.0) > 1e-9:
        fail(f"layer shares plus remainder sum to {shares + metrics['ops.unattributed_share']!r}, not 1")
    metrics.update(failure_counts(prefix_results, wl.FAILURE_KEYS))
    for reason, count in rejected_draws(prefix_specs).items():
        metrics[f"ops.rejected_draws.{reason}"] = count / prefix
    return metrics, n_ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyode", "__init__.py")):
        fail(f"no polyode sources under {SRC}; run from the root of a polyode checkout")
    declared = load_declared_metrics()[args.trace]

    probes = setup_probes(args.workload, args.seed)
    setup = [p["import_s"] + p["build_s"] for p in probes]
    import_s = statistics.median(p["import_s"] for p in probes)

    sys.path.insert(0, SRC)
    import polyode.cli  # noqa: F401  (the import every CLI call pays)
    import tracing
    import workloads as wl

    if not os.path.abspath(polyode.cli.__file__).startswith(SRC + os.sep):
        fail(f"polyode was imported from {polyode.cli.__file__}, not from {SRC}")

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        wl.run_op(workload, workload.warmup_spec())
        spans_path = None
        if args.trace:
            tracer, specs, traced, untraced, results, prefix = traced_run(
                workload, wl, tracing, args.seconds
            )
            overhead = 1.0 - sum(untraced) / sum(traced)
            values, n_ops = per_layer(
                tracer.spans(), prefix, import_s, overhead, specs[:prefix], results[:prefix], wl
            )
            samples = dict.fromkeys(values, n_ops)
            samples["cli.import_s"] = len(probes)
            tag = f"{args.workload}-seed{args.seed}"
            spans_path = os.path.join(OUT, f"spans-{tag}.npz")
            tracer.write(spans_path)
            latencies = traced
        else:
            specs, latencies, results, refs = run_loop(workload, wl.run_op, args.seconds)
            measured = end_to_end(setup, latencies, results, refs)
            values = {k: v for k, (v, _) in measured.items()}
            samples = {k: n for k, (_, n) in measured.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(declared) - set(values)
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not computed: {sorted(missing)}")
    units = {**UNDECLARED_UNITS, **declared}

    attempted = len(results)
    failed = sum(r.failed for r in results)
    errors = Counter(r.error for r in results if r.error)
    untyped = sum("ops.untyped_errors" in r.failures for r in results)
    inexact = sum(key in r.failures for r in results for key in wl.EXACTNESS_CHECKS)
    correct = untyped == 0 and inexact == 0

    record = {
        "provenance": provenance(args, specs, results),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failure_counts(results, wl.FAILURE_KEYS + wl.EXACTNESS_CHECKS),
        "errors_by_stage": dict(sorted(errors.items())),
        "metrics": {
            k: {"value": values[k], "unit": units[k], "samples": samples[k]}
            for k in sorted(values)
        },
        "setup_probes": probes,
        "latencies_ms": [1e3 * x for x in latencies],
        "spans_file": spans_path and os.path.relpath(spans_path, ROOT),
    }
    os.makedirs(OUT, exist_ok=True)
    result_path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=2)

    print(json.dumps({"provenance": record["provenance"]}))
    for key in sorted(values):
        unit = units[key]
        print(f"{key:42s} {values[key]:14.6g} {unit:8s} n={samples[key]}")
    print(f"ops attempted {attempted}, failed {failed}; errors {dict(errors) or 'none'}")
    print(f"full record: {os.path.relpath(result_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in declared.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
