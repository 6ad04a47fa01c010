"""Set-up probe, run in a fresh interpreter by run.py:

    python3 perfbench/probe.py WORKLOAD SEED SRC_DIR

Prints one JSON line: the time to ``import polyode.cli`` (the import every
CLI call pays) and the time to build the workload's inputs.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

workload_name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path.insert(0, src)

import polyode.cli  # noqa: E402,F401

t1 = time.perf_counter()

import workloads  # noqa: E402

workload = workloads.WORKLOADS[workload_name](seed, workdir=None)
workload.warmup_spec()
workload.spec(0)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
