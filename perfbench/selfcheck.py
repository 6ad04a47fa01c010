"""Benchmark self-check: the traced run's count metrics repeat exactly for
one seed and change for another, which shows the seed reaches the
instance generator.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

Runs ``run.py --trace 1`` twice with seed N and once with seed N + 1 per
workload. Exits 1 if a count differs between the two same-seed runs, or
if ``polysys.rhs_calls`` is equal across the two seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COUNT_METRICS = (
    "polysys.rhs_calls",
    "oracle.steps_accepted",
    "oracle.steps_rejected",
    "constraints.newton_iters",
    "constraints.residual_calls",
    "oracle.deviation_failures",
    "periodic.detect_failures.GridTooCoarse",
    "periodic.detect_failures.NotClosed",
    "periodic.detect_failures.SingularBracket",
    "periodic.detect_failures.other",
    "periodic.closure_failures",
    "constraints.newton_failures",
    "constraints.residual_failures",
    "ops.typed_errors",
    "ops.untyped_errors",
    "ops.rejected_draws.unstable",
    "ops.rejected_draws.near_singular",
)


def counts(workload: str, seed: int) -> dict:
    # --seconds 1 leaves the traced run at its fixed prefix of ops.
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNT_METRICS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=["proposition", "large_system", "periodic"])
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, again, other = (counts(workload, s) for s in (args.seed, args.seed, args.seed + 1))
        unstable = [k for k in COUNT_METRICS if first[k] != again[k]]
        changed = [k for k in COUNT_METRICS if first[k] != other[k]]
        seed_reaches = first["polysys.rhs_calls"] != other["polysys.rhs_calls"]
        ok &= not unstable and seed_reaches
        print(f"{workload}: repeat {'ok' if not unstable else 'DIFFERS ' + str(unstable)}; "
              f"seed {args.seed + 1} changes {changed or 'nothing'}"
              f"{'' if seed_reaches else ' (polysys.rhs_calls unchanged: FAIL)'}")
        print(f"  seed {args.seed}: {first}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
