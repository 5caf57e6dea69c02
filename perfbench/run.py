"""Benchmark of ``fene run``: one command, one workload per child process.

    python3 perfbench/run.py --workload shear32_lean --seed 1 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in a fresh child (bench.py) with the BLAS/OpenMP thread
count pinned to 1, one at a time.  The child's metrics are printed by name
with their unit, followed by the environment, the problems found by the
correctness checks, and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  Results and, for traced runs, the
span lists are kept under .bench_build/perfbench in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("shear32_lean", "shear32_monitored")   # as in BENCHMARK.json
# too unsteady on a shared host to hold a bound (see README.md)
EXTRA = ("shear64_monitored", "contraction32")
SMOKE = ("smoke", "smoke_contraction")
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def run_child(workload, seed, seconds, trace):
    """Result dict of one child run, or None if it failed to produce one."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    result = os.path.join(OUT, f"{tag}.json")
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(OUT, f"work-{tag}"), "--result", result]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result):
        print(f"{workload}: child exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def report(res, prefix=""):
    """Print one child's metrics; returns (correct, attempted, failed,
    metrics) with metric names prefixed."""
    print(f"# workload {res['workload']} seed {res['seed']} "
          f"trace {res['trace']}")
    print(f"# environment {json.dumps(res['environment'], sort_keys=True)}")
    for name, m in res["metrics"].items():
        print(f"{prefix}{name} {m['value']!r} {m['unit']}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{prefix}error_rate {failed / attempted!r} "
          f"({failed} of {attempted} attempts)")
    for problem in res["problems"]:
        print(f"# problem: {problem}")
    correct = failed == 0 and not res["problems"]
    metrics = {prefix + k: v for k, v in res["metrics"].items()}
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + EXTRA + SMOKE + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fene", "runner.py")):
        print(f"no fene sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS + EXTRA if args.workload == "all" \
        else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_child(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        correct, attempted, failed, metrics = report(res, prefix)
        total["correct"] &= correct
        total["attempted"] += attempted
        total["failed"] += failed
        total["metrics"].update(metrics)
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
