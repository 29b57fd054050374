"""Job-level benchmark of distributed partial clustering on a warm pool.

One process drives clustering jobs through ``repro.cluster.ClusterService``
(two runner hosts) in a closed loop with two jobs in flight, checks every
job against an in-process serial run of the same job, and prints its
metrics.  Run from the repository root::

    python3 perfbench/run.py --workload kmedian_sites --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the separate traced pass and reports the per-layer metrics.
``--workload all`` runs every workload untraced and then traced, each in
a fresh process, and prints every table.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any job failed
or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Room a ``repro-cluster-*`` socket directory and socket name need below
#: the scratch directory, within the 107-byte limit of a Unix socket path.
SOCKET_SUFFIX_LEN = 40


def bootstrap() -> Path:
    """Pin BLAS threads, find the program, and keep scratch inside the checkout.

    Runs before numpy is imported, so this process and the runners it
    spawns (which inherit the environment) all use one BLAS thread: two
    runners and a coordinator already fill the two cores.
    """
    for name in THREAD_ENV:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    path = str(scratch)
    if len(path) + SOCKET_SUFFIX_LEN > 107:
        # Runners inherit the working directory, so a relative path names
        # the same place on both ends of every socket.
        path = os.path.relpath(path)
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    return scratch


def environment() -> dict:
    import numpy
    from repro.runtime import effective_cpu_count

    return {
        "effective_cpu_count": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{name: os.environ[name] for name in THREAD_ENV},
    }


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    width = max(len(name) for name in metrics) if metrics else 0
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def run_one(args) -> int:
    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment()))
    print("workload " + json.dumps({"name": workload.name, **workload.params(),
                                    "why": workload.why}))
    run = bench.trace if args.trace else bench.measure
    outcome = run(workload, args.seed, args.seconds)
    kind = "per-layer (traced)" if args.trace else "end-to-end (tracing off)"
    print_table(f"{workload.name} {kind}, seed {args.seed}", outcome.metrics)
    for note in outcome.notes:
        print("  " + note)
    for failure in outcome.failures:
        print("  FAILED " + failure)
    ok = not outcome.failures
    print(json.dumps({
        "correct": ok,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for trace in (0, 1):
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name, "--seed",
                       str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            *report, last = proc.stdout.splitlines() or [""]
            print("\n".join(report), flush=True)
            try:
                result = json.loads(last)
            except ValueError:
                raise SystemExit(f"perfbench: {name} printed no result (exit {proc.returncode})")
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="kmedian_sites, kcenter_sites, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scratch = bootstrap()
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
