"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload build-mix --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``build-mix`` — seven synopsis builds through ``SynopsisStore.get_or_build``
  into a fresh columnar store, one per DP family;
* ``serve-saturated`` — the daemon (``python -m repro.cli serve``) under a
  closed loop of 32 outstanding queries per connection;
* ``serve-paced`` — the same daemon under an open loop of 300 queries/s.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that reports the per-layer ledger instead.  Every run checks the
program's outputs after the timed phase.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; everything before it
is a human-readable log, including the environment stamp.

All files the run writes (stores, the model file, daemon logs, the compiled
kernel cache) live under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("build-mix", "serve-saturated", "serve-paced")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports the per-layer ledger instead of end-to-end metrics")
    return parser.parse_args(argv)


def _environment(root: Path, nproc: int) -> dict:
    sys.path.insert(0, str(root / "benchmarks"))
    try:
        from _env import environment
    finally:
        sys.path.pop(0)
    return {**environment(), "nproc": nproc}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # Keep every file the library writes (the compiled-kernel cache, temp
    # files) inside the checkout; the daemon inherits the same environment.
    os.environ["XDG_CACHE_HOME"] = str(WORK / "cache")
    os.environ["TMPDIR"] = str(run_dir)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    # With two or more CPUs the daemon gets the first and this process (the
    # builds, or the load generator) the second.  Pinning before numpy is
    # imported also keeps its BLAS pool to one thread on that CPU.
    cpus = sorted(os.sched_getaffinity(0))
    daemon_cpu = cpus[0] if len(cpus) >= 2 else None
    if daemon_cpu is not None:
        os.sched_setaffinity(0, {cpus[1]})

    from perfbench import workloads

    def log(message: str) -> None:
        print(f"# {message}", flush=True)

    try:
        log("environment: " + json.dumps(_environment(ROOT, len(cpus)), sort_keys=True))
        context = workloads.Context(
            root=ROOT, work=run_dir, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), env=dict(os.environ), log=log, nproc=len(cpus),
            daemon_cpu=daemon_cpu,
        )
        log("placement: " + ("unpinned" if daemon_cpu is None else
                             f"daemon on CPU {cpus[0]} (taskset), benchmark process on "
                             f"CPU {cpus[1]} (sched_setaffinity)"))
        result = workloads.WORKLOADS[args.workload](context)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for failure in result.failures:
        log(f"CHECK FAILED {failure}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
