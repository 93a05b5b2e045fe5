"""End-to-end benchmark of the synopsis build and serving paths.

Run it from the repository root::

    python3 perfbench/run.py --workload build-mix --seed 1 --seconds 20 --trace 0

See ``run.py`` for the workloads and the metrics each one reports.
"""
