"""End-to-end benchmark of the QPlacer reproduction (see README.md).

Run ``python3 perfbench/run.py --workload place --seed 1 --seconds 20
--trace 0`` from the repository root.
"""
