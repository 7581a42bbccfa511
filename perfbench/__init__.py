"""Benchmark of the staircase library: workloads, tracer and runner.

Run ``python3 perfbench/run.py`` from the repository root; see ``run.py``.
"""
