"""Benchmark for sdpcert: seeded workloads, independent output checks and per-layer tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the root of a checkout; see ``perfbench/README.md``.
"""
