"""Set-up probe: start Python, import sdpcert, build one workload's inputs, print "ready".

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times fresh runs of this script for ``setup_s``. It loads nothing
of the benchmark but ``workloads`` and the table that module reads, so the
time is interpreter start, the program's import and input building.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import sdpcert  # noqa: E402,F401
from perfbench import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
