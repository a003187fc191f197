"""Set-up time of one workload in a fresh interpreter: ``import supermech``
plus generating and parsing every problem.  Prints seconds.

    python3 perfbench/setup_probe.py dense-symbolic 1
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import supermech  # noqa: E402
from perfbench import workloads  # noqa: E402

for problem in workloads.BUILDERS[sys.argv[1]](int(sys.argv[2]), ROOT).problems:
    supermech.parse_problem(problem.text)
print(time.perf_counter() - start)
