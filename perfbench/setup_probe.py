"""Set-up as a command-line user pays it: import mrsim, build the inputs.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED SIZE

The benchmark times this whole process for its setup_s metric.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402  (imports mrsim)

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name](seed, size)
