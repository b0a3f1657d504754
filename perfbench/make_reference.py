"""Regenerate the reference echoes of the default seed.

usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Writes perfbench/reference/<workload>.npy: every REFERENCE_STRIDE-th
acquisition of one untraced operation.  Run it only when a change is
meant to alter the simulated echoes, and say so in the change.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402

if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(WORKLOADS):
        workload = WORKLOADS[name](DEFAULT_SEED)
        echoes = workload.reference_echoes(workload.operate().echoes)
        np.save(workload.reference_path(), echoes)
        print(f"{workload.reference_path()}: {echoes.shape}")
