"""Set-up probe: what a fresh interpreter does before a workload's first
pass, namely import multitime.cli and generate the workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR
"""

import sys

import multitime.cli  # noqa: F401  (its import is part of what is timed)
from workloads import WORKLOADS, make_inputs

if __name__ == "__main__":
    make_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
