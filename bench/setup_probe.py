"""Set-up probe: import chemlattice, build one workload's configs, then
print ``ready``.  bench/run.py starts it several times and times each
start until ``ready`` as one set-up sample.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys

from workloads import prepare

prepare(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
