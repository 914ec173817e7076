"""One set-up sample for bench/run.py: import, set up, print the clock, exit.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

The parent reads `time.monotonic()` before it starts this interpreter and
subtracts it from the value printed here once the workload is ready to run,
so the sample spans interpreter start, imports and the workload's set-up.
"""

import os
import sys
import time


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    import workloads
    workloads.WORKLOADS[name](seed, workdir).setup()
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
