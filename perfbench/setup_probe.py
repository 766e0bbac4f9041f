"""Set-up as a fresh interpreter pays it: import lovaszgap and build one
workload's inputs, then exit.  ``run.py`` times this script end to end.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import cases

if __name__ == "__main__":
    cases.build_workload(cases.import_library(), sys.argv[1], int(sys.argv[2]))
