"""Set-up as a user pays it: start an interpreter, import `lhc` and build
one workload's inputs.  The parent times the whole process.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import importlib
import sys

if __name__ == "__main__":
    importlib.import_module("wl_" + sys.argv[1]).build(int(sys.argv[2]))
