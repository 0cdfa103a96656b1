"""Time ``import disruptkit`` plus loading one config, in this fresh interpreter.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG_JSON
Prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import disruptkit  # noqa: E402

disruptkit.load_config(sys.argv[2])
print(repr(time.perf_counter() - start))
