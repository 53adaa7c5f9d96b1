"""Run one wattcount CLI stage as the console script does, timing the import.

usage: python3 perfbench/stage.py TIMING_FILE [wattcount arguments ...]

Writes "<seconds to import wattcount.cli> <path of the imported module>" to
TIMING_FILE, then runs ``wattcount.cli.main`` on the remaining arguments and
exits with its code. Without wattcount arguments it only imports, which is
how the benchmark measures set-up time in a fresh interpreter.
"""

import sys
import time

t0 = time.perf_counter()
import wattcount.cli  # noqa: E402  (the import is what is being timed)

elapsed = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    fh.write(f"{elapsed!r} {wattcount.cli.__file__}\n")
if len(sys.argv) > 2:
    sys.exit(wattcount.cli.main(sys.argv[2:]))
