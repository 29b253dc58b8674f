"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is the
run's result as one JSON object; see :mod:`bench.harness`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.harness import main  # noqa: E402 - needs the paths above

if __name__ == "__main__":
    sys.exit(main())
