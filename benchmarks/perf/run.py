"""Script entry point named by ``BENCHMARK.json``: ``python3 benchmarks/perf/run.py``.

Puts the repository root (not this directory) first on ``sys.path`` so the
harness imports as the package ``benchmarks.perf``, exactly as under
``python -m benchmarks.perf``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.perf.cli import main

    sys.exit(main())
