"""``python -m benchmarks.perf``."""

import sys

from .cli import main

sys.exit(main())
