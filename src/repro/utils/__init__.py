"""Small shared utilities: physical constants and formatting."""

from repro.utils.constants import MU0, TWO_PI
from repro.utils.tables import Table, format_seconds, format_bytes, format_speedup

__all__ = [
    "MU0",
    "TWO_PI",
    "Table",
    "format_seconds",
    "format_bytes",
    "format_speedup",
]
