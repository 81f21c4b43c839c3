"""The repository's benchmark: calibrated per-slice cost through the serial,
batch and serve entry points, with per-layer probes.  See ``README.md``."""
