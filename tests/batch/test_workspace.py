"""Tests of the preallocated workspace arena and its counters."""

import pytest

from repro.batch import FitWorkspace
from repro.errors import FittingError


class TestFitWorkspace:
    def test_same_request_returns_same_buffer(self):
        ws = FitWorkspace()
        a = ws.array("psi", (8, 8))
        b = ws.array("psi", (8, 8))
        assert a is b
        assert ws.counters.allocations == 1
        assert ws.counters.reuses == 1

    def test_zero_allocations_after_warmup(self):
        """The acceptance-criterion invariant: once every buffer exists,
        steady-state requests never allocate."""
        ws = FitWorkspace()
        names = [("pcurr", (64, 8)), ("rhs", (8, 33, 33)), ("edge", (128, 8))]
        for name, shape in names:
            ws.array(name, shape)
        warm_allocs = ws.counters.allocations
        for _ in range(100):
            for name, shape in names:
                ws.array(name, shape)
        assert ws.counters.allocations == warm_allocs
        assert ws.counters.reuses == 100 * len(names)
        assert ws.counters.reuse_fraction == pytest.approx(
            300 / (300 + warm_allocs)
        )

    def test_shape_change_reallocates(self):
        ws = FitWorkspace()
        a = ws.array("buf", (4, 4))
        b = ws.array("buf", (4, 5))
        assert a is not b
        assert b.shape == (4, 5)
        assert ws.counters.allocations == 2
        assert ws.counters.resident_bytes == b.nbytes

    def test_resident_bytes_tracks_arena(self):
        ws = FitWorkspace()
        ws.array("a", (10, 10))
        ws.array("b", (5,))
        assert ws.counters.resident_bytes == 100 * 8 + 5 * 8

    def test_empty_name_rejected(self):
        with pytest.raises(FittingError):
            FitWorkspace().array("", (3,))
