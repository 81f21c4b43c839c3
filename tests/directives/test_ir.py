"""Tests of the loop-nest IR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directives.ir import AccessMode, ArrayRef, Loop, LoopNest
from repro.errors import DirectiveError


def make_nest(nw=8, nh=10):
    return LoopNest(
        name="boundary",
        loops=(Loop("j", nh), Loop("ii", nw), Loop("jj", nh)),
        flops_per_iteration=4.0,
        arrays=(
            ArrayRef("gridpc", 2 * nh * nw, AccessMode.READ, 2.0),
            ArrayRef("pcurr", nw * nh, AccessMode.READ, 1.0),
            ArrayRef("psi", 2 * nh, AccessMode.WRITE, 0.0),
        ),
        n_outer=1,
        reductions=("tempsum1", "tempsum2"),
    )


class TestIterationSpace:
    def test_totals(self):
        nest = make_nest(8, 10)
        assert nest.total_iterations == 10 * 8 * 10
        assert nest.outer_iterations == 10
        assert nest.inner_iterations == 80

    def test_single_loop_inner_is_one(self):
        nest = LoopNest("x", (Loop("i", 5),), 1.0, n_outer=1, arrays=())
        assert nest.inner_iterations == 1

    def test_collapse_all_outer(self):
        nest = LoopNest("x", (Loop("i", 5), Loop("j", 7)), 1.0, n_outer=2, arrays=())
        assert nest.outer_iterations == 35


class TestWork:
    def test_flops(self):
        assert make_nest().total_flops == 4.0 * 800

    def test_streaming_bytes(self):
        nest = make_nest()
        # (2 + 1 + 0) accesses x 8 bytes per iteration
        assert nest.streaming_bytes == 24.0 * nest.total_iterations

    def test_footprint_bytes(self):
        nest = make_nest(8, 10)
        assert nest.footprint_bytes == (2 * 10 * 8 + 80 + 20) * 8


class TestValidation:
    def test_empty_loops(self):
        with pytest.raises(DirectiveError):
            LoopNest("x", (), 1.0, arrays=())

    def test_bad_n_outer(self):
        with pytest.raises(DirectiveError):
            LoopNest("x", (Loop("i", 4),), 1.0, n_outer=2, arrays=())
        with pytest.raises(DirectiveError):
            LoopNest("x", (Loop("i", 4),), 1.0, n_outer=0, arrays=())

    def test_negative_flops(self):
        with pytest.raises(DirectiveError):
            LoopNest("x", (Loop("i", 4),), -1.0, arrays=())

    def test_duplicate_arrays(self):
        with pytest.raises(DirectiveError):
            LoopNest(
                "x",
                (Loop("i", 4),),
                1.0,
                arrays=(ArrayRef("a", 4), ArrayRef("a", 8)),
            )

    def test_bad_loop_extent(self):
        with pytest.raises(DirectiveError):
            Loop("i", 0)

    def test_bad_array(self):
        with pytest.raises(DirectiveError):
            ArrayRef("a", -1)
        with pytest.raises(DirectiveError):
            ArrayRef("a", 4, accesses_per_iteration=-1.0)


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.0, max_value=16.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_scales_with_iterations(self, a, b, flops):
        nest = LoopNest("x", (Loop("i", a), Loop("j", b)), flops, arrays=())
        assert nest.total_flops == pytest.approx(flops * a * b, rel=1e-12)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_streaming_at_least_footprint_when_accessed_each_iter(self, n):
        """If every array is touched >= once per iteration and iterations
        >= elements, streaming >= footprint."""
        nest = LoopNest(
            "x",
            (Loop("i", n), Loop("j", n)),
            1.0,
            arrays=(ArrayRef("a", n * n, AccessMode.READ, 1.0),),
        )
        assert nest.streaming_bytes >= nest.footprint_bytes
