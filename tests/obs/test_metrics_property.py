"""Property tests of the fleet's histogram merge.

:func:`~repro.parallel.merge.merge_metrics` folds per-worker histograms
bucket-wise.  On fixed-bound histograms it must behave like multiset
union of the underlying samples: associative, commutative, with a zero
element — the properties that let per-worker histograms combine in any
order — and it must refuse histograms whose bounds differ.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.metrics import DEFAULT_SECONDS_BOUNDS, Histogram
from repro.parallel.merge import merge_metrics
from repro.parallel.scheduler import WorkerReport

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    max_size=40,
)


def fill(values, bounds=DEFAULT_SECONDS_BOUNDS):
    h = Histogram("h", bounds)
    for v in values:
        h.observe(v)
    return h.to_dict()


def merge(*histograms):
    """The merged ``h`` of one worker report per histogram, worker ids in
    argument order."""
    reports = [
        WorkerReport(worker=k, pid=0, jobs_done=0, records=(), metrics={"metrics": {"h": h}})
        for k, h in enumerate(histograms)
    ]
    return merge_metrics(reports)["metrics"]["h"]


def assert_equivalent(x, y):
    # Bucket counts and totals are integers and must match exactly; the
    # running sum is a float accumulation, so compare it to relative eps.
    assert x["bounds"] == y["bounds"]
    assert x["counts"] == y["counts"]
    assert x["count"] == y["count"]
    assert x["sum"] == pytest.approx(y["sum"], rel=1e-12, abs=1e-12)


@given(samples, samples)
@settings(max_examples=100, deadline=None)
def test_merge_commutative(a, b):
    assert_equivalent(merge(fill(a), fill(b)), merge(fill(b), fill(a)))


@given(samples, samples, samples)
@settings(max_examples=100, deadline=None)
def test_merge_associative(a, b, c):
    ha, hb, hc = fill(a), fill(b), fill(c)
    left = merge(merge(ha, hb), hc)
    right = merge(ha, merge(hb, hc))
    assert_equivalent(left, right)
    assert_equivalent(left, merge(ha, hb, hc))


@given(samples)
@settings(max_examples=100, deadline=None)
def test_empty_histogram_is_identity(a):
    h = fill(a)
    assert_equivalent(merge(h, fill([])), h)
    assert_equivalent(merge(fill([]), h), h)


@given(samples, samples)
@settings(max_examples=100, deadline=None)
def test_merge_equals_merged_observation_stream(a, b):
    assert_equivalent(merge(fill(a), fill(b)), fill(a + b))


bounds = st.lists(
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False), min_size=1, max_size=6, unique=True
).map(lambda b: tuple(sorted(b)))


@given(bounds, bounds)
@settings(max_examples=100, deadline=None)
def test_merge_refuses_mismatched_bounds(left, right):
    if left == right:
        return
    with pytest.raises(ObservabilityError, match="bucket bounds differ"):
        merge(fill([1.0], left), fill([1.0], right))


@given(samples)
@settings(max_examples=100, deadline=None)
def test_counts_nonnegative_and_consistent(a):
    h = Histogram("h", DEFAULT_SECONDS_BOUNDS)
    for v in a:
        h.observe(v)
    assert all(c >= 0 for c in h.counts)
    assert sum(h.counts) == h.total == len(a)
    assert h.sum == pytest.approx(sum(a), rel=1e-9, abs=1e-12)
    assert h.mean == pytest.approx(sum(a) / len(a) if a else 0.0, rel=1e-9, abs=1e-12)


@given(samples)
@settings(max_examples=100, deadline=None)
def test_merge_never_mutates_operands(a):
    ha, hb = fill(a), fill([1.0, 2.0])
    before_a, before_b = repr(ha), repr(hb)
    merge(ha, hb)
    assert repr(ha) == before_a and repr(hb) == before_b
