"""The on-disk table cache's write path: atomicity, races, cleanup.

The original temp-file name was keyed on the pid alone, so two threads
of one process (concurrent serve sessions, batch workers) storing the
same artefact could interleave writes into a single temp file and
publish a torn ``.npz``.  These tests pin the per-call unique suffix and
the no-stray-temp-files guarantee on every exit path.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.efit import diskcache
from repro.efit.diskcache import _load_npz, _store_npz


class TestStoreNpz:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "entry.npz"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
        assert _store_npz(path, arrays)
        loaded = _load_npz(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])

    def test_disabled_path_is_noop(self):
        assert not _store_npz(None, {"a": np.ones(2)})

    def test_temp_names_unique_per_call(self, tmp_path, monkeypatch):
        """Two stores of the same target must never share a temp file —
        the pid alone is not a safe key within one process."""
        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(diskcache.os, "replace", recording_replace)
        path = tmp_path / "entry.npz"
        assert _store_npz(path, {"a": np.ones(2)})
        assert _store_npz(path, {"a": np.zeros(2)})
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(f".tmp{os.getpid()}-" in name for name in seen)

    def test_concurrent_writers_same_target(self, tmp_path):
        """Hammer one target from a thread pool: every write succeeds,
        the survivor is a coherent payload, and no temp files remain."""
        path = tmp_path / "entry.npz"

        def store(k: int) -> bool:
            return _store_npz(path, {"a": np.full(64, float(k))})

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(store, range(32)))
        assert all(results)
        final = _load_npz(path)
        value = final["a"]
        assert np.all(value == value[0]) and 0 <= value[0] < 32
        assert [p.name for p in tmp_path.iterdir()] == ["entry.npz"]

    def test_oserror_is_failsoft(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        assert not _store_npz(blocker / "entry.npz", {"a": np.ones(2)})

    def test_non_oserror_propagates_without_stray_tmp(self, tmp_path):
        """A bad payload is a caller bug, not a fail-soft case — the
        exception propagates, but the torn temp file is removed."""

        class Evil:
            def __array__(self, dtype=None, copy=None):
                raise ValueError("cannot serialise")

        path = tmp_path / "entry.npz"
        with pytest.raises(ValueError, match="cannot serialise"):
            _store_npz(path, {"a": Evil()})
        assert list(tmp_path.iterdir()) == []


class TestCachePaths:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(diskcache.CACHE_DIR_ENV, raising=False)
        assert diskcache.cache_dir() is None

    def test_table_roundtrip_via_env(self, tmp_path, monkeypatch, grid33):
        from repro.efit.tables import cached_boundary_tables

        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        tables = cached_boundary_tables(grid33)
        assert diskcache.store_tables(tables)
        loaded = diskcache.load_tables(grid33)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.gpc, tables.gpc)


class TestStaleOperatorEntries:
    """Format 1 ``lowrank`` entries carried a three-slot ``meta_i8`` (the
    third slot said whether the factors were single precision).  Format 2
    must treat such a file as a miss — rebuilt, never loaded."""

    @pytest.fixture
    def stale(self, tmp_path, monkeypatch):
        """(tables, fresh operator, its arrays in the format-1 layout with
        poisoned spectra — an entry that would apply wrongly if loaded)."""
        from repro.efit.grid import RZGrid
        from repro.efit.operators import build_edge_operator, drop_edge_operator
        from repro.efit.tables import cached_boundary_tables

        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        tables = cached_boundary_tables(RZGrid(17, 17))
        fresh = build_edge_operator(tables, "lowrank")
        arrays = dict(fresh.to_arrays())
        arrays["meta_i8"] = np.append(arrays["meta_i8"], 0)
        arrays["vert_spectra"] = 2.0 * arrays["vert_spectra"]
        drop_edge_operator(tables.grid, "lowrank")
        yield tables, fresh, arrays
        drop_edge_operator(tables.grid, "lowrank")

    def test_v1_file_is_a_miss_and_is_rebuilt(self, tmp_path, stale):
        from repro.efit.operators import cached_edge_operator

        tables, fresh, arrays = stale
        current = diskcache.operator_path(tables.grid, "lowrank", 1e-12)
        v1 = current.with_name(
            current.name.replace(f"-v{diskcache.DISK_FORMAT_VERSION}-", "-v1-")
        )
        assert v1 != current and v1.name.startswith("edgeop-v1-")
        assert _store_npz(v1, arrays)
        assert diskcache.load_edge_operator(tables, "lowrank", 1e-12) is None
        op = cached_edge_operator(tables, "lowrank")
        x = np.random.default_rng(0).normal(size=tables.grid.size)
        np.testing.assert_array_equal(op.apply(x), fresh.apply(x))
        assert current.is_file()  # the rebuild was published under the new name

    def test_v1_layout_under_the_current_name_is_a_miss(self, stale):
        """Even if a format-1 payload ends up under a format-2 name (a
        hand-copied cache directory), the slot-count mismatch rejects it."""
        tables, _, arrays = stale
        assert _store_npz(diskcache.operator_path(tables.grid, "lowrank", 1e-12), arrays)
        assert diskcache.load_edge_operator(tables, "lowrank", 1e-12) is None
