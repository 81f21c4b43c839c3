"""The on-disk form of a grid's artefacts: atomic entries, fail-soft
reads, and fits that cannot tell a mapped entry from a fresh build.

An entry is a directory of ``.npy`` files published by one rename.  Two
threads of one process (concurrent serve sessions, batch workers) share a
pid, so every write fills a temporary directory of its own; these tests
pin that, the whole-entry replacement a second write makes, and that no
temporary directory survives any exit path.
"""

import dataclasses
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.efit import diskcache
from repro.efit.diskcache import _operator_entry, _read_entry, _write_entry
from repro.efit.grid import RZGrid
from repro.efit.tables import boundary_table_cache, cached_boundary_tables


@pytest.fixture
def tables9():
    return cached_boundary_tables(RZGrid(9, 9))


class TestStoreNpz:
    """The entry writer and reader behind every stored artefact."""

    def test_roundtrip(self, tmp_path):
        entry = tmp_path / "entry"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
        assert _write_entry(entry, arrays) == 6 * 8 + 4 * 8
        loaded = _read_entry(entry)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        assert all(type(v) is np.ndarray and not v.flags.writeable for v in loaded.values())
        assert sorted(os.listdir(entry)) == ["a.npy", "b.npy"]

    def test_disabled_path_is_noop(self, monkeypatch, tables9):
        from repro.efit.operators import build_edge_operator

        monkeypatch.delenv(diskcache.CACHE_DIR_ENV, raising=False)
        assert not diskcache.store_tables(tables9)
        assert not diskcache.store_edge_operator(build_edge_operator(tables9, "toeplitz"))

    def test_temp_names_unique_per_call(self, tmp_path, monkeypatch):
        """Two stores of the same entry must never share a temporary
        directory — the pid alone is not a safe key within one process —
        and the second replaces the first whole."""
        seen = []
        real_rename = os.rename

        def recording_rename(src, dst):
            seen.append((str(src), str(dst)))
            real_rename(src, dst)

        monkeypatch.setattr(diskcache.os, "rename", recording_rename)
        entry = tmp_path / "entry"
        _write_entry(entry, {"a": np.ones(2), "b": np.ones(3)})
        _write_entry(entry, {"a": np.zeros(2)})
        published = list(dict.fromkeys(src for src, dst in seen if dst == str(entry)))
        assert len(published) == 2  # the second retried its rename once the first moved aside
        assert all(".tmp" in os.path.basename(src) for src in published)
        assert sorted(os.listdir(entry)) == ["a.npy"]
        np.testing.assert_array_equal(_read_entry(entry)["a"], np.zeros(2))
        assert [p.name for p in tmp_path.iterdir()] == ["entry"]

    def test_concurrent_writers_same_target(self, tmp_path):
        """Hammer one entry of two arrays from a thread pool, reading it
        between writes: every write succeeds, every read is a miss or
        one write's pair — never arrays of two writes — and one complete
        entry survives with no temporary directory beside it."""
        entry = tmp_path / "entry"

        def store_and_read(k: int):
            _write_entry(entry, {"a": np.full(64, float(k)), "b": np.full(8, float(k))})
            return _read_entry(entry)

        with ThreadPoolExecutor(max_workers=8) as pool:
            reads = list(pool.map(store_and_read, range(32)))
        for got in reads + [_read_entry(entry)]:
            if got is not None:
                assert set(got) == {"a", "b"}
                values = np.concatenate([got["a"], got["b"]])
                assert np.all(values == values[0]) and 0 <= values[0] < 32
        assert _read_entry(entry) is not None
        assert [p.name for p in tmp_path.iterdir()] == ["entry"]

    def test_oserror_is_failsoft(self, tmp_path, monkeypatch, tables9):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        with pytest.raises(OSError):
            _write_entry(blocker / "entry", {"a": np.ones(2)})
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(blocker / "cache"))
        assert not diskcache.store_tables(tables9)
        assert diskcache.load_tables(tables9.grid) is None

    def test_non_oserror_propagates_without_stray_tmp(self, tmp_path):
        """A bad payload is a caller bug, not a fail-soft case — the
        exception propagates, but the torn temporary directory is removed."""

        class Evil:
            def __array__(self, dtype=None, copy=None):
                raise ValueError("cannot serialise")

        with pytest.raises(ValueError, match="cannot serialise"):
            _write_entry(tmp_path / "entry", {"a": np.ones(2), "b": Evil()})
        assert list(tmp_path.iterdir()) == []


class TestCachePaths:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(diskcache.CACHE_DIR_ENV, raising=False)
        assert diskcache.cache_dir() is None

    def test_table_roundtrip_via_env(self, tmp_path, monkeypatch, grid33):
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        tables = cached_boundary_tables(grid33)
        assert diskcache.store_tables(tables)
        assert diskcache.store_tables(tables)  # a second store replaces the entry
        loaded = diskcache.load_tables(grid33)
        assert loaded is not None and not loaded.gpc.flags.writeable
        assert loaded.gpc.tobytes() == tables.gpc.tobytes()
        path = diskcache.table_path(grid33)
        assert path.is_file() and 0 < path.stat().st_size - tables.gpc.nbytes <= 4096


class TestDamagedEntries:
    """A missing or damaged entry is a miss that rebuilds."""

    @pytest.mark.parametrize("keep", [0, 100, -8], ids=["empty", "mid-header", "last-value"])
    def test_a_truncated_npy_is_a_miss(self, tmp_path, monkeypatch, tables9, keep):
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        assert diskcache.store_tables(tables9)
        path = diskcache.table_path(tables9.grid)
        path.write_bytes(path.read_bytes()[:keep])
        assert diskcache.load_tables(tables9.grid) is None
        assert diskcache.store_tables(tables9)  # the rebuild's store mends it
        assert diskcache.load_tables(tables9.grid).gpc.tobytes() == tables9.gpc.tobytes()

    def test_a_missing_array_is_a_miss(self, tmp_path, monkeypatch, tables9):
        from repro.efit.operators import build_edge_operator

        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        assert diskcache.store_edge_operator(build_edge_operator(tables9, "lowrank"))
        (_operator_entry(tmp_path, tables9.grid, "lowrank") / "meta_f8.npy").unlink()
        assert diskcache.load_edge_operator(tables9, "lowrank") is None


class TestStaleOperatorEntries:
    """Format 1 ``lowrank`` entries carried a three-slot ``meta_i8`` (the
    third slot said whether the factors were single precision), and
    formats 1 and 2 were ``.npz`` files.  Neither may load — rebuilt,
    never applied."""

    @pytest.fixture
    def stale(self, tmp_path, monkeypatch):
        """(tables, fresh operator, its arrays in the format-1 layout with
        poisoned spectra — an entry that would apply wrongly if loaded)."""
        from repro.efit.operators import build_edge_operator, drop_edge_operator

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
        """``.npz`` files of formats 1 and 2, under their own names, are
        never matched: the operator is rebuilt and published as an entry."""
        from repro.efit.operators import cached_edge_operator

        tables, fresh, arrays = stale
        key = tables.grid.geometry_hash()
        # The fixture's build stored the current entry, unless the table was cached already.
        shutil.rmtree(diskcache.table_path(tables.grid).parent, ignore_errors=True)
        for version in (1, 2):
            np.savez(tmp_path / f"edgeop-v{version}-{key}-lowrank-tol1e-12.npz", **arrays)
            np.savez(tmp_path / f"greens-v{version}-{key}.npz", gpc=2.0 * tables.gpc)
        assert diskcache.load_edge_operator(tables, "lowrank") is None
        assert diskcache.load_tables(tables.grid) is None
        op = cached_edge_operator(tables, "lowrank")
        x = np.random.default_rng(0).normal(size=tables.grid.size)
        np.testing.assert_array_equal(op.apply(x), fresh.apply(x))
        assert _operator_entry(tmp_path, tables.grid, "lowrank").is_dir()

    def test_v1_layout_under_the_current_name_is_a_miss(self, tmp_path, stale):
        """Even if a format-1 payload ends up under a current name (a
        hand-copied cache directory), the slot-count mismatch rejects it."""
        tables, _, arrays = stale
        _write_entry(_operator_entry(tmp_path, tables.grid, "lowrank"), arrays)
        assert diskcache.load_edge_operator(tables, "lowrank") is None


def _fingerprint(value):
    """Every field of a (nested) result, arrays by bytes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return tuple(
            (f.name, _fingerprint(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(_fingerprint(v) for v in value)
    return repr(value)


class TestWarmCacheFits:
    """A fit on tables and an operator mapped from a warm cache directory
    is byte-identical to one on a cold build, for every engine method."""

    @pytest.mark.parametrize("method", ["toeplitz", "lowrank"])
    def test_warm_cache_fits_match_a_cold_build(self, tmp_path, monkeypatch, shot33, method):
        from repro.batch import BatchFitEngine, synthetic_slice_sequence
        from repro.efit.fitting import EfitSolver
        from repro.efit.operators import cached_edge_operator
        from tests.serve.conftest import serve_reports

        slices = synthetic_slice_sequence(shot33, 4, seed=7)
        args = (shot33.machine, shot33.diagnostics, shot33.grid)

        def fits():
            boundary_table_cache().clear()
            op = cached_edge_operator(cached_boundary_tables(shot33.grid), method)
            serial = EfitSolver(*args, pflux_impl=op).fit(slices[0])
            engine = BatchFitEngine(*args, batch_size=4, edge_operator=op)
            served = [r.result for r in serve_reports(engine, slices[:2])]
            return op, _fingerprint((serial, engine.fit_many(slices).results, served))

        monkeypatch.delenv(diskcache.CACHE_DIR_ENV, raising=False)
        _, cold = fits()
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
        fits()  # builds, and stores the entries
        op, warm = fits()
        monkeypatch.delenv(diskcache.CACHE_DIR_ENV)
        boundary_table_cache().clear()
        assert not op.to_arrays()["vert_spectra"].flags.writeable  # mapped from disk
        assert warm == cold
