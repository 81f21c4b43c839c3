"""A fresh ``TMPDIR`` for the fleet's tests, swept for leaked arenas."""

from __future__ import annotations

import tempfile

import pytest


@pytest.fixture(scope="package", autouse=True)
def arena_tmpdir(tmp_path_factory):
    """Every arena these tests build lands in one directory of their own;
    when the last of them is done, none may be left in it."""
    path = tmp_path_factory.mktemp("arena_tmpdir")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TMPDIR", str(path))
        patch.setattr(tempfile, "tempdir", None)  # gettempdir() caches it
        yield path
    leaked = sorted(p.name for p in path.glob("repro_arena_*"))
    assert not leaked, f"table arenas left behind in TMPDIR: {leaked}"
