"""Shared fixtures.

Expensive objects (the synthetic shot, Green tables, the reference
machine) are session-scoped: they are deterministic and read-only in every
test that uses them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.efit.fitting import EfitSolver
from repro.efit.grid import RZGrid
from repro.efit.machine import diiid_like_machine
from repro.efit.measurements import synthetic_shot_186610
from repro.efit.solovev import SolovevEquilibrium
from repro.efit.tables import cached_boundary_tables


@pytest.fixture(scope="session")
def machine():
    return diiid_like_machine()


@pytest.fixture(scope="session")
def grid33():
    return RZGrid(33, 33)


@pytest.fixture(scope="session")
def grid_rect():
    """A deliberately non-square grid to catch nw/nh transposition bugs."""
    return RZGrid(17, 23)


@pytest.fixture(scope="session")
def tables_rect(grid_rect):
    return cached_boundary_tables(grid_rect)


@pytest.fixture(scope="session")
def solovev():
    return SolovevEquilibrium.shaped()


@pytest.fixture(scope="session")
def shot33():
    return synthetic_shot_186610(33)


@pytest.fixture()
def rng():
    return np.random.default_rng(20230513)


def _flat_seed(solver, weighted_data, weights, psi_external, statics):
    return list(np.zeros_like(psi_external))


def refuse_measured_seeds(monkeypatch) -> None:
    """Make every cold start take the filament seed and its warm-up — the
    paper's cold start, and the path a measured seed whose trust probe
    fails takes: each measured seed becomes a flat map, which the probe
    refuses (the stack of them is searched map by map)."""
    monkeypatch.setattr(EfitSolver, "_measured_psi", _flat_seed)


@pytest.fixture()
def filament_cold_start(monkeypatch):
    """:func:`refuse_measured_seeds` for one test."""
    refuse_measured_seeds(monkeypatch)
