"""Shared snapshot schema for the golden-equilibrium regression tests.

``equilibrium_snapshot`` reduces a :class:`~repro.efit.fitting.FitResult`
to a small JSON-friendly dict of physics scalars, psi checksums and the
magnetic topology; the regeneration script (``python
tests/golden/regenerate.py``) writes them and
``test_golden_equilibria.py`` compares fresh reconstructions against the
committed artifacts.

The case list comes from the scenario registry: every scenario owns
one committed artifact, so adding a scenario to
:mod:`repro.scenarios.definitions` automatically enrols it here.

Schema history:

* v1 — physics scalars + psi checksums of the two DIII-D-like cases.
* v2 — adds ``scenario`` and ``xpoints_in_limiter`` (the diverted
  scenarios pin their X-point count, not just the boundary type).
"""

from __future__ import annotations

import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent
GOLDEN_SCHEMA_VERSION = 2


def golden_cases() -> dict[str, str]:
    """case name -> artifact filename, from the scenario registry."""
    from repro.scenarios import get_scenario, scenario_names

    return {sc.name: sc.golden_artifact for sc in map(get_scenario, scenario_names())}


#: case name -> artifact file for every golden-tracked scenario.
CASES = golden_cases()


def make_shot(case: str, n: int = 65):
    """Build the synthetic shot for a golden case name."""
    from repro.scenarios import get_scenario

    return get_scenario(case).make_shot(n)


def reconstruct(case: str, n: int = 65):
    """Run the full reconstruction a golden case snapshots."""
    from repro.efit.fitting import EfitSolver
    from repro.scenarios import get_scenario

    sc = get_scenario(case)
    shot = sc.make_shot(n)
    solver = EfitSolver.for_scenario(sc, shot=shot)
    return solver.fit(shot.measurements)


def count_xpoints(case: str, result, n: int = 65) -> int:
    """X-points of the converged flux map inside the machine limiter."""
    from repro.efit.boundary import find_xpoints
    from repro.scenarios import get_scenario

    sc = get_scenario(case)
    shot = sc.make_shot(n)
    return sum(
        1
        for rx, zx, _ in find_xpoints(shot.grid, result.psi, max_points=6)
        if bool(shot.machine.limiter.contains(rx, zx))
    )


def equilibrium_snapshot(case: str, result, n: int = 65) -> dict:
    """The golden record: psi checksums plus the physics scalars."""
    psi = result.psi
    boundary = result.boundary
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "case": case,
        "scenario": case,
        "grid": [n, n],
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "chi2": float(result.chi2),
        "residual": float(result.residual),
        "ip": float(result.ip),
        "psi_sum": float(psi.sum()),
        "psi_l1": float(abs(psi).sum()),
        "psi_l2": float(math.sqrt((psi * psi).sum())),
        "psi_axis": float(boundary.psi_axis),
        "psi_boundary": float(boundary.psi_boundary),
        "r_axis": float(boundary.r_axis),
        "z_axis": float(boundary.z_axis),
        "boundary_type": boundary.boundary_type,
        "plasma_volume_cells": int(boundary.plasma_volume_cells),
        "xpoints_in_limiter": count_xpoints(case, result, n),
    }
