"""Scenario zoo: registered machine/shot configurations.

``from repro.scenarios import get_scenario`` is the single entry point
the CLI, the fitting engines, the golden-regression suite and the
benchmark suite share to address a workload by name::

    sc = get_scenario("double-null")
    shot = sc.make_shot(65)
    solver = EfitSolver.for_scenario(sc, shot=shot)

Importing the package registers the built-in zoo (see
:mod:`repro.scenarios.definitions`):

========================  ========  ==========  =======================
name                      topology  X-points    machine
========================  ========  ==========  =======================
``g186610``               limiter   0           DIII-D-like baseline
``solovev``               limiter   0           DIII-D-like, analytic
``spherical-torus``       limiter   0           NSTX-U-scale, 16.5 MA
``double-null``           xpoint    2           balanced double-null
``single-null``           xpoint    1           asymmetric lower null
``mse``                   limiter   0           baseline + 12 MSE chords
========================  ========  ==========  =======================
"""

from repro.scenarios.definitions import DEFAULT_SCENARIO
from repro.scenarios.registry import (
    Scenario,
    get_scenario,
    register,
    scenario_names,
)

__all__ = [
    "DEFAULT_SCENARIO",
    "Scenario",
    "get_scenario",
    "register",
    "scenario_names",
]
