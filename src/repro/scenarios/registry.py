"""The scenario registry: declarative machine/shot configurations.

A :class:`Scenario` bundles everything one reconstruction workload needs
to be runnable *and checkable* from anywhere in the tree — CLI, batch
and parallel engines, golden-regression suite, benchmarks:

* a synthetic-shot factory (machine geometry + ground-truth equilibrium
  + diagnostic measurements),
* the expected magnetic topology (limited or diverted, how many
  X-points the converged reconstruction must find inside the limiter),
* a convergence envelope (iteration and chi^2 ceilings a healthy
  reconstruction stays inside), and
* solver keyword overrides the reconstruction needs for that machine
  (e.g. an off-midplane seed filament for up-down-asymmetric plasmas).

This module is import-light on purpose: registering and listing
scenarios touches no numpy, no Green functions, no solver tables — the
CLI builds its ``--scenario`` choices from :func:`scenario_names` at
parser-construction time.  All heavy work happens inside the shot
factory, which every concrete scenario defers until first call (and
caches thereafter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ScenarioError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.efit.measurements import SyntheticShot

__all__ = ["Scenario", "register", "get_scenario", "scenario_names"]

#: Relative measurement noise of every scenario's shot unless a caller
#: asks for another.
DEFAULT_NOISE = 1e-3


@dataclass(frozen=True)
class Scenario:
    """One registered machine/shot configuration.

    Parameters
    ----------
    shot_factory:
        ``(n, *, noise, seed) -> SyntheticShot``; must be deterministic
        for fixed arguments (golden artifacts depend on it).
    boundary_type:
        Expected converged topology: ``"limiter"`` or ``"xpoint"``.
    n_xpoints:
        X-points the converged reconstruction must place inside the
        limiter (0 for limited plasmas, 1 for single-null, 2 for
        double-null).
    max_iterations / max_chi2:
        Convergence envelope at the default grid and :data:`DEFAULT_NOISE`: a healthy
        reconstruction converges within ``max_iterations`` Picard
        iterations with ``chi2 <= max_chi2``.  The iteration ceiling is
        about twice the filament start's cold count (10-17 at 33^2 and
        65^2), so
        a scheme that slips back towards the damped 35-70 trips it.

    The golden-regression suite maintains one artifact per scenario
    (:attr:`golden_artifact`).
    """

    name: str
    description: str
    machine: str
    shot_factory: Callable[..., "SyntheticShot"]
    boundary_type: str
    n_xpoints: int
    ip: float
    r0: float
    aspect_ratio: float
    elongation: float
    max_iterations: int
    max_chi2: float
    default_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or " " in self.name:
            raise ScenarioError(f"invalid scenario name {self.name!r}")
        if self.boundary_type not in ("limiter", "xpoint"):
            raise ScenarioError(
                f"scenario {self.name!r}: boundary_type must be 'limiter' or "
                f"'xpoint', got {self.boundary_type!r}"
            )
        if self.n_xpoints < 0 or (self.boundary_type == "limiter") != (self.n_xpoints == 0):
            raise ScenarioError(
                f"scenario {self.name!r}: {self.n_xpoints} X-point(s) is "
                f"inconsistent with boundary_type {self.boundary_type!r}"
            )
        if self.max_iterations < 1 or self.max_chi2 <= 0.0:
            raise ScenarioError(
                f"scenario {self.name!r}: convergence envelope must be positive"
            )

    def make_shot(self, n: int = 65, *, noise: float | None = None) -> "SyntheticShot":
        """Build (or fetch from cache) the synthetic shot at grid ``n``,
        drawn with :attr:`default_seed` (another seed:
        ``shot_factory(n, noise=, seed=)``)."""
        return self.shot_factory(
            n,
            noise=DEFAULT_NOISE if noise is None else noise,
            seed=self.default_seed,
        )

    @staticmethod
    def construct(
        factory, scenario: "str | Scenario", n: int | None = None, *, shot=None, **overrides
    ):
        """The one ``for_scenario`` behind the solver and both engines:
        ``factory(machine, diagnostics, grid, **kwargs)`` on ``shot`` when
        one is already built, else on the shot of ``scenario`` (a
        registered name or a :class:`Scenario`) at grid ``n`` (65 when not
        given), with ``overrides`` as keywords.  With a ``shot``, ``n``
        defaults to its grid, and another ``n`` is a
        :class:`~repro.errors.ScenarioError`."""
        sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
        if shot is None:
            shot = sc.make_shot(65 if n is None else n)
        elif n is not None and n != shot.grid.nw:
            raise ScenarioError(
                f"grid {n} disagrees with the {shot.grid.nw}x{shot.grid.nh} grid of the given shot"
            )
        return factory(shot.machine, shot.diagnostics, shot.grid, **overrides)

    @property
    def golden_artifact(self) -> str:
        """Filename of the committed golden snapshot for this scenario."""
        return f"golden_{self.name.replace('-', '_')}_65.json"


_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (rejects duplicate names)."""
    if scenario.name in _REGISTRY:
        raise ScenarioError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario; raises :class:`ScenarioError` with the full list."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ScenarioError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names() -> tuple[str, ...]:
    """Registered names in registration order (the CLI's choice list)."""
    return tuple(_REGISTRY)
