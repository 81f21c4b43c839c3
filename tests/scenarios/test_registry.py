"""Registry contracts: declaration validation, lookup errors, defaults.

These tests deliberately import only :mod:`repro.scenarios` (plus the
error types) — the registry promises to stay import-light so the CLI can
build its ``--scenario`` choice list at parser-construction time, and a
test that drags numpy in through the registry would mask a regression of
that promise (see ``test_registry_is_import_light``).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import ReproError, ScenarioError
from repro.scenarios import (
    DEFAULT_SCENARIO,
    Scenario,
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.registry import DEFAULT_NOISE

EXPECTED = {
    "g186610",
    "solovev",
    "spherical-torus",
    "double-null",
    "single-null",
    "mse",
}


def _stub_factory(n, *, noise, seed):  # pragma: no cover - never called
    raise AssertionError("stub factory must not run")


def _scenario(**overrides) -> Scenario:
    base = dict(
        name="stub",
        description="a stub",
        machine="stub-machine",
        shot_factory=_stub_factory,
        boundary_type="limiter",
        n_xpoints=0,
        ip=1e6,
        r0=1.7,
        aspect_ratio=3.1,
        elongation=1.8,
        max_iterations=50,
        max_chi2=200.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestRegistryContents:
    def test_all_expected_scenarios_registered(self):
        assert EXPECTED <= set(scenario_names())

    def test_default_scenario_is_registered(self):
        assert DEFAULT_SCENARIO in scenario_names()

    def test_topology_declarations(self):
        assert get_scenario("double-null").n_xpoints == 2
        assert get_scenario("double-null").boundary_type == "xpoint"
        assert get_scenario("single-null").n_xpoints == 1
        assert get_scenario("spherical-torus").boundary_type == "limiter"
        assert get_scenario("mse").boundary_type == "limiter"

    def test_spherical_torus_declares_st_parameters(self):
        """The ST scenario carries the paper-style machine parameters."""
        st = get_scenario("spherical-torus")
        assert st.aspect_ratio < 2.0
        assert st.elongation > 2.0
        assert st.ip == pytest.approx(16.5e6)

    def test_golden_artifact_naming(self):
        assert (
            get_scenario("double-null").golden_artifact == "golden_double_null_65.json"
        )


class TestLookupAndRegistration:
    def test_unknown_scenario_raises_with_known_list(self):
        with pytest.raises(ScenarioError) as exc:
            get_scenario("no-such-machine")
        message = str(exc.value)
        for name in EXPECTED:
            assert name in message

    def test_scenario_error_is_a_repro_error(self):
        assert issubclass(ScenarioError, ReproError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register(_scenario(name=DEFAULT_SCENARIO))

    def test_register_returns_scenario(self, monkeypatch):
        from repro.scenarios import registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        sc = _scenario(name="stub-new")
        assert registry.register(sc) is sc
        assert registry.get_scenario("stub-new") is sc


class TestDeclarationValidation:
    @pytest.mark.parametrize("name", ["", "has space", "has/slash"])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ScenarioError, match="invalid scenario name"):
            _scenario(name=name)

    def test_bad_boundary_type_rejected(self):
        with pytest.raises(ScenarioError, match="boundary_type"):
            _scenario(boundary_type="divertor")

    @pytest.mark.parametrize(
        ("boundary_type", "n_xpoints"),
        [("limiter", 1), ("xpoint", 0), ("limiter", -1)],
    )
    def test_inconsistent_topology_rejected(self, boundary_type, n_xpoints):
        with pytest.raises(ScenarioError, match="inconsistent|X-point"):
            _scenario(boundary_type=boundary_type, n_xpoints=n_xpoints)

    @pytest.mark.parametrize(
        "overrides", [{"max_iterations": 0}, {"max_chi2": 0.0}, {"max_chi2": -5.0}]
    )
    def test_nonpositive_envelope_rejected(self, overrides):
        with pytest.raises(ScenarioError, match="envelope"):
            _scenario(**overrides)


class TestShotDefaults:
    def test_make_shot_applies_declared_defaults(self):
        calls = []

        def spy(n, *, noise, seed):
            calls.append((n, noise, seed))
            return "shot"

        sc = _scenario(name="stub-spy", shot_factory=spy, default_seed=7)
        assert sc.make_shot(33) == "shot"
        assert sc.make_shot(33, noise=0.0) == "shot"
        assert sc.shot_factory(33, noise=0.0, seed=1) == "shot"
        assert calls == [(33, DEFAULT_NOISE, 7), (33, 0.0, 7), (33, 0.0, 1)]


def test_registry_is_import_light():
    """``import repro.scenarios`` must not pull in numpy (the CLI builds
    its ``--scenario`` choices from the registry before any heavy import)."""
    code = (
        "import sys; import repro.scenarios; "
        "sys.exit(1 if 'numpy' in sys.modules else 0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, "importing repro.scenarios loaded numpy"
