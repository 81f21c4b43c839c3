"""The scenario zoo: every registered machine/shot configuration.

Importing this module (or the :mod:`repro.scenarios` package) populates
the registry.  Declared geometry is the *machine design* value; the
convergence envelopes are ceilings a healthy reconstruction stays well
inside at the default 65^2 grid and noise level — chosen roughly 2x
above the observed converged values so BLAS jitter never trips them
while a physics regression still does.
"""

from __future__ import annotations

from repro.scenarios.registry import Scenario, register

__all__ = ["DEFAULT_SCENARIO"]

#: The scenario CLI commands fall back to when ``--scenario`` is absent.
DEFAULT_SCENARIO = "g186610"


# Shot factories import their machinery on first call so that importing
# the registry (e.g. to build the CLI's --scenario choice list) stays
# free of numpy/scipy and the efit table caches.
def _shot_186610(n, *, noise, seed):
    from repro.efit.measurements import synthetic_shot_186610

    return synthetic_shot_186610(n, noise=noise, seed=seed)


def _shot_solovev(n, *, noise, seed):
    from repro.efit.measurements import synthetic_solovev_shot

    return synthetic_solovev_shot(n, noise=noise, seed=seed)


def _shot_spherical_torus(n, *, noise, seed):
    from repro.scenarios.shots import spherical_torus_shot

    return spherical_torus_shot(n, noise=noise, seed=seed)


def _shot_double_null(n, *, noise, seed):
    from repro.scenarios.shots import double_null_shot

    return double_null_shot(n, noise=noise, seed=seed)


def _shot_single_null(n, *, noise, seed):
    from repro.scenarios.shots import single_null_shot

    return single_null_shot(n, noise=noise, seed=seed)


def _shot_mse(n, *, noise, seed):
    from repro.scenarios.shots import mse_shot

    return mse_shot(n, noise=noise, seed=seed)


register(
    Scenario(
        name="g186610",
        description="DIII-D-like baseline: the paper's shot #186610 analog",
        machine="DIII-D-like",
        shot_factory=_shot_186610,
        boundary_type="limiter",
        n_xpoints=0,
        ip=1.0e6,
        r0=1.69,
        aspect_ratio=2.9,
        elongation=1.8,
        max_iterations=20,
        max_chi2=250.0,
        default_seed=186610,
    )
)

register(
    Scenario(
        name="solovev",
        description="Analytic Solov'ev truth on the DIII-D-like machine",
        machine="DIII-D-like",
        shot_factory=_shot_solovev,
        boundary_type="limiter",
        n_xpoints=0,
        ip=1.0e6,
        r0=1.69,
        aspect_ratio=3.4,
        elongation=1.3,
        max_iterations=30,
        max_chi2=1100.0,
        default_seed=20260806,
    )
)

register(
    Scenario(
        name="spherical-torus",
        description="NSTX-U-scale spherical torus: 16.5 MA, kappa ~ 2.8, limited",
        machine="spherical-torus",
        shot_factory=_shot_spherical_torus,
        boundary_type="limiter",
        n_xpoints=0,
        ip=16.5e6,
        r0=2.5,
        aspect_ratio=1.6,
        elongation=2.8,
        max_iterations=26,
        max_chi2=600.0,
        default_seed=20260801,
    )
)

register(
    Scenario(
        name="double-null",
        description="Balanced double-null diverted discharge (two X-points)",
        machine="double-null",
        shot_factory=_shot_double_null,
        boundary_type="xpoint",
        n_xpoints=2,
        ip=1.0e6,
        r0=1.69,
        aspect_ratio=2.8,
        elongation=2.4,
        max_iterations=26,
        max_chi2=400.0,
        default_seed=20260802,
    )
)

register(
    Scenario(
        name="single-null",
        description="Up-down-asymmetric lower single-null diverted discharge",
        machine="single-null",
        shot_factory=_shot_single_null,
        boundary_type="xpoint",
        n_xpoints=1,
        ip=1.0e6,
        r0=1.69,
        aspect_ratio=2.8,
        elongation=2.1,
        max_iterations=32,
        max_chi2=500.0,
        default_seed=20260803,
    )
)

register(
    Scenario(
        name="mse",
        description="g186610 baseline re-fit with 12 MSE internal-field channels",
        machine="DIII-D-like",
        shot_factory=_shot_mse,
        boundary_type="limiter",
        n_xpoints=0,
        ip=1.0e6,
        r0=1.69,
        aspect_ratio=2.9,
        elongation=1.8,
        max_iterations=26,
        max_chi2=400.0,
        default_seed=186610,
    )
)
