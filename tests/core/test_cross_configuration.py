"""Cross-configuration invariants of the whole performance model.

Sweeps every buildable (site, model, grid) combination and checks the
internal consistency the individual calibration tests take for granted:
times positive and additive, counters consistent with repeat invocations,
speedups consistent with the CPU model, determinism across rebuilds.
"""

import pytest

from repro.core.study import PortabilityStudy, cpu_fit_seconds, cpu_pflux_seconds
from repro.machines.site import ALL_SITES

GRIDS = (65, 129)


def _configs():
    for site in ALL_SITES():
        for model in site.models:
            for n in GRIDS:
                yield pytest.param(site, model, n, id=f"{site.name}-{model}-{n}")


@pytest.fixture(scope="module")
def study():
    return PortabilityStudy(ALL_SITES(), grid_sizes=GRIDS)


@pytest.mark.parametrize("site,model,n", list(_configs()))
class TestEveryConfiguration:
    def test_time_positive_and_kernels_add_up(self, study, site, model, n):
        r = study.gpu_pflux(study.site(site.name), model, n)
        assert r.seconds > 0
        assert sum(r.per_kernel.values()) <= r.seconds * (1 + 1e-9)
        assert r.per_kernel["boundary_lr"] > 0 and r.per_kernel["boundary_tb"] > 0

    def test_speedup_definition(self, study, site, model, n):
        s = study.site(site.name)
        r = study.gpu_pflux(s, model, n)
        assert r.speedup == pytest.approx(cpu_pflux_seconds(s, n) / r.seconds)

    def test_counters_positive(self, study, site, model, n):
        r = study.gpu_pflux(study.site(site.name), model, n)
        assert r.boundary_dram_bytes > 0
        # Unified-memory sites move pcurr/psi per call; Intel maps them.
        assert r.h2d_bytes > 0
        assert r.d2h_bytes > 0

    def test_fit_bounds(self, study, site, model, n):
        """GPU fit_ is bounded below by its pflux_ and above by CPU fit_
        at the sizes where offload pays (here acceleration may be < 1 at
        65^2; only check the lower bound and internal ordering)."""
        s = study.site(site.name)
        fit = study.gpu_fit_seconds(s, model, n)
        pflux = study.gpu_pflux(s, model, n).seconds
        assert fit > pflux
        shares = study.fit_breakdown_gpu(s, model, n)
        assert shares["pflux_"] == pytest.approx(pflux / fit)


class TestMonotonicity:
    def test_gpu_time_grows_with_grid(self, study):
        for site in study.sites:
            for model in site.models:
                t65 = study.gpu_pflux(site, model, 65).seconds
                t129 = study.gpu_pflux(site, model, 129).seconds
                assert t129 > t65

    def test_cpu_models_grow_with_grid(self, study):
        for site in study.sites:
            assert cpu_pflux_seconds(site, 129) > cpu_pflux_seconds(site, 65)
            assert cpu_fit_seconds(site, 129) > cpu_fit_seconds(site, 65)

    def test_optimized_cpu_faster(self, study):
        for site in study.sites:
            for n in GRIDS:
                assert cpu_pflux_seconds(site, n, optimized=True) < cpu_pflux_seconds(site, n)


class TestDeterminism:
    def test_identical_across_fresh_studies(self):
        a = PortabilityStudy(ALL_SITES(), grid_sizes=(65,))
        b = PortabilityStudy(ALL_SITES(), grid_sizes=(65,))
        for site_a, site_b in zip(a.sites, b.sites):
            for model in site_a.models:
                ra = a.gpu_pflux(site_a, model, 65)
                rb = b.gpu_pflux(site_b, model, 65)
                assert ra.seconds == rb.seconds
                assert ra.per_kernel == rb.per_kernel
                assert ra.page_faults == rb.page_faults


class TestNonPaperGrids:
    """The model is a smooth function of N, not a lookup of the four
    paper sizes: intermediate grids interpolate sensibly."""

    def test_intermediate_grid_times_bracketed(self):
        study = PortabilityStudy(ALL_SITES(), grid_sizes=(65, 97, 129))
        for site in study.sites:
            for model in site.models:
                t65 = study.gpu_pflux(site, model, 65).seconds
                t97 = study.gpu_pflux(site, model, 97).seconds
                t129 = study.gpu_pflux(site, model, 129).seconds
                assert t65 < t97 < t129

    def test_rectangular_grid_supported(self):
        from repro.compilers.flags import parse_flags
        from repro.core.offload import PfluxOffloadModel

        site = ALL_SITES()[0]
        build = site.compiler.configure(
            parse_flags(site.flags("openmp")), site.env, site.gpu
        )
        model = PfluxOffloadModel(65, 129, build)
        per = model.invoke()
        assert per["__total__"] > 0

    def test_cpu_model_smooth(self):
        site = ALL_SITES()[2]  # Sunspot has the cache crossover
        times = [cpu_pflux_seconds(site, n) for n in (65, 97, 129, 193, 257)]
        assert all(a < b for a, b in zip(times, times[1:]))
