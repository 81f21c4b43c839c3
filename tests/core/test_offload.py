"""Tests of the offloaded pflux_ model: arrays, launches, capacity."""

import pytest

from repro.compilers.flags import parse_flags
from repro.core.offload import PfluxOffloadModel, build_pflux_registry, pflux_device_arrays
from repro.machines.site import frontier, perlmutter, sunspot
from repro.runtime.memory import Direction


def build_for(site, model="openmp"):
    return site.compiler.configure(parse_flags(site.flags(model)), site.env, site.gpu)


class TestDeviceArrays:
    def test_array_population(self):
        arrays = pflux_device_arrays(65)
        names = [a.name for a in arrays]
        assert "gridpc" in names and "pcurr" in names and "psi" in names
        scratch = [a for a in arrays if a.direction is Direction.SCRATCH]
        from repro.calibration import TEMP_WORK_ARRAYS

        assert len(scratch) == TEMP_WORK_ARRAYS
        assert all(not a.persistent for a in scratch)

    def test_gridpc_is_the_big_one(self):
        arrays = {a.name: a for a in pflux_device_arrays(513)}
        assert arrays["gridpc"].nbytes == pytest.approx(513**3 * 8)
        assert arrays["gridpc"].nbytes > 1e9  # the unified-memory stressor


class TestOffloadModel:
    def test_steady_state_cheaper_than_first_call(self):
        model = PfluxOffloadModel(129, 129, build_for(perlmutter()))
        first = model.invoke()["__total__"]
        second = model.invoke()["__total__"]
        assert second < first  # Green tables staged once

    def test_per_kernel_times_positive_and_sum(self):
        model = PfluxOffloadModel(65, 65, build_for(frontier()))
        per = model.invoke()
        total = per.pop("__total__")
        assert all(v > 0 for v in per.values())
        assert sum(per.values()) <= total + 1e-12

    def test_all_registry_kernels_launched(self):
        model = PfluxOffloadModel(65, 65, build_for(perlmutter()))
        per = model.invoke()
        for kernel in build_pflux_registry(65):
            assert kernel.name in per

    def test_amd_uses_wavefront_vector_length(self):
        model = PfluxOffloadModel(65, 65, build_for(frontier(), "openacc"))
        acc = model.registry.get("boundary_lr").acc_directives[0]
        assert acc.vector_length == 64
        nvidia = PfluxOffloadModel(65, 65, build_for(perlmutter(), "openacc"))
        assert nvidia.registry.get("boundary_lr").acc_directives[0].vector_length == 32

    def test_intel_counts_host_transfers(self):
        model = PfluxOffloadModel(65, 65, build_for(sunspot()))
        model.invoke()
        model.invoke()
        assert model.executor.counters.h2d_bytes > 0
        assert model.executor.counters.d2h_bytes > 0


class TestCapacity:
    def test_paper_grids_fit_everywhere(self):
        for site in (perlmutter(), frontier(), sunspot()):
            b = build_for(site, site.models[0])
            for n in (65, 513):
                PfluxOffloadModel(n, n, b)

    def test_oversized_grid_rejected(self):
        """2049^2 needs a 68 GB Green table: over the A100's 40 GiB."""
        from repro.errors import RuntimeModelError

        with pytest.raises(RuntimeModelError):
            PfluxOffloadModel(2049, 2049, build_for(perlmutter()))

    def test_1025_fits_on_mi250x_but_not_a100_with_headroom(self):
        """1025^2 Green tables are 8.6 GB: fine on every paper device."""
        PfluxOffloadModel(1025, 1025, build_for(frontier()))
        PfluxOffloadModel(1025, 1025, build_for(perlmutter()))
