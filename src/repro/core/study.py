"""The portability study driver: every sweep behind Tables 1-7, Figures 1-7.

CPU-side times come from the calibrated analytic model (FLOP counts of the
actual kernels over per-core sustained rates — see
:mod:`repro.calibration`); GPU-side times come from running the offload
model (:class:`~repro.core.offload.PfluxOffloadModel`) on the simulated
device of each site.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calibration import (
    CPU_OPTIMIZATION_SPEEDUP,
    NONPFLUX_GPU_BUILD_SPEEDUP,
    NONPFLUX_SECONDS_PER_N2,
    NONPFLUX_SPLIT,
)
from repro.compilers.flags import parse_flags
from repro.core.offload import PfluxOffloadModel
from repro.core.paper import GRID_SIZES
from repro.errors import CalibrationError, UnsupportedTargetError
from repro.machines.site import MachineSite
from repro.utils.constants import MIB

__all__ = [
    "cpu_pflux_seconds",
    "cpu_nonpflux_seconds",
    "cpu_fit_seconds",
    "fit_breakdown_cpu",
    "PfluxGpuResult",
    "PortabilityStudy",
]

#: FLOPs of one pflux_ call: two O(N^3) boundary loop pairs at 4 FLOPs per
#: inner iteration (8 N^3 total) plus the O(N^2) remainder (RHS build,
#: fast solver, assembly) at ~40 FLOPs per grid point.
def _pflux_flops(n: int) -> float:
    return 8.0 * float(n) ** 3 + 40.0 * float(n) ** 2


def cpu_pflux_seconds(site: MachineSite, n: int, *, optimized: bool = False) -> float:
    """Single-core ``pflux_`` time (Table 2 baseline / optimized variant)."""
    cpu = site.cpu
    rate = cpu.sustained_gflops(optimized) * 1e9
    if float(n) ** 3 * 8.0 <= cpu.llc_mib * MIB:
        rate *= cpu.cache_boost
    return _pflux_flops(n) / rate


def cpu_nonpflux_seconds(site: MachineSite, n: int) -> float:
    """Everything in ``fit_`` except ``pflux_`` — calibrated O(N^2)."""
    try:
        coeff = NONPFLUX_SECONDS_PER_N2[site.name]
    except KeyError:
        raise CalibrationError(f"no non-pflux calibration for site {site.name!r}") from None
    return coeff * float(n) ** 2


def cpu_fit_seconds(site: MachineSite, n: int) -> float:
    """Full ``fit_`` invocation time on one core (Table 1)."""
    return cpu_pflux_seconds(site, n) + cpu_nonpflux_seconds(site, n)


def fit_breakdown_cpu(site: MachineSite, n: int) -> dict[str, float]:
    """Per-subroutine shares of ``fit_`` on the CPU (Figure 1 pies)."""
    pflux = cpu_pflux_seconds(site, n)
    nonpflux = cpu_nonpflux_seconds(site, n)
    total = pflux + nonpflux
    shares = {"pflux_": pflux / total}
    for name, frac in NONPFLUX_SPLIT.items():
        shares[name] = frac * nonpflux / total
    return shares


@dataclass(frozen=True)
class PfluxGpuResult:
    """One offloaded configuration at one grid size."""

    site: str
    model: str
    n: int
    seconds: float
    speedup: float
    per_kernel: dict[str, float]
    boundary_dram_bytes: float
    h2d_bytes: float
    d2h_bytes: float
    page_faults: int


@dataclass
class PortabilityStudy:
    """Runs the paper's sweeps over one or more sites."""

    sites: tuple[MachineSite, ...]
    grid_sizes: tuple[int, ...] = GRID_SIZES
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def site(self, name: str) -> MachineSite:
        for s in self.sites:
            if s.name == name:
                return s
        raise CalibrationError(f"study has no site named {name!r}")

    # -- GPU runs -------------------------------------------------------------------
    def _build(self, site: MachineSite, model: str):
        return site.compiler.configure(parse_flags(site.flags(model)), site.env, site.gpu)

    def gpu_pflux(self, site: MachineSite, model: str, n: int) -> PfluxGpuResult:
        """Steady-state offloaded ``pflux_`` at one configuration."""
        key = (site.name, site.env.variables.get("CRAY_MALLOPT_OFF"), model, n)
        if key in self._cache:
            return self._cache[key]
        build = self._build(site, model)
        offload = PfluxOffloadModel(n, n, build)
        offload.invoke()  # warm-up: stages the Green tables
        counters = offload.executor.counters
        before = {
            "dram": counters.kernel("boundary_lr").dram_bytes
            + counters.kernel("boundary_tb").dram_bytes,
            "h2d": counters.h2d_bytes,
            "d2h": counters.d2h_bytes,
            "faults": counters.page_faults,
        }
        per_kernel = offload.invoke()
        result = PfluxGpuResult(
            site=site.name,
            model=model,
            n=n,
            seconds=per_kernel["__total__"],
            speedup=cpu_pflux_seconds(site, n) / per_kernel["__total__"],
            per_kernel={k: v for k, v in per_kernel.items() if k != "__total__"},
            boundary_dram_bytes=(
                counters.kernel("boundary_lr").dram_bytes
                + counters.kernel("boundary_tb").dram_bytes
                - before["dram"]
            ),
            h2d_bytes=counters.h2d_bytes - before["h2d"],
            d2h_bytes=counters.d2h_bytes - before["d2h"],
            page_faults=counters.page_faults - before["faults"],
        )
        self._cache[key] = result
        return result

    def gpu_fit_seconds(self, site: MachineSite, model: str, n: int) -> float:
        """``fit_`` per-invocation time in the GPU build: offloaded
        ``pflux_`` plus the host-resident remainder (which also gained the
        general code optimisations — see calibration)."""
        pflux = self.gpu_pflux(site, model, n).seconds
        host = cpu_nonpflux_seconds(site, n) / NONPFLUX_GPU_BUILD_SPEEDUP[site.name]
        return pflux + host

    def fit_breakdown_gpu(self, site: MachineSite, model: str, n: int) -> dict[str, float]:
        """Figure 6: per-subroutine shares of ``fit_`` after offload."""
        pflux = self.gpu_pflux(site, model, n).seconds
        host = cpu_nonpflux_seconds(site, n) / NONPFLUX_GPU_BUILD_SPEEDUP[site.name]
        total = pflux + host
        shares = {"pflux_": pflux / total}
        for name, frac in NONPFLUX_SPLIT.items():
            shares[name] = frac * host / total
        return shares

    # -- sweeps ----------------------------------------------------------------------
    def sweep_models(self, site: MachineSite) -> dict[str, dict[int, PfluxGpuResult]]:
        """All buildable models at one site over all grid sizes."""
        out: dict[str, dict[int, PfluxGpuResult]] = {}
        for model in ("openacc", "openmp"):
            try:
                self._build(site, model)
            except (UnsupportedTargetError, Exception) as exc:
                if model not in site.models or model not in site.flag_lines:
                    continue
                raise exc
            out[model] = {n: self.gpu_pflux(site, model, n) for n in self.grid_sizes}
        return out

    def speedup_summary(self, site: MachineSite) -> dict[str, dict[int, float]]:
        """Figure 7 series for one site: optimized CPU + each GPU model
        (baseline CPU is the 1x reference)."""
        series: dict[str, dict[int, float]] = {
            "cpu_optimized": {
                n: cpu_pflux_seconds(site, n)
                / cpu_pflux_seconds(site, n, optimized=True)
                for n in self.grid_sizes
            }
        }
        for model, results in self.sweep_models(site).items():
            series[model] = {n: r.speedup for n, r in results.items()}
        # Consistency: the optimized-CPU series is the 3x of Section 6.
        assert all(
            abs(v - CPU_OPTIMIZATION_SPEEDUP) < 0.5
            for v in series["cpu_optimized"].values()
        )
        return series
