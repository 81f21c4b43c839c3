"""A-file output: the scalar results record of one time slice.

Alongside the g-file flux map, EFIT writes an "a-file" of scalar results —
plasma current, axis position, shape, q95, beta_p, li, stored energy, fit
quality.  The historical a-file is a rigid Fortran record; we write the
same content as a self-describing ``key = value`` text block (one datum
per line, units in comments), which round-trips exactly and stays
greppable.  The quantity names follow EFIT's conventions (``aminor``,
``kappa``, ``betap``, ``ali``, ``wplasm`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from repro.efit.contours import trace_flux_surface
from repro.efit.fitting import FitResult
from repro.efit.globalparams import compute_global_parameters
from repro.efit.measurements import SyntheticShot
from repro.efit.qprofile import QProfile
from repro.efit.shape import ShapeParameters
from repro.errors import EqdskError

__all__ = ["AFile", "afile_from_fit", "write_afile", "read_afile"]

_UNITS = {
    "shot": "",
    "time_ms": "ms",
    "ipmeas": "A",
    "rmaxis": "m",
    "zmaxis": "m",
    "rgeo": "m",
    "aminor": "m",
    "kappa": "",
    "delta_upper": "",
    "delta_lower": "",
    "q95": "",
    "betap": "",
    "ali": "",
    "wplasm": "J",
    "volume": "m^3",
    "chisq": "",
    "iterations": "",
    "converged": "",
}


@dataclass(frozen=True)
class AFile:
    """Scalar results of one reconstructed time slice."""

    shot: int
    time_ms: float
    ipmeas: float
    rmaxis: float
    zmaxis: float
    rgeo: float
    aminor: float
    kappa: float
    delta_upper: float
    delta_lower: float
    q95: float
    betap: float
    ali: float
    wplasm: float
    volume: float
    chisq: float
    iterations: int
    converged: bool


def afile_from_fit(
    shot: SyntheticShot,
    result: FitResult,
) -> AFile:
    """Derive every a-file scalar from a reconstruction, stamped as the
    paper's shot 186610 at 2400 ms."""
    b = result.boundary
    lcfs = trace_flux_surface(shot.grid, b, 0.98)
    shape = ShapeParameters.from_surface(lcfs)
    glob = compute_global_parameters(
        shot.grid, result.psi, b, result.profiles, result.ip
    )
    f_vac = shot.machine.f_vacuum
    qprof = QProfile.compute(shot.grid, result.psi, b, lambda s: f_vac, n_levels=16)
    return AFile(
        shot=186610,
        time_ms=2400.0,
        ipmeas=result.ip,
        rmaxis=b.r_axis,
        zmaxis=b.z_axis,
        rgeo=shape.r_geo,
        aminor=shape.a_minor,
        kappa=shape.kappa,
        delta_upper=shape.delta_upper,
        delta_lower=shape.delta_lower,
        q95=qprof.q95,
        betap=glob.beta_poloidal,
        ali=glob.internal_inductance,
        wplasm=glob.stored_energy_joules,
        volume=glob.volume_m3,
        chisq=result.chi2,
        iterations=result.iterations,
        converged=result.converged,
    )


def write_afile(afile: AFile, path: str | Path) -> None:
    """Write the record as documented key = value lines."""
    lines = ["# repro a-file (scalar reconstruction results)"]
    for f in fields(AFile):
        value = getattr(afile, f.name)
        unit = _UNITS.get(f.name, "")
        comment = f"  # {unit}" if unit else ""
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, int):
            rendered = str(value)
        else:
            rendered = f"{value:.9e}"
        lines.append(f"{f.name} = {rendered}{comment}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_afile(path: str | Path) -> AFile:
    """Read a record written by :func:`write_afile`."""
    data: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise EqdskError(f"malformed a-file line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    kwargs = {}
    for f in fields(AFile):
        if f.name not in data:
            raise EqdskError(f"a-file missing field {f.name!r}")
        raw = data[f.name]
        if f.type in ("int", int):
            kwargs[f.name] = int(raw)
        elif f.type in ("bool", bool):
            kwargs[f.name] = raw.lower() == "true"
        else:
            kwargs[f.name] = float(raw)
    return AFile(**kwargs)
