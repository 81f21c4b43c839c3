"""The EFIT-style Grad-Shafranov equilibrium-reconstruction substrate.

This subpackage is a from-scratch Python implementation of the core solver
the paper accelerates (Section 2): a rectangular (R, Z) grid, filament Green
functions, the ``Delta*`` operator and its fast Dirichlet solvers, polynomial
``p'``/``FF'`` current bases, a tokamak machine description with magnetic
diagnostics, and the ``fit_`` Picard loop built from the paper's four
subroutines (``green_``, ``current_``, ``pflux_``, ``steps_``).
"""

from repro.efit.grid import RZGrid
from repro.efit.greens import (
    greens_psi,
    greens_br,
    greens_bz,
)
from repro.efit.tables import (
    BoundaryGreensTables,
    BoundaryTableCache,
    boundary_table_cache,
    build_boundary_tables,
    cached_boundary_tables,
)
from repro.efit.operators import GradShafranovOperator
from repro.efit.basis import PolynomialBasis
from repro.efit.profiles import ProfileCoefficients
from repro.efit.machine import (
    Tokamak,
    PoloidalFieldCoil,
    Limiter,
    VesselSegment,
    miller_contour,
    diiid_like_machine,
    spherical_torus_machine,
    double_null_machine,
    single_null_machine,
)
from repro.efit.diagnostics import FluxLoop, MagneticProbe, MSEChannel, RogowskiCoil, DiagnosticSet
from repro.efit.measurements import (
    MeasurementSet,
    SyntheticShot,
    measure_equilibrium,
    synthetic_shot_186610,
    synthetic_solovev_shot,
)
from repro.efit.solovev import SolovevEquilibrium
from repro.efit.boundary import BoundaryResult, find_axis, find_boundary
from repro.efit.contours import FluxSurface, trace_flux_surface
from repro.efit.qprofile import QProfile, safety_factor
from repro.efit.pflux import (
    PfluxVectorized,
    edge_flux_operator,
    edge_node_indices,
)
from repro.efit.fitting import EfitSolver, FitResult, FitIterationRecord, FitState, GridStatics
from repro.efit.eqdsk import GEqdsk, write_geqdsk, read_geqdsk
from repro.efit.output import geqdsk_from_fit
from repro.efit.afile import AFile, afile_from_fit, write_afile, read_afile
from repro.efit.shape import ShapeParameters

__all__ = [
    "RZGrid",
    "greens_psi",
    "greens_br",
    "greens_bz",
    "BoundaryGreensTables",
    "BoundaryTableCache",
    "boundary_table_cache",
    "build_boundary_tables",
    "cached_boundary_tables",
    "GradShafranovOperator",
    "PolynomialBasis",
    "ProfileCoefficients",
    "Tokamak",
    "PoloidalFieldCoil",
    "Limiter",
    "VesselSegment",
    "miller_contour",
    "diiid_like_machine",
    "spherical_torus_machine",
    "double_null_machine",
    "single_null_machine",
    "FluxLoop",
    "MagneticProbe",
    "MSEChannel",
    "RogowskiCoil",
    "DiagnosticSet",
    "MeasurementSet",
    "SyntheticShot",
    "measure_equilibrium",
    "synthetic_shot_186610",
    "synthetic_solovev_shot",
    "SolovevEquilibrium",
    "BoundaryResult",
    "find_axis",
    "find_boundary",
    "FluxSurface",
    "trace_flux_surface",
    "QProfile",
    "safety_factor",
    "PfluxVectorized",
    "edge_flux_operator",
    "edge_node_indices",
    "EfitSolver",
    "FitResult",
    "FitIterationRecord",
    "FitState",
    "GridStatics",
    "GEqdsk",
    "write_geqdsk",
    "geqdsk_from_fit",
    "AFile",
    "afile_from_fit",
    "write_afile",
    "read_afile",
    "ShapeParameters",
    "read_geqdsk",
]
