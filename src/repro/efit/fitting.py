"""The ``fit_`` driver: EFIT's Picard equilibrium-reconstruction loop.

One ``fit_`` invocation performs a single Picard iterate built from the
paper's four subroutines (Section 2):

* ``steps_``   — axis/boundary search, normalised flux, convergence check;
* ``current_`` — basis current distribution on the grid;
* ``green_``   — response-matrix assembly and the weighted linear fit;
* ``pflux_``   — the flux solve (boundary Green sums + interior solve).

:class:`EfitSolver` repeats invocations until the maximum flux change
between iterates, normalised by the flux span, drops below :data:`TOL`
(``eps < 1e-5`` in the paper).  Every region is timed through a
:class:`~repro.profiling.regions.RegionProfiler`, which is how the Figure 1
and Figure 6 pie charts are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.efit.boundary import BoundaryResult, find_boundaries, search_geometry
from repro.efit.basis import PolynomialBasis
from repro.efit.current import BasisSlabs, basis_current_slabs
from repro.efit.diagnostics import DiagnosticSet
from repro.efit.greens import greens_psi
from repro.efit.grid import RZGrid
from repro.efit.machine import Tokamak
from repro.efit.measurements import MeasurementSet
from repro.efit.operators import EdgeOperator, cached_edge_operator
from repro.efit.pflux import PfluxStructured
from repro.efit.profiles import ProfileCoefficients
from repro.efit.response import (
    basis_response,
    measurement_system,
    solve_lsq_stack,
    weighted_residuals,
)
from repro.efit.solvers import DSTSolver
from repro.efit.tables import cached_boundary_tables
from repro.errors import BoundaryError, ConvergenceError, FittingError
from repro.obs.hooks import NULL_HOOKS, ObservationHooks
from repro.profiling.regions import RegionProfiler

__all__ = ["EfitSolver", "FitResult", "FitIterationRecord", "FitState", "GridStatics"]

#: Picard iterates a cold start (and the divergence guard's fallback)
#: spends on the fixed parabolic current shape before the least-squares
#: step takes over.  Measured, not tuned per case: two leaves the
#: spherical torus at 20-87 iterates at 65^2, three brings every scenario
#: to 10-16, and each one past three costs one iterate everywhere
#: (EXPERIMENTS.md "Picard step (PR 20)").
N_WARMUP = 3

#: Convergence threshold: the largest flux change between iterates,
#: normalised by the flux span (the paper's ``eps``).
TOL = 1e-5

#: Residual above which a trusted warm start is declared divergent and
#: the slice falls back to the cold warm-up current shape.
WARM_START_GUARD = 0.25


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)``, except that a batch of one is a view of its
    array: the caller only reads it."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _z_derivative(field: np.ndarray, dz: float, *, out: np.ndarray) -> None:
    """``d(field)/dz`` along the last axis with np.gradient's arithmetic,
    without its set-up.  ``field`` and ``out`` are contiguous, so the
    central differences are one pass over the flattened rows — the
    entries it forms across a row's end are the one-sided end columns,
    written over in one more pass."""
    nh = field.shape[-1]
    flat, d = field.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * dz
    ends = out[..., :: nh - 1]
    np.subtract(field[..., 1 :: nh - 2], field[..., : nh - 1 : nh - 2], out=ends)
    ends /= dz


@dataclass(frozen=True)
class GridStatics:
    """The per-(machine, grid) arrays of the fit hot path, in one place.

    Everything here depends only on the machine geometry and the mesh —
    not on the shot or the Picard iterate.  It is a view of the memo the
    machine and its limiter keep (:meth:`Limiter.grid_mask
    <repro.efit.machine.Limiter.grid_mask>`, :meth:`Limiter.sample_points
    <repro.efit.machine.Limiter.sample_points>`,
    :meth:`Tokamak.coil_flux_tables
    <repro.efit.machine.Tokamak.coil_flux_tables>`): every
    :class:`EfitSolver` builds one at construction, so solvers on one
    machine and grid share the arrays, which are read-only.
    """

    #: ``limiter.contains(grid.rr, grid.zz)`` — the in-vessel grid mask.
    inside_limiter: np.ndarray
    #: Densified limiter contour ``(r, z)`` for the boundary-psi search.
    limiter_samples: tuple[np.ndarray, np.ndarray]
    #: Per-coil vacuum flux tables, shape ``(n_coils, nw, nh)``.
    coil_flux: np.ndarray

    @property
    def response_support(self) -> tuple[slice, slice]:
        """The block of grid rows x columns where a fit's currents can meet
        the diagnostics' grid response: the rows holding an in-limiter
        node by the columns holding one, widened by a column on each side
        (``fitdelz``'s z-derivative of a current reaches one node further
        in Z), clipped to the grid; empty when no node is inside.  The
        plasma mask is a subset of :attr:`inside_limiter`, so every
        current ``current_`` and ``green_`` multiply the response by is
        exactly zero off this block."""
        rows = np.flatnonzero(self.inside_limiter.any(axis=1))
        cols = np.flatnonzero(self.inside_limiter.any(axis=0))
        if not rows.size:
            return slice(0, 0), slice(0, 0)
        nh = self.inside_limiter.shape[1]
        return (
            slice(int(rows[0]), int(rows[-1]) + 1),
            slice(max(int(cols[0]) - 1, 0), min(int(cols[-1]) + 2, nh)),
        )

    @classmethod
    def build(cls, machine: Tokamak, grid: RZGrid) -> "GridStatics":
        """The static fit state for ``machine`` on ``grid``, built on the
        first call for that pair and read from the memo afterwards —
        together with what the boundary search derives from the limiter's
        mask and contour, which the limiter memoises beside them."""
        search_geometry(grid, machine.limiter)
        return cls(
            inside_limiter=machine.limiter.grid_mask(grid),
            limiter_samples=machine.limiter.sample_points(),
            coil_flux=machine.coil_flux_tables(grid),
        )


@dataclass
class FitState:
    """Mutable Picard state of one reconstruction in flight.

    Produced by :meth:`EfitSolver.start_fit` and advanced by
    :meth:`EfitSolver.iterate_pre` / :meth:`EfitSolver.iterate_post`;
    :meth:`EfitSolver.finish` turns it into a :class:`FitResult`.  The
    split exists so a batch engine can advance many slices' iterates
    together: one pre-flux pass and one batched ``pflux_`` call over all
    of them.
    """

    measurements: MeasurementSet
    psi: np.ndarray
    psi_external: np.ndarray
    sign: int
    coeffs: np.ndarray
    pcurr: np.ndarray
    #: The data side of ``green_``'s system (:func:`~repro.efit.response.
    #: measurement_system`): the measurements less the PF-coil
    #: contribution, weighted by ``1 / sigma``, and ``1 / sigma``.  No
    #: iterate changes them.
    weighted_data: np.ndarray
    weights: np.ndarray
    vessel_currents: np.ndarray | None = None
    boundary: BoundaryResult | None = None
    chi2: float = field(default=np.inf, init=False)
    residual: float = field(default=np.inf, init=False)
    iteration: int = field(default=0, init=False)
    converged: bool = field(default=False, init=False)
    #: Last iteration (inclusive) forced onto the fixed warm-up current
    #: shape.  :data:`N_WARMUP` for a cold start; 0 for a trusted warm
    #: start, so a converged ``psi_initial`` can converge immediately.
    warmup_until: int = 0
    #: True while the supplied ``psi_initial`` is trusted.  Revoked by the
    #: divergence guard in :meth:`EfitSolver.iterate_post`, which falls
    #: back to a cold warm-up starting at the current iteration.
    warm_start: bool = False
    history: list[FitIterationRecord] = field(default_factory=list, init=False)


@dataclass(frozen=True)
class FitIterationRecord:
    """Per-iteration diagnostics of the Picard loop."""

    iteration: int
    residual: float
    psi_axis: float
    psi_boundary: float
    chi2: float
    coefficients: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """A converged (or halted) reconstruction."""

    psi: np.ndarray
    pcurr: np.ndarray
    profiles: ProfileCoefficients
    boundary: BoundaryResult
    converged: bool
    iterations: int
    residual: float
    chi2: float
    history: tuple[FitIterationRecord, ...]
    #: Fitted vessel eddy currents [A] (None when not fitted).
    vessel_currents: np.ndarray | None = None
    #: Whether the slice ran (and finished) on a trusted warm start.
    warm_start: bool = False

    @property
    def ip(self) -> float:
        """Total reconstructed plasma current [A]."""
        return float(self.pcurr.sum())

    @property
    def contraction(self) -> float:
        """Geometric-mean ratio of successive residuals over the
        least-squares iterates after the last warm-up one — how fast the
        Picard map was contracting (``nan`` with fewer than two such
        iterates).  Read off :attr:`history`: the warm-up shape is the
        only coefficient vector whose p' terms are exactly zero, which
        also places the divergence guard's second warm-up."""
        n_pp = self.profiles.alpha.size
        start = max(
            (k + 1 for k, rec in enumerate(self.history) if not rec.coefficients[:n_pp].any()),
            default=0,
        )
        residuals = [rec.residual for rec in self.history[start:]]
        if len(residuals) < 2 or residuals[0] <= 0.0:
            return float("nan")
        return float((residuals[-1] / residuals[0]) ** (1.0 / (len(residuals) - 1)))


class EfitSolver:
    """Equilibrium reconstruction on a fixed machine + grid.

    Construction performs the one-time ``green_`` setup (boundary tables,
    diagnostic response matrices, interior-solver factorisation);
    :meth:`fit` then reconstructs any number of time slices.

    The Picard scheme is fixed: a cold start holds the parabolic warm-up
    current shape for :data:`N_WARMUP` iterates, then every iterate takes
    the full least-squares step for the profile (and vessel) coefficients
    — undamped, the map contracts by 0.15-0.45 per iterate
    (:attr:`FitResult.contraction`), so a cold 65² slice converges in
    10-14 iterates and a warm-chained one in 3-4.  A trusted
    ``psi_initial`` skips the warm-up.

    Parameters
    ----------
    pflux_impl:
        The :class:`~repro.efit.operators.EdgeOperator` instance whose
        boundary Green sums the flux step applies: how an engine or a
        fleet worker puts its solver on the operator it owns, and how a
        caller picks another representation of the sums — a
        ``DenseEdgeOperator`` or the paper's table sums
        (:class:`~repro.efit.pflux.TableSumEdgeOperator`).  Not given, the solver
        applies the process-wide
        :func:`~repro.efit.operators.cached_edge_operator` of its grid.
    profiler:
        Optional :class:`RegionProfiler`; regions ``steps_``, ``current_``,
        ``green_``, ``pflux_`` and ``other`` accumulate per ``fit_``
        invocation.  Every fit on this solver records here — ``fit``,
        a batch engine's ``fit_many`` and a served frame alike.
    hooks:
        Optional :class:`~repro.obs.hooks.ObservationHooks` (e.g.
        :class:`~repro.obs.hooks.TraceHooks`).  Mirrors the profiler
        regions as structured trace spans and emits one
        ``picard_iteration`` event per iterate with chi^2, residual and
        boundary attributes.  The default, ``NULL_HOOKS``, is free.
        Like the profiler, it is the one set of instruments of every
        entry point that drives this solver, so a solver is driven from
        one thread at a time.
    """

    def __init__(
        self,
        machine: Tokamak,
        diagnostics: DiagnosticSet,
        grid: RZGrid,
        *,
        pp_basis: PolynomialBasis | None = None,
        ffp_basis: PolynomialBasis | None = None,
        pflux_impl: EdgeOperator | None = None,
        max_iters: int = 100,
        fit_vessel: bool = False,
        ridge: float = 1e-10,
        initial_filament_z: float | None = None,
        profiler: RegionProfiler | None = None,
        hooks: ObservationHooks | None = None,
    ) -> None:
        if max_iters < 1:
            raise FittingError("max_iters must be at least 1")
        if ridge < 0.0:
            raise FittingError("ridge must be non-negative")
        self.machine = machine
        self.diagnostics = diagnostics
        self.grid = grid
        self.pp_basis = pp_basis if pp_basis is not None else PolynomialBasis(2)
        self.ffp_basis = ffp_basis if ffp_basis is not None else PolynomialBasis(2)
        warm = np.zeros(self.pp_basis.n_terms + self.ffp_basis.n_terms)
        warm[self.pp_basis.n_terms] = 1.0
        if self.ffp_basis.n_terms > 1:
            warm[self.pp_basis.n_terms + 1] = -0.8
        #: Unit warm-up coefficient vector: the parabolic FF' shape the
        #: first :data:`N_WARMUP` iterates rescale to the measured Ip.
        self._warmup_shape = warm
        self.max_iters = max_iters
        self.ridge = ridge
        # Height of the seed filament in the default initial psi.  None
        # keeps the historical slightly-off-node offset (0.41 dz above the
        # midplane); up-down-asymmetric machines (single-null) should seed
        # near the expected current centroid or the Picard loop can settle
        # on a vertically displaced fixed point of the fitdelz feedback.
        self.initial_filament_z = initial_filament_z
        rf = float(machine.limiter.r.mean()) + 0.37 * grid.dr
        zf = 0.41 * grid.dz if initial_filament_z is None else initial_filament_z
        #: Flux per ampere of that seed filament: elliptic integrals over
        #: the whole grid that no shot changes, so built once.
        self._seed_filament_flux = greens_psi(grid.rr, grid.zz, rf, zf)
        self.profiler = profiler if profiler is not None else RegionProfiler()
        self.hooks = hooks if hooks is not None else NULL_HOOKS

        # --- one-time green_ setup -------------------------------------------
        #: Geometry-only arrays of the hot path.  Built here, not on first
        #: use, so no fit pays for them; the grid response lives on their
        #: support.
        self.statics = GridStatics.build(machine, grid)
        #: ``(n_meas, nw*nh)``, built on :attr:`GridStatics.response_support`
        #: only and +0.0 off it, where every current it meets is zero.
        #: Built before the Green table and the operator, so its kernel's
        #: temporaries are not stacked on them at the construction's peak.
        self.grid_response = diagnostics.response_to_grid(
            grid, support=self.statics.response_support
        )
        self.tables = cached_boundary_tables(grid)
        self.solver = DSTSolver(grid)
        if pflux_impl is None:
            pflux_impl = cached_edge_operator(self.tables)
        if not isinstance(pflux_impl, EdgeOperator):
            raise FittingError(f"pflux_impl must be an EdgeOperator instance, got {pflux_impl!r}")
        self.pflux = PfluxStructured(grid, self.tables, self.solver, pflux_impl)
        self.coil_response = diagnostics.response_to_coils(machine)
        #: Vessel eddy-current fitting (production EFIT's VESSEL option):
        #: adds one unknown current per wall segment to the linear fit.
        self.fit_vessel = fit_vessel and machine.n_vessel > 0
        if fit_vessel and machine.n_vessel == 0:
            raise FittingError("fit_vessel requested but the machine has no vessel segments")
        if self.fit_vessel:
            self.vessel_response = diagnostics.response_to_vessel(machine)
            self.vessel_flux_tables = machine.vessel_flux_tables(grid)

    @classmethod
    def for_scenario(
        cls,
        scenario,
        n: int = 65,
        *,
        shot=None,
        **overrides,
    ) -> "EfitSolver":
        """Build a solver configured for a registered scenario.

        ``scenario`` is a name from :func:`repro.scenarios.scenario_names`
        or a :class:`~repro.scenarios.Scenario` instance.  The scenario's
        ``solver_kwargs`` (e.g. the off-midplane seed filament an
        asymmetric single-null needs) are applied first; ``overrides``
        win on conflict.  Pass ``shot`` to reuse an already-built
        :class:`~repro.efit.measurements.SyntheticShot` instead of
        fetching the scenario's cached one at grid ``n``.
        """
        from repro.scenarios import Scenario

        return Scenario.construct(cls, scenario, n, shot=shot, **overrides)

    # -- helpers ------------------------------------------------------------------
    def _fit_delz(self, weighted_u: np.ndarray, weighted_residual: np.ndarray) -> np.ndarray:
        """EFIT's ``fitdelz`` for each of a batch of slices: the rigid
        vertical shift of the current distribution that best reduces the
        measurement residual.

        A one-parameter weighted least squares on top of the profile fit:
        ``delz = <w^2 u r> / <w^2 u u>`` with ``u`` the measurement
        response to ``d(pcurr)/dz`` and ``r`` the residual after the
        profile fit.  This is the vertical-stability feedback that keeps
        the Picard loop on the measured plasma position.  Takes the
        ``(B, n_meas)`` stacks ``w u`` and ``w r``; returns the ``(B,)``
        shifts, zero for a slice whose ``u`` vanishes.
        """
        num = np.einsum("bm,bm->b", weighted_u, weighted_residual)
        denom = np.einsum("bm,bm->b", weighted_u, weighted_u)
        # Taylor: pcurr(z - delz) ~ pcurr - delz * d(pcurr)/dz, so the
        # physical shift to apply through shift_z is the *negative* of the
        # fitted Taylor coefficient.  Clamped to a few cells per iteration:
        # the shift model is linear.
        delz = np.zeros_like(num)
        np.divide(-num, denom, out=delz, where=denom != 0.0)
        cap = 4.0 * self.grid.dz
        np.maximum(delz, -cap, out=delz)
        return np.minimum(delz, cap, out=delz)

    def _plasma_currents(
        self,
        slabs: BasisSlabs,
        coeffs: np.ndarray,
        weights: np.ndarray,
        weighted_data: np.ndarray,
        weighted_residual: np.ndarray,
        warm: np.ndarray,
        vessel: np.ndarray | None,
    ) -> np.ndarray:
        """The batch's ``pcurr`` stack, ``(B, nw, nh)``, for the
        coefficients just fitted: every slice's basis currents times its
        coefficients on the slab's rows, shifted by ``fitdelz``, written
        into one zero stack.

        ``weighted_residual`` holds the least-squares slices' rows of ``w
        (d - A c)`` on entry; the warm-up slices' rows (``warm``) are
        filled here from the predictions ``R (S c)``, which share one GEMM
        with the ``fitdelz`` response, so a warm-up iterate forms no basis
        response.  ``vessel`` is the batch's vessel currents in the
        warm-up prediction (``None`` without vessel fitting).
        """
        grid = self.grid
        n = len(coeffs)
        n_rows = slabs.i1 - slabs.i0
        # One GEMV per slice, all in one call, over contiguous rows: its
        # coefficients times its basis currents.
        rows = np.matmul(coeffs[:, None, :], slabs.matrix).reshape(n, n_rows, grid.nh)
        n_warm = int(np.count_nonzero(warm))
        columns = np.empty((n + n_warm, n_rows, grid.nh))
        _z_derivative(rows, grid.dz, out=columns[:n])
        if n_warm:
            columns[n:] = rows[warm]
        response = self.grid_response[:, slabs.i0 * grid.nh : slabs.i1 * grid.nh]
        product = response @ columns.reshape(len(columns), -1).T
        del columns  # before the shift makes its own
        if n_warm:
            prediction = product[:, n:].T
            if vessel is not None:
                prediction = prediction + vessel[warm] @ self.vessel_response.T
            weighted_residual[warm] = weighted_data[warm] - weights[warm] * prediction
        delz = self._fit_delz(weights * product[:, :n].T, weighted_residual)
        rows = grid.shift_z(rows, delz)
        pcurr = np.zeros((n, grid.nw, grid.nh))
        pcurr[:, slabs.i0 : slabs.i1] = rows
        return pcurr

    def _statics(self, statics: GridStatics | None) -> GridStatics:
        """``statics``, or the solver's own when not given.  A foreign
        in-limiter mask is refused: the grid response exists only on the
        support of the solver's own, so a fit on another would meet
        zeros."""
        if statics is None:
            return self.statics
        own = self.statics.inside_limiter
        given = statics.inside_limiter
        if given is not own and not (given.shape == own.shape and np.array_equal(given, own)):
            raise FittingError(
                "statics.inside_limiter is not this solver's in-limiter mask: its grid "
                "response is built on the support of its own"
            )
        return statics

    def _psi_from_coils(self, currents: np.ndarray, statics: GridStatics) -> np.ndarray:
        """Vacuum coil flux of the given per-coil currents [A]."""
        currents = np.asarray(currents, dtype=float)
        if currents.shape != (self.machine.n_coils,):
            raise FittingError(
                f"need {self.machine.n_coils} coil currents, got shape {currents.shape}"
            )
        return np.tensordot(currents, statics.coil_flux, axes=1)

    def _initial_psi(self, measurements: MeasurementSet, psi_external: np.ndarray) -> np.ndarray:
        """Vacuum flux plus a filament estimate carrying the measured Ip."""
        return psi_external + measurements.ip * self._seed_filament_flux

    # -- the Picard step machine ---------------------------------------------------
    def start_fit(
        self,
        measurements: MeasurementSet,
        *,
        psi_initial: np.ndarray | None = None,
        coeffs_initial: np.ndarray | None = None,
        statics: GridStatics | None = None,
    ) -> FitState:
        """Validate one slice's inputs and build its initial Picard state,
        with the data side of its ``green_`` system (the measurements less
        the PF-coil contribution, and the weights), which no iterate
        changes.

        When ``psi_initial`` is supplied *and* a boundary search on it
        succeeds, the state starts in trusted warm-start mode: the fixed
        warm-up current shape is skipped (``warmup_until = 0``) and
        convergence may be declared from the first iterate — this is what
        lets a converged previous-slice psi cut the iteration count.  A
        ``psi_initial`` whose boundary search fails is discarded entirely
        and the fit starts cold — a seed without a findable boundary
        would also break the cold path's own ``steps_`` boundary search,
        so degrading means replacing it, not keeping it.
        ``coeffs_initial`` (the previous slice's converged vector) is
        validated and becomes the state's starting coefficients, but no
        longer steers the fit: every iterate — warm-up or least-squares —
        replaces the coefficients outright, so only ``psi_initial``
        carries a warm start.

        ``statics`` overrides the solver's own :class:`GridStatics`
        (:attr:`statics`) but must carry its in-limiter mask (the same
        array or an equal one; another is a :class:`FittingError`, as in
        :meth:`iterate_pre`).  Every state records into the solver's
        :attr:`profiler` and :attr:`hooks`, whichever entry point drives
        it.
        """
        grid = self.grid
        if measurements.n_measurements != self.diagnostics.n_measurements:
            raise FittingError("measurement vector does not match the diagnostic set")
        statics = self._statics(statics)
        psi_external = self._psi_from_coils(measurements.coil_currents, statics)
        psi = (
            np.asarray(psi_initial, dtype=float)
            if psi_initial is not None
            else self._initial_psi(measurements, psi_external)
        )
        if psi.shape != grid.shape:
            raise FittingError("initial psi shape mismatch")
        if not np.all(np.isfinite(psi)):
            raise FittingError("initial psi contains non-finite values")
        n_coeffs = self.pp_basis.n_terms + self.ffp_basis.n_terms
        if coeffs_initial is not None:
            coeffs = np.array(coeffs_initial, dtype=float)
            if coeffs.shape != (n_coeffs,):
                raise FittingError(
                    f"initial coefficients shape {coeffs.shape}, expected ({n_coeffs},)"
                )
            if not np.all(np.isfinite(coeffs)):
                raise FittingError("initial coefficients contain non-finite values")
        else:
            coeffs = np.zeros(n_coeffs)
        data, weights = measurement_system(
            self.coil_response,
            measurements.coil_currents,
            measurements.values,
            measurements.uncertainties,
        )
        sign = 1 if measurements.ip >= 0 else -1
        probed = None
        if psi_initial is not None:
            # Trust probe: a supplied psi earns the warm start only if it
            # already carries a findable plasma boundary.  The boundary it
            # finds is the one iterate 1's steps_ would search for again,
            # so it rides along on the state.
            try:
                (probed,) = find_boundaries(
                    grid,
                    psi[None],
                    self.machine.limiter,
                    signs=(sign,),
                    inside=statics.inside_limiter,
                    limiter_samples=statics.limiter_samples,
                )
            except BoundaryError:
                # The seed carries no usable boundary: fall back to the
                # standard cold-start flux rather than iterating on it.
                psi = self._initial_psi(measurements, psi_external)
        warm_start = probed is not None
        state = FitState(
            measurements=measurements,
            psi=psi,
            psi_external=psi_external,
            sign=sign,
            coeffs=coeffs,
            pcurr=np.zeros(grid.shape),
            weighted_data=data * weights,
            weights=weights,
            vessel_currents=np.zeros(self.machine.n_vessel) if self.fit_vessel else None,
            boundary=probed,
            warmup_until=0 if warm_start else N_WARMUP,
            warm_start=warm_start,
        )
        self.hooks.event(
            "start_fit",
            grid=f"{grid.nw}x{grid.nh}",
            n_measurements=measurements.n_measurements,
            ip=measurements.ip,
            warm_start=warm_start,
        )
        return state

    def iterate_pre(self, states, *, statics: GridStatics | None = None):
        """The pre-flux half of one Picard iterate — ``steps_`` boundary
        search, ``current_`` distribution and the ``green_`` linear fit —
        for every slice of a lock-step batch at once.

        ``states`` is the sequence of :class:`FitState` objects iterating
        together; returns the ``(B, nw, nh)`` stacks ``(pcurr,
        psi_external)`` of their node currents and external fluxes —
        exactly what ``pflux_`` needs — in order.  One :class:`FitState`
        instead is the batch of one, and returns its pair of fields.  The
        caller runs the flux solve (singly or batched across slices) and
        hands the new fluxes to :meth:`iterate_post`.

        Across the batch there is one boundary search on the stack of
        fluxes, one basis slab over the union of the masks' rows, one
        response product with ``n_coeffs`` columns per least-squares
        slice, one stacked least squares (:func:`~repro.efit.response.
        solve_lsq_stack`) and residual, one ``fitdelz`` product — which
        also carries the warm-up slices' predictions, so a warm-up
        iterate forms no basis response — and one vertical shift of the
        current stack.  ``statics`` is checked as :meth:`start_fit`
        checks it.
        """
        if isinstance(states, FitState):
            pcurr, psi_external = self.iterate_pre([states], statics=statics)
            return pcurr[0], psi_external[0]
        grid = self.grid
        statics = self._statics(statics)
        profiler, hooks = self.profiler, self.hooks
        for state in states:
            state.iteration += 1
        iteration = states[0].iteration
        with hooks.profiled_region(profiler, "steps_", iteration=iteration):
            # Iterate 1 of a trusted warm start already holds the trust
            # probe's search of this very psi.
            stale = [s for s in states if s.iteration > 1 or s.boundary is None]
            if stale:
                found = find_boundaries(
                    grid,
                    [s.psi for s in stale],
                    self.machine.limiter,
                    signs=[s.sign for s in stale],
                    inside=statics.inside_limiter,
                    limiter_samples=statics.limiter_samples,
                )
                for state, boundary in zip(stale, found):
                    state.boundary = boundary
        with hooks.profiled_region(profiler, "current_", iteration=iteration):
            # Everything from here to pflux_ lives on the grid rows the
            # plasmas occupy: one contiguous column range of the grid
            # response, taken as a view.
            slabs = basis_current_slabs(
                grid,
                [s.boundary.psin for s in states],
                [s.boundary.mask for s in states],
                self.pp_basis,
                self.ffp_basis,
            )
        n = len(states)
        n_coeffs = self._warmup_shape.size
        weights = _stack([s.weights for s in states])
        weighted_data = _stack([s.weighted_data for s in states])
        # Warm-up: a fixed peaked current shape rescaled to the measured Ip
        # (EFIT's initial parabolic distribution) until the geometry is
        # sane enough for the least-squares step to be trustworthy.  A
        # trusted warm start enters with warmup_until == 0 and never takes
        # it, so a converged previous-slice psi is not clobbered by the
        # parabolic shape.
        warm = np.array([s.iteration <= s.warmup_until for s in states])
        n_warm = int(np.count_nonzero(warm))
        # The least-squares slices; a slice when they are all of them, so
        # every selection below is a view.
        fitted = slice(None) if n_warm == 0 else np.flatnonzero(~warm)
        vessel = np.stack([s.vessel_currents for s in states]) if self.fit_vessel else None
        with hooks.profiled_region(profiler, "green_", iteration=iteration):
            coeffs = np.empty((n, n_coeffs))
            weighted_residual = np.empty_like(weighted_data)
            if n_warm < n:
                # The full least-squares step: damping it only slows the
                # same fixed points down (contraction 0.8 per iterate at
                # half steps against 0.15-0.45 undamped).
                offset = slabs.i0 * grid.nh
                basis = slabs.matrix[fitted, :, slabs.lo - offset : slabs.hi - offset]
                products = basis_response(self.grid_response[:, slabs.lo : slabs.hi], basis)
                matrices = products * weights[fitted, :, None]
                if self.fit_vessel:
                    # One unknown per vessel segment (EFIT's VESSEL
                    # fitting option): its columns ride the same stack.
                    matrices = np.concatenate(
                        [matrices, weights[fitted, :, None] * self.vessel_response], axis=2
                    )
                solution = solve_lsq_stack(matrices, weighted_data[fitted], ridge=self.ridge)
                weighted_residual[fitted] = weighted_residuals(
                    matrices, weighted_data[fitted], solution
                )
                coeffs[fitted] = solution[:, :n_coeffs]
                if self.fit_vessel:
                    vessel[fitted] = solution[:, n_coeffs:]
            if n_warm:
                total = (self._warmup_shape @ slabs.matrix).sum(axis=1)
                if not total[warm].all():
                    raise FittingError("warm-up current shape carries no current")
                ip = np.array([s.measurements.ip for s in states])
                coeffs[warm] = self._warmup_shape * (ip[warm] / total[warm])[:, None]
        with hooks.profiled_region(profiler, "current_", iteration=iteration):
            pcurr = self._plasma_currents(
                slabs, coeffs, weights, weighted_data, weighted_residual, warm, vessel
            )
            chi2 = np.einsum("bm,bm->b", weighted_residual, weighted_residual)
        psi_external = _stack([s.psi_external for s in states])
        if self.fit_vessel:
            psi_external = psi_external + np.tensordot(vessel, self.vessel_flux_tables, axes=1)
        for b, state in enumerate(states):
            state.coeffs = coeffs[b]
            state.chi2 = float(chi2[b])
            state.pcurr = pcurr[b]
            if self.fit_vessel:
                state.vessel_currents = vessel[b]
        return pcurr, psi_external

    def iterate_post(self, states, psi_new: np.ndarray):
        """The post-flux half of one Picard iterate for every slice of a
        lock-step batch: residual, the update (each slice of the
        ``(B, nw, nh)`` stack ``psi_new`` becomes its state's flux — the
        flux step returns arrays the states may own), history and the
        convergence decision.  One :class:`FitState` with its ``(nw, nh)``
        flux instead is the batch of one, and returns ``True`` once the
        slice has converged.

        The span and the largest flux change are one reduction over the
        stack; the records, decisions and events are per state, each in
        its own ``steps_`` region.
        """
        if isinstance(states, FitState):
            self.iterate_post([states], psi_new[None])
            return states.converged
        hooks, profiler = self.hooks, self.profiler
        n = len(states)
        for b, state in enumerate(states):
            with hooks.profiled_region(profiler, "steps_", iteration=state.iteration):
                if b == 0:
                    # The whole stack's span and largest change, timed in
                    # the first slice's region.
                    flat = psi_new.reshape(n, -1)
                    span = flat.max(axis=1) - flat.min(axis=1)
                    if not span.all():
                        raise ConvergenceError("flat flux map during fit")
                    change = psi_new - _stack([s.psi for s in states])
                    change = np.abs(change, out=change).reshape(n, -1).max(axis=1) / span
                state.residual = float(change[b])
                state.psi = psi_new[b]
                self._settle(state)
                if state.converged and n > 1:
                    # A converged slice leaves the batch: it keeps its own
                    # flux and current, not the batch's stacks.
                    state.psi = state.psi.copy()
                    state.pcurr = state.pcurr.copy()

    def _settle(self, state: FitState) -> None:
        """One slice's record of the iterate, its convergence and
        divergence-guard decisions, and their events."""
        hooks = self.hooks
        state.history.append(
            FitIterationRecord(
                iteration=state.iteration,
                residual=state.residual,
                psi_axis=state.boundary.psi_axis,
                psi_boundary=state.boundary.psi_boundary,
                chi2=state.chi2,
                coefficients=state.coeffs.copy(),
            )
        )
        if state.residual < TOL and state.iteration > state.warmup_until:
            state.converged = True
        elif state.warm_start:
            # Divergence guard: a trusted warm start whose flux is moving
            # by more than WARM_START_GUARD of the span (or growing
            # between iterates) was not actually near the fixed point.
            # Revoke the trust and rerun the cold warm-up from here —
            # the slice then behaves like a cold solve that happened to
            # start from the supplied psi.
            previous = (
                state.history[-2].residual if len(state.history) >= 2 else None
            )
            grew = (
                previous is not None
                and state.residual > 2.0 * previous
                and state.residual > 100.0 * TOL
            )
            if state.residual > WARM_START_GUARD or grew:
                state.warm_start = False
                state.warmup_until = state.iteration + N_WARMUP
                hooks.event(
                    "warm_start_fallback",
                    iteration=state.iteration,
                    residual=state.residual,
                    guard=WARM_START_GUARD,
                )
        if hooks.enabled:
            hooks.event(
                "picard_iteration",
                iteration=state.iteration,
                chi2=state.chi2,
                residual=state.residual,
                psi_axis=state.boundary.psi_axis,
                psi_boundary=state.boundary.psi_boundary,
                boundary_type=state.boundary.boundary_type,
                converged=state.converged,
            )

    def picard(self, states: Sequence[FitState]) -> Iterator[None]:
        """The Picard loop, written once: advance ``states`` in lockstep.

        Each iterate runs :meth:`iterate_pre` once over every state still
        iterating, the flux step (:attr:`pflux`'s ``compute_batch``) once
        on the ``(B, nw, nh)`` stacks it returns, and :meth:`iterate_post`
        once on the fresh stack of new fluxes, then yields; the
        generator ends once all have converged or after ``max_iters``
        iterates, and at once for no states.  A caller is a stop policy:
        :meth:`fit` exhausts it, the serving loop leaves at its deadline,
        the batch engine reads latencies between iterates.  A converged
        state leaves both halves of the next iterate.  Every iterate
        records into the solver's :attr:`profiler` and :attr:`hooks`,
        whose region nesting is not thread-safe, and the flux step reuses
        its own buffers: a solver is driven from one thread at a time.
        """
        profiler, hooks = self.profiler, self.hooks
        active = list(states)
        for iteration in range(1, self.max_iters + 1):
            if not active:
                return
            with hooks.profiled_region(profiler, "fit_", iteration=iteration):
                pcurr, psi_external = self.iterate_pre(active)
                with hooks.profiled_region(
                    profiler, "pflux_", iteration=iteration, batch=len(active)
                ):
                    psi_new = self.pflux.compute_batch(pcurr, psi_external)
                self.iterate_post(active, psi_new)
            yield
            active = [state for state in active if not state.converged]

    def finish(self, state: FitState, *, require_convergence: bool = True) -> FitResult:
        """Seal a Picard state into a :class:`FitResult`."""
        if not state.converged and require_convergence:
            raise ConvergenceError(
                f"fit did not converge: residual {state.residual:.3e} > {TOL:.1e} "
                f"after {len(state.history)} iterations (max_iters {self.max_iters})"
            )
        profiles = ProfileCoefficients.from_vector(
            self.pp_basis, self.ffp_basis, state.coeffs
        )
        self.hooks.event(
            "finish_fit",
            converged=state.converged,
            iterations=len(state.history),
            chi2=state.chi2,
            residual=state.residual,
            warm_start=state.warm_start,
        )
        return FitResult(
            psi=state.psi,
            pcurr=state.pcurr,
            profiles=profiles,
            boundary=state.boundary,
            converged=state.converged,
            iterations=len(state.history),
            residual=state.residual,
            chi2=state.chi2,
            history=tuple(state.history),
            vessel_currents=(
                state.vessel_currents.copy() if state.vessel_currents is not None else None
            ),
            warm_start=state.warm_start,
        )

    # -- the fit -------------------------------------------------------------------
    def fit(
        self,
        measurements: MeasurementSet,
        *,
        psi_initial: np.ndarray | None = None,
        coeffs_initial: np.ndarray | None = None,
        require_convergence: bool = True,
    ) -> FitResult:
        """Reconstruct one time slice.

        ``psi_initial`` (e.g. the previous slice's converged flux) enters
        trusted warm-start mode when its boundary search succeeds — the
        warm-up phase is skipped and convergence may be declared from the
        first iterate; see :meth:`start_fit`.  Raises
        :class:`ConvergenceError` when the loop exhausts ``max_iters``
        without meeting :data:`TOL` (suppress with
        ``require_convergence=False`` to inspect the partial result).
        """
        state = self.start_fit(
            measurements, psi_initial=psi_initial, coeffs_initial=coeffs_initial
        )
        for _ in self.picard([state]):
            pass
        return self.finish(state, require_convergence=require_convergence)
