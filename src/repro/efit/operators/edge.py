"""Structured representations of the edge-flux operator.

The dense edge operator of :func:`repro.efit.pflux.edge_flux_operator` is
an ``(n_edge, nw*nh)`` matrix whose storage and GEMM cost grow O(N^3) —
541 MB and ~50 ms per apply at 257x257.  The Green table it is built from
has exploitable structure (paper Figs. 2/3):

* **Vertical edges are symmetric Toeplitz.**  Because the Z mesh is
  uniform, ``gpc[i_b, dj, ii]`` depends on Z only through ``|j - jj|``,
  so for a fixed source column ``ii`` the left/right edge blocks are
  symmetric Toeplitz in ``(j, jj)``.  Each embeds exactly in a real
  circulant of any length ``m >= 2*nh - 1`` (we pick the next
  FFT-friendly composite), whose eigenvalues are **real** because the
  embedding is even-symmetric — the whole vertical contraction becomes
  one batched real FFT, a small spectral product and one inverse FFT.

* **Horizontal edges are the table read by source rows.**  The Green
  function is reciprocal, ``gpc[i_b, d, ii] == gpc[ii, d, i_b]`` bit for
  bit, so the bottom/top sums over the source rows ``[i0, i1)`` are one
  GEMM against the contiguous block ``gpc[i0:i1]`` (``toeplitz``).  In
  the far field the per-offset slices ``A_d = gpc[1:-1, d, :]`` also
  compress to rank ``r_d << nw`` by truncated SVD (``lowrank``):
  near-field slices (small ``d``) stay dense, the rest are packed into
  rank-sorted buckets applied as batched GEMMs, and the truncation
  threshold ``tau = tol * sigma_ref / sqrt(nh)`` bounds the spectral
  error of the *summed* operator by ``tol * sigma_ref``.

Both structured forms and the exact dense matrix live behind the
:class:`EdgeOperator` protocol; ``EfitSolver`` takes the instance it
applies as ``pflux_impl``, ``BatchFitEngine`` and ``ParallelFitEngine`` as
``edge_operator`` — not given, each applies :func:`cached_edge_operator`
of its grid, the one place
:data:`~repro.edge_methods.DEFAULT_EDGE_METHOD` is named.  Only the
structured forms, :data:`EDGE_METHODS`, are cached, written to disk and
staged in a fleet's arena; the dense matrix is their ground truth.
Every form reads only the operator's columns under the grid rows its
input's currents occupy — a plasma's current fills 35-38 of 65 rows — and
finds those rows itself, so every caller gets the restriction.

Every structured build first runs :func:`validate_edge_structure`, which
checks the reciprocity exactly and spot-checks the translation-invariance
assumption against direct Green function evaluations, and fails loudly —
naming the ``DenseEdgeOperator`` fallback — if a future machine/grid
change (a nonuniform Z mesh, vessel terms baked into the table) breaks
either.
"""

from __future__ import annotations

import abc
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from repro.edge_methods import DEFAULT_EDGE_METHOD, EDGE_METHODS
from repro.efit.grid import RZGrid, edge_strips, row_support
from repro.efit.tables import BoundaryGreensTables, boundary_table_cache
from repro.errors import GridError, OperatorError, OperatorStructureError

__all__ = [
    "EDGE_METHODS",
    "EdgeOperator",
    "DenseEdgeOperator",
    "ToeplitzFFTEdgeOperator",
    "LowRankEdgeOperator",
    "build_edge_operator",
    "cached_edge_operator",
    "seed_edge_operator",
    "drop_edge_operator",
    "edge_operator_from_arrays",
    "require_staged",
    "validate_edge_structure",
]

_EPS64 = float(np.finfo(np.float64).eps)

#: Offsets whose truncated rank exceeds this fraction of full rank are
#: cheaper kept dense (U+V storage would exceed the slice itself).
_DENSE_RANK_FRACTION = 0.5

#: Bucket packing: grow a rank-sorted bucket while zero-padding waste
#: stays under this factor (small buckets always grow — launch overhead
#: dominates padding there).
_BUCKET_WASTE = 1.3
_BUCKET_MIN = 4

#: What :func:`validate_edge_structure` tells a caller to do instead.
_DENSE_FALLBACK = (
    "fall back to the dense operator, which makes no structural assumption: "
    "pass a DenseEdgeOperator instance as pflux_impl= (EfitSolver) or "
    "edge_operator= (BatchFitEngine)"
)


#: Node triples the z-translation check of :func:`validate_edge_structure`
#: samples (from a fixed seed), and the relative deviation it tolerates.
_STRUCTURE_SAMPLES = 128
_STRUCTURE_RTOL = 1e-9


def validate_edge_structure(tables: BoundaryGreensTables) -> float:
    """Check the two structural assumptions of ``gridpc`` the structured
    operators rest on.

    * **Reciprocity, exactly:** ``gpc == gpc.transpose(2, 1, 0)`` bit for
      bit — the horizontal edges read the table by source rows.  It is
      compared one offset's ``(nw, nw)`` slice at a time, so the check
      needs no table-sized temporary.
    * **z-translation invariance, sampled:** :data:`_STRUCTURE_SAMPLES`
      random (boundary column, edge row, source node) triples from a
      fixed seed compare the tabulated
      ``gpc[i_b, |j - jj|, ii]`` against a direct Green-function
      evaluation at the *physical* node coordinates.  On a uniform Z mesh
      the two agree to roundoff; a nonuniform mesh, a wrong ``dz``, or
      extra physics folded into the table breaks the identity.

    Returns the worst relative deviation seen by the second.  Raises
    :class:`~repro.errors.OperatorStructureError` when either fails —
    structured operators would silently corrupt the boundary flux, so the
    caller must fall back to the dense operator (:data:`_DENSE_FALLBACK`).
    """
    from repro.efit.greens import greens_psi

    grid = tables.grid
    nw, nh = grid.nw, grid.nh
    asymmetric = 0
    for d in range(nh):
        block = tables.gpc[:, d, :]
        asymmetric += int(np.count_nonzero(block != block.T))
    if asymmetric:
        raise OperatorStructureError(
            f"boundary Green table is not reciprocal: gpc[i_b, d, ii] != "
            f"gpc[ii, d, i_b] at {asymmetric} entries. The structured edge "
            f"operators ('toeplitz'/'lowrank') assume it (toeplitz reads the "
            f"horizontal edges by source rows) and would silently corrupt "
            f"the boundary flux on this grid — {_DENSE_FALLBACK}."
        )
    rng = np.random.default_rng(0)
    i_b = rng.integers(0, nw, size=_STRUCTURE_SAMPLES)
    j = rng.integers(0, nh, size=_STRUCTURE_SAMPLES)
    ii = rng.integers(0, nw, size=_STRUCTURE_SAMPLES)
    jj = rng.integers(0, nh, size=_STRUCTURE_SAMPLES)
    # The coincident self term is regularised in the table, not a Green
    # value; skip those pairs.
    keep = ~((i_b == ii) & (j == jj))
    i_b, j, ii, jj = i_b[keep], j[keep], ii[keep], jj[keep]
    direct = greens_psi(grid.r[i_b], grid.z[j], grid.r[ii], grid.z[jj])
    tabulated = tables.gpc[i_b, np.abs(j - jj), ii]
    scale = np.maximum(np.abs(direct), np.abs(direct).max() * 1e-6)
    worst = float(np.max(np.abs(direct - tabulated) / scale))
    if worst > _STRUCTURE_RTOL:
        bad = int(np.sum(np.abs(direct - tabulated) / scale > _STRUCTURE_RTOL))
        raise OperatorStructureError(
            f"boundary Green table violates the z-translation-invariance "
            f"assumption: gpc[i_b, |j-jj|, ii] deviates from the direct "
            f"Green function at {bad} of {len(direct)} sampled node pairs "
            f"(worst relative deviation {worst:.3e} > rtol {_STRUCTURE_RTOL:.1e}). "
            f"The structured edge operators ('toeplitz'/'lowrank') assume a "
            f"uniform Z mesh and would silently corrupt the boundary flux "
            f"on this grid — {_DENSE_FALLBACK}."
        )
    return worst


class EdgeOperator(abc.ABC):
    """Protocol every edge-flux representation implements.

    One internal entry, :meth:`_edge_sums`, takes a ``(B, nw, nh)``
    current stack in any layout and writes the physically signed sums
    ``+sum(G * pcurr)`` of its ``B`` slices in
    :func:`repro.efit.grid.edge_node_indices` row order, reading only the
    grid rows that hold non-zero currents (subclasses implement that
    restricted apply as ``_apply_rows``).  It is the package's internal
    interface between the operators and the flux step
    (:class:`repro.efit.pflux.PfluxStructured` calls it on its current
    stack as it is), not public API.  ``apply`` is a thin wrapper reproducing ``E @
    pcurr_flat`` of the dense operator — the paper's ``psi = -sum(G *
    pcurr)`` sign — for a single flat current vector ``(nw*nh,)`` or a
    column batch ``(nw*nh, B)``.
    """

    #: one of :data:`EDGE_METHODS`, set by subclasses.
    method: str

    def __init__(self, grid: RZGrid) -> None:
        self.grid = grid

    @property
    def n_edge(self) -> int:
        return self.grid.n_boundary

    @property
    def n_grid(self) -> int:
        return self.grid.size

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Bytes of operator storage (beyond the shared Green table)."""

    @property
    def variant_tag(self) -> str:
        """Method + rank discriminator (no grid identity)."""
        return self.method

    def apply(self, pcurr_flat: np.ndarray) -> np.ndarray:
        """Edge flux of one current vector or a column batch: the
        row-stack entry :meth:`_edge_sums` on a view of the columns as a
        ``(B, nw, nh)`` stack, negated into the paper's sign."""
        x = np.asarray(pcurr_flat, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise GridError(f"pcurr must be 1-D or 2-D, got shape {x.shape}")
        if x.shape[0] != self.n_grid:
            raise GridError(f"pcurr rows {x.shape[0]} != grid size {self.n_grid}")
        out = np.empty((self.n_edge,) + x.shape[1:])
        nb = x.size // self.n_grid
        stack = x.reshape(self.grid.nw, self.grid.nh, nb).transpose(2, 0, 1)
        if self._edge_sums(stack, out.reshape(self.n_edge, nb)):
            np.negative(out, out=out)
        return out

    def _edge_sums(self, stack: np.ndarray, out: np.ndarray) -> bool:
        """Write into ``out`` ``(n_edge, B)`` the physically signed edge
        flux ``+sum(G * pcurr)`` of the ``(B, nw, nh)`` current stack
        ``stack``, unchecked and in any memory layout: the one entry of
        every operator, which the flux step calls on its current stack.

        One comparison pass finds the grid rows ``[i0, i1)`` holding every
        non-zero current of the stack, and only the operator's columns
        under them are applied (:meth:`_apply_rows`): no caller passes the
        support, and an all-zero stack costs that pass alone — ``out`` is
        then zero, and the call returns ``False``.
        """
        i0, i1 = row_support(stack.transpose(1, 0, 2))
        if i0 == i1:
            out[...] = 0.0
            return False
        self._apply_rows(stack[:, i0:i1], i0, out)
        return True

    @abc.abstractmethod
    def _apply_rows(self, rows: np.ndarray, i0: int, out: np.ndarray) -> None:
        """Write into ``out`` ``(n_edge, B)`` the edge flux ``+sum(G *
        pcurr)`` of the currents ``rows`` ``(B, k, nh)`` on the grid rows
        ``[i0, i0 + k)``, the only rows holding any."""

    @abc.abstractmethod
    def error_bound(self, x_norm: float = 1.0) -> float:
        """Estimated max-abs ``apply`` error vs the dense fp64 full-grid
        product ``E @ x`` for inputs with ``||x||_2 <= x_norm``: a
        roundoff allowance for summing the same terms in another order
        (and, for the low-rank form, the SVD truncation tail) —
        heuristic constants, validated by the property tests with wide
        margin."""


class DenseEdgeOperator(EdgeOperator):
    """The exact dense matrix — the ground truth the structured forms
    are checked against (``repro operators``, the nightly drift job).

    ``_apply_rows`` is one GEMM over the matrix's columns under the input's
    rows — the full-grid product with
    :func:`repro.efit.pflux.edge_flux_operator` less the columns that
    would multiply zeros.
    """

    method = "dense"

    def __init__(self, grid: RZGrid, matrix: np.ndarray) -> None:
        super().__init__(grid)
        expected = (grid.n_boundary, grid.size)
        if matrix.shape != expected:
            raise OperatorError(f"dense operator shape {matrix.shape} != {expected}")
        self.matrix = matrix

    @classmethod
    def from_tables(cls, tables: BoundaryGreensTables) -> "DenseEdgeOperator":
        from repro.efit.pflux import edge_flux_operator

        return cls(tables.grid, edge_flux_operator(tables))

    @property
    def nbytes(self) -> int:
        return int(self.matrix.nbytes)

    @cached_property
    def _max_entry(self) -> float:
        return float(max(self.matrix.max(), -self.matrix.min()))

    def error_bound(self, x_norm: float = 1.0) -> float:
        return 64.0 * _EPS64 * self._max_entry * np.sqrt(self.n_grid) * x_norm

    def _apply_rows(self, rows: np.ndarray, i0: int, out: np.ndarray) -> None:
        nb, k, nh = rows.shape
        cols = slice(i0 * nh, (i0 + k) * nh)
        # The GEMM's bits follow its operand's layout: the columns are
        # handed over C-ordered, as a column batch lies.
        columns = np.ascontiguousarray(rows.reshape(nb, k * nh).T)
        np.matmul(self.matrix[:, cols], columns, out=out)
        np.negative(out, out=out)  # the matrix holds -G


class _VerticalSpectra:
    """Real circulant spectra of the two vertical-edge Toeplitz blocks."""

    def __init__(self, spectra: np.ndarray, m: int, nh: int) -> None:
        self.spectra = spectra  # (2, m//2+1, nw) real
        self.m = m
        self.nh = nh

    @classmethod
    def build(cls, tables: BoundaryGreensTables) -> "_VerticalSpectra":
        nw, nh = tables.grid.nw, tables.grid.nh
        # Any m >= 2*nh - 1 embeds the Toeplitz block exactly; pick the
        # next FFT-friendly composite (2*nh itself can be catastrophic:
        # 514 = 2*257 forces an O(n log n) Bluestein fallback ~8x slower
        # than the 540 = 2^2*3^3*5 plan).
        m = sfft.next_fast_len(2 * nh - 1, real=True)
        spectra = np.empty((2, m // 2 + 1, nw))
        c = np.zeros((m, nw))
        for e, i_b in enumerate((0, nw - 1)):
            t = tables.gpc[i_b]  # (nh, nw): first Toeplitz column per source column
            c[:nh] = t
            c[m - nh + 1 :] = t[1:][::-1]
            # Even symmetry of the embedding makes the spectrum real;
            # the imaginary residue is pure roundoff.
            spectra[e] = sfft.rfft(c, axis=0).real
        return cls(spectra, m, nh)

    @property
    def nbytes(self) -> int:
        return int(self.spectra.nbytes)

    def apply(self, p3: np.ndarray, i0: int) -> np.ndarray:
        """``(k, nh, B)`` currents on the grid rows ``[i0, i0 + k)`` ->
        ``(nh, 2, B)`` left/right edge sums ``+sum(G * pcurr)``.

        The spectra are real, so the contraction over source rows is one
        real batched GEMM: per frequency, ``(2, k)`` spectra against the
        ``(k, 2B)`` float view of the transformed currents (real and
        imaginary parts side by side)."""
        k = p3.shape[0]
        x_hat = sfft.rfft(p3, n=self.m, axis=1)  # (k, m//2+1, B) complex
        y = np.matmul(
            self.spectra.transpose(1, 0, 2)[:, :, i0 : i0 + k],
            x_hat.view(np.float64).transpose(1, 0, 2),
        )  # (m//2+1, 2, 2B) floats
        return sfft.irfft(y.view(np.complex128), n=self.m, axis=0)[: self.nh]


def _horizontal_rhs(p3: np.ndarray) -> np.ndarray:
    """Stack bottom/top right-hand sides of the ``(k, nh, B)`` source
    rows: ``q[ii, d, :B]`` feeds the bottom edge (offset ``d`` is the
    source column's Z index), ``q[ii, d, B:]`` the top edge (Z reversed) —
    both edges then ride one GEMM."""
    k, nh, nb = p3.shape
    q = np.empty((k, nh, 2 * nb))
    q[:, :, :nb] = p3
    q[:, :, nb:] = p3[:, ::-1]
    return q


class _StructuredEdgeOperator(EdgeOperator):
    """Shared apply plumbing of the :data:`EDGE_METHODS`: FFT vertical
    edges + pluggable horizontal, and a flat named-array form."""

    def __init__(self, grid: RZGrid, vertical: _VerticalSpectra) -> None:
        super().__init__(grid)
        self._vertical = vertical

    def _apply_rows(self, rows: np.ndarray, i0: int, out: np.ndarray) -> None:
        nw, nh = self.grid.nw, self.grid.nh
        nb = rows.shape[0]
        p3 = rows.transpose(1, 2, 0)  # (k, nh, B): a view, the slices side by side
        vertical, horizontal = edge_strips(out, nw, nh)
        vertical[...] = self._vertical.apply(p3, i0).transpose(1, 0, 2)  # from (nh, 2, B)
        bt = self._apply_horizontal(_horizontal_rhs(p3), i0)  # (nw-2, 2B)
        horizontal[0] = bt[:, :nb]
        horizontal[1] = bt[:, nb:]

    def _apply_horizontal(self, q: np.ndarray, i0: int) -> np.ndarray:
        """Bottom/top sums ``(nw-2, 2B)`` of the stacked right-hand sides
        ``q`` of :func:`_horizontal_rhs`, whose source rows start at ``i0``."""
        raise NotImplementedError

    @abc.abstractmethod
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat named-array form: the ``.npy`` files of its entry on disk
        (:mod:`repro.efit.diskcache`: the table cache, a fleet's arena).

        :func:`edge_operator_from_arrays` inverts it; the round trip
        reproduces ``apply`` bit-for-bit.
        """


class ToeplitzFFTEdgeOperator(_StructuredEdgeOperator):
    """FFT vertical edges + the exact GEMM horizontal edges.

    Stores only the circulant spectra and *aliases* the Green table for
    the horizontal contraction — the 541 MB dense operator at 257x257
    shrinks to a 1.1 MB spectrum block.  By reciprocity the horizontal
    sums over source rows ``[i0, i1)`` read ``gpc[i0:i1]``, one contiguous
    block of the table, with no copy of it in another layout.
    """

    method = "toeplitz"

    def __init__(self, grid: RZGrid, vertical: _VerticalSpectra, gpc: np.ndarray) -> None:
        super().__init__(grid, vertical)
        if gpc.shape != (grid.nw, grid.nh, grid.nw):
            raise OperatorError(f"Green table shape {gpc.shape} does not fit grid {grid.shape}")
        #: The Green table the horizontal edges are read from.
        self._horizontal = gpc

    @classmethod
    def from_tables(cls, tables: BoundaryGreensTables) -> "ToeplitzFFTEdgeOperator":
        return cls(tables.grid, _VerticalSpectra.build(tables), tables.gpc)

    @property
    def nbytes(self) -> int:
        return self._vertical.nbytes

    @property
    def variant_tag(self) -> str:
        return f"{self.method}-m{self._vertical.m}"

    def error_bound(self, x_norm: float = 1.0) -> float:
        scale = float(np.abs(self._vertical.spectra).max()) * np.sqrt(self.n_grid)
        return 64.0 * _EPS64 * scale * x_norm

    def _apply_horizontal(self, q: np.ndarray, i0: int) -> np.ndarray:
        # sum_{ii, d} gpc[i_b, d, ii] q[ii, d] = sum_{ii, d} gpc[ii, d, i_b] q[ii, d]
        k, nh, width = q.shape
        rows = self._horizontal[i0 : i0 + k].reshape(k * nh, self.grid.nw)
        return (rows.T @ q.reshape(k * nh, width))[1:-1]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "vert_spectra": self._vertical.spectra,
            "meta_i8": np.array([self._vertical.m], dtype=np.int64),
        }

    @classmethod
    def from_arrays(
        cls,
        grid: RZGrid,
        arrays: dict[str, np.ndarray],
        *,
        gpc: np.ndarray,
    ) -> "ToeplitzFFTEdgeOperator":
        (m,) = (int(v) for v in arrays["meta_i8"])
        vertical = _VerticalSpectra(arrays["vert_spectra"], m, grid.nh)
        return cls(grid, vertical, gpc)


class LowRankEdgeOperator(_StructuredEdgeOperator):
    """FFT vertical edges + truncated-SVD horizontal edges.

    Per-offset slices whose rank exceeds ``nw/2`` (the near field) stay
    dense in one gathered block; the rest are zero-padded into
    rank-sorted buckets so the whole far field applies as a handful of
    batched GEMMs.  This is the method that wins at large N: ~17x less
    memory and >5x less apply time than the dense GEMM at 257x257.
    """

    method = "lowrank"

    def __init__(
        self,
        grid: RZGrid,
        vertical: _VerticalSpectra,
        dense_idx: np.ndarray,
        dense_block: np.ndarray,
        buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        *,
        tol: float,
        sigma_ref: float,
    ) -> None:
        super().__init__(grid, vertical)
        self._dense_idx = dense_idx
        self._dense_block = dense_block
        self._buckets = buckets  # [(offset indices, U (k,nw-2,r), W (k,r,nw))]
        self._tol = tol
        self._sigma_ref = sigma_ref

    @classmethod
    def from_tables(cls, tables: BoundaryGreensTables, *, tol: float) -> "LowRankEdgeOperator":
        if not (np.isfinite(tol) and tol >= 0.0):
            raise OperatorError(
                f"lowrank truncation tolerance tol must be finite and >= 0, got {tol!r}"
            )
        grid = tables.grid
        nw, nh = grid.nw, grid.nh
        slices = tables.gpc[1:-1]  # (nw-2, nh, nw): axes (edge row, offset, source col)

        factors: list[tuple[np.ndarray, np.ndarray]] = []
        sigmas = []
        for d in range(nh):
            u, s, vt = np.linalg.svd(slices[:, d, :], full_matrices=False)
            factors.append((u, s[:, None] * vt))
            sigmas.append(s)
        sigma_ref = max(float(s[0]) for s in sigmas)
        # Truncating each of the nh offsets at tau keeps the 2-norm error
        # of the summed operator under tol * sigma_ref (triangle
        # inequality over sqrt(nh) incoherent terms).
        tau = tol * sigma_ref / np.sqrt(nh)
        ranks = np.array([max(1, int(np.sum(s > tau))) for s in sigmas])

        dense_idx = np.flatnonzero(ranks >= _DENSE_RANK_FRACTION * (nw - 2))
        dense_block = slices[:, dense_idx, :].reshape(nw - 2, dense_idx.size * nw)

        lr = sorted(np.setdiff1d(np.arange(nh), dense_idx), key=lambda d: -ranks[d])
        groups: list[list[int]] = []
        for d in lr:
            if groups:
                cur = groups[-1]
                padded = int(ranks[cur[0]]) * (len(cur) + 1)
                actual = sum(int(ranks[i]) for i in cur) + int(ranks[d])
                if len(cur) < _BUCKET_MIN or padded <= _BUCKET_WASTE * actual:
                    cur.append(d)
                    continue
            groups.append([int(d)])

        buckets = []
        for group in groups:
            r_max = int(ranks[group[0]])
            u_pack = np.zeros((len(group), nw - 2, r_max))
            w_pack = np.zeros((len(group), r_max, nw))
            for k, d in enumerate(group):
                r = int(ranks[d])
                u, w = factors[d]
                u_pack[k, :, :r] = u[:, :r]
                w_pack[k, :r, :] = w[:r]
            buckets.append((np.asarray(group, dtype=np.int64), u_pack, w_pack))

        return cls(
            grid,
            _VerticalSpectra.build(tables),
            dense_idx,
            dense_block,
            buckets,
            tol=tol,
            sigma_ref=sigma_ref,
        )

    @property
    def total_rank(self) -> int:
        return int(sum(u.shape[0] * u.shape[2] for _, u, _ in self._buckets))

    @property
    def nbytes(self) -> int:
        n = self._vertical.nbytes + int(self._dense_block.nbytes)
        for _, u, w in self._buckets:
            n += int(u.nbytes) + int(w.nbytes)
        return n

    @property
    def variant_tag(self) -> str:
        return f"{self.method}-tol{self._tol:g}-r{self.total_rank}"

    def error_bound(self, x_norm: float = 1.0) -> float:
        truncation = self._tol * self._sigma_ref
        roundoff = 64.0 * _EPS64 * self._sigma_ref * np.sqrt(self.n_grid)
        return (truncation + roundoff) * x_norm

    def _apply_horizontal(self, q: np.ndarray, i0: int) -> np.ndarray:
        # The factors' source-column block [i0, i1), offset by offset.
        cols = slice(i0, i0 + q.shape[0])
        by_offset = q.transpose(1, 0, 2)  # (nh, k, 2B)
        nw = self.grid.nw
        near = self._dense_block.reshape(nw - 2, self._dense_idx.size, nw)
        acc = np.matmul(
            near.transpose(1, 0, 2)[:, :, cols], by_offset[self._dense_idx]
        ).sum(axis=0)
        for idx, u_pack, w_pack in self._buckets:
            mid = np.matmul(w_pack[:, :, cols], by_offset[idx])  # (kb, r, 2B)
            acc += np.matmul(u_pack, mid).sum(axis=0)  # (kb, nw-2, 2B) summed
        return acc

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = {
            "vert_spectra": self._vertical.spectra,
            "dense_idx": self._dense_idx.astype(np.int64),
            "dense_block": self._dense_block,
            "meta_i8": np.array(
                [self._vertical.m, len(self._buckets)], dtype=np.int64
            ),
            "meta_f8": np.array([self._tol, self._sigma_ref]),
        }
        for b, (idx, u_pack, w_pack) in enumerate(self._buckets):
            arrays[f"bucket{b:02d}_idx"] = idx
            arrays[f"bucket{b:02d}_u"] = u_pack
            arrays[f"bucket{b:02d}_w"] = w_pack
        return arrays

    @classmethod
    def from_arrays(
        cls, grid: RZGrid, arrays: dict[str, np.ndarray]
    ) -> "LowRankEdgeOperator":
        m, n_buckets = (int(v) for v in arrays["meta_i8"])
        tol, sigma_ref = (float(v) for v in arrays["meta_f8"])
        buckets = [
            (
                arrays[f"bucket{b:02d}_idx"],
                arrays[f"bucket{b:02d}_u"],
                arrays[f"bucket{b:02d}_w"],
            )
            for b in range(n_buckets)
        ]
        return cls(
            grid,
            _VerticalSpectra(arrays["vert_spectra"], m, grid.nh),
            arrays["dense_idx"],
            arrays["dense_block"],
            buckets,
            tol=tol,
            sigma_ref=sigma_ref,
        )


#: The one truncation tolerance a ``lowrank`` operator is built at.  The
#: cache key holds no tolerance, so the accessor takes none: every engine
#: in the process reconstructs on an operator within DESIGN.md section 6's
#: 1e-10.  Nor does an on-disk entry's name: changing it changes what
#: :mod:`repro.efit.diskcache` stores, so bump its ``DISK_FORMAT_VERSION``.
_CACHED_TOL = 1e-12


def build_edge_operator(tables: BoundaryGreensTables, method: str) -> EdgeOperator:
    """Build the edge-flux operator for ``tables`` in the given form.

    ``method`` is one of :data:`EDGE_METHODS`, or ``"dense"`` for their
    ground truth.  Structured builds first run
    :func:`validate_edge_structure`; ``lowrank`` truncates at
    :data:`_CACHED_TOL`.
    """
    forms = ("dense",) + EDGE_METHODS
    if method not in forms:
        raise OperatorError(f"unknown boundary method {method!r}; choose one of {forms}")
    if method == "dense":
        return DenseEdgeOperator.from_tables(tables)
    validate_edge_structure(tables)
    if method == "toeplitz":
        return ToeplitzFFTEdgeOperator.from_tables(tables)
    return LowRankEdgeOperator.from_tables(tables, tol=_CACHED_TOL)


def cached_edge_operator(
    tables: BoundaryGreensTables, method: str = DEFAULT_EDGE_METHOD
) -> EdgeOperator:
    """Memoised :func:`build_edge_operator` keyed on grid + method, one of
    :data:`EDGE_METHODS` (the dense ground truth is built, never cached:
    ``build_edge_operator(tables, "dense")``).

    The operator every solver, engine and fleet applies when it is handed
    none, so the default ``method`` is the one place a reconstruction's
    representation is decided.  Solvers, the batch engine and the
    benchmarks constructed for one grid share one operator.  It is held
    beside the grid's entry in the process-wide table cache
    (:meth:`~repro.efit.tables.BoundaryTableCache.operators`), so it is
    forgotten with the table it was built from.  A miss consults the
    optional on-disk layer (:mod:`repro.efit.diskcache`,
    ``REPRO_TABLE_CACHE_DIR``) before paying the per-offset SVD / spectra
    build, and publishes a fresh structured build back to it.
    """
    require_staged(method)
    operators = boundary_table_cache().operators(tables.grid)
    op = operators.get(method)
    if op is None:
        from repro.efit import diskcache

        op = diskcache.load_edge_operator(tables, method)
        if op is None:
            op = build_edge_operator(tables, method)
            diskcache.store_edge_operator(op)
        operators[method] = op
    return op


def seed_edge_operator(op: EdgeOperator) -> None:
    """Install an externally-built operator (a fleet worker's, over its
    arena's mapped arrays) so later ``cached_edge_operator`` calls resolve to it.  Seed the
    table first: seeding a table forgets the operators of the one it
    replaces."""
    boundary_table_cache().operators(op.grid)[op.method] = op


def drop_edge_operator(grid: RZGrid, method: str) -> None:
    """Forget the cached operator for ``(grid, method)`` (no-op when
    absent).  Dropping the grid's table does it for every method."""
    boundary_table_cache().operators(grid).pop(method, None)


def edge_operator_from_arrays(
    grid: RZGrid,
    method: str,
    arrays: dict[str, np.ndarray],
    *,
    gpc: np.ndarray,
) -> EdgeOperator:
    """Rebuild an operator from its :meth:`EdgeOperator.to_arrays` form.

    :mod:`repro.efit.diskcache` calls this on an entry's read-only
    mapped arrays, for the table cache and for a fleet worker mapping its
    arena alike.  The toeplitz form aliases the Green table ``gpc``
    instead of copying it.
    """
    require_staged(method)
    if method == "toeplitz":
        return ToeplitzFFTEdgeOperator.from_arrays(grid, arrays, gpc=gpc)
    return LowRankEdgeOperator.from_arrays(grid, arrays)


def require_staged(method: str) -> None:
    """Raise :class:`~repro.errors.OperatorError` unless ``method`` is one
    of :data:`EDGE_METHODS`, the forms that are cached, written to disk and
    staged in a fleet's arena."""
    if method not in EDGE_METHODS:
        raise OperatorError(
            f"only the {' and '.join(EDGE_METHODS)} edge operators are cached, "
            f"persisted and staged, not {method!r}; build the dense ground "
            f"truth with build_edge_operator(tables, 'dense') and apply any "
            f"other form by passing its instance to EfitSolver(pflux_impl=) "
            f"or BatchFitEngine(edge_operator=)"
        )
