"""Overlapping-subdomain Schwarz smoothers.

Subdomains are extended element regions adopting ``n_o`` node layers from
each neighbor (the outer layer on the subdomain boundary is excluded).
All subdomains of a uniform periodic mesh are congruent, so a single
fast-diagonalization factorization per level suffices.  A smoother is
built from its level's operator alone: the operator gives the basis, the
layout and the element sizes, and for diffusion the per-element mean nu
that scales each local solve (the local problem has unit diffusivity).
The weighted additive sweep combines all local solves at once with a
diagonal weight tensor W = W_y (x) W_x; the multiplicative sweep
processes subdomains sequentially, recomputing the residual on each
subdomain's window alone from the 3x3 elements around it, and reverses
the traversal order on every other sweep so that an even number of
consecutive sweeps is symmetric.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import Basis1D, overlap_width
from .mesh import _global_1d, all_element_windows, periodic_windows, scatter_blocks
from .operators import DiffusionOperator

__all__ = ["WeightKind", "FastDiagSolver", "restricted_1d", "weight_value",
           "build_weight_1d", "build_fast_diag", "AdditiveSchwarz",
           "MultiplicativeSchwarz", "SweepCounter"]


class WeightKind(str, Enum):
    ARITHMETIC = "wa"
    LINEAR = "w1"
    CUBIC = "w3"
    QUINTIC = "w5"
    SEVENTH = "w7"
    TOPHAT = "wt"


def _shape_core(kind: WeightKind, x: np.ndarray) -> np.ndarray:
    """Shape function on [-1, 1] (the polynomial or degenerate cases)."""
    if kind is WeightKind.ARITHMETIC:
        return np.zeros_like(x)
    if kind is WeightKind.LINEAR:
        return x
    if kind is WeightKind.CUBIC:
        return (3 * x - x**3) / 2
    if kind is WeightKind.QUINTIC:
        return (15 * x - 10 * x**3 + 3 * x**5) / 8
    if kind is WeightKind.SEVENTH:
        return (35 * x - 35 * x**3 + 21 * x**5 - 5 * x**7) / 16
    if kind is WeightKind.TOPHAT:
        return np.sign(x)
    raise ValueError(f"unknown weight kind {kind!r}")


def shape_function(kind: WeightKind, x) -> np.ndarray:
    """Full shape function: the core on [-1, 1], sign(x) outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= 1.0
    return np.where(inside, _shape_core(kind, np.clip(x, -1.0, 1.0)), np.sign(x))


def weight_value(kind: WeightKind, xi, delta: float) -> np.ndarray:
    """Continuous weighting profile at extended standard coordinate ``xi``."""
    if delta <= 0:
        raise ValueError("overlap width must be positive")
    xi = np.asarray(xi, dtype=float)
    return 0.5 * (shape_function(kind, (xi + 1.0) / delta)
                  - shape_function(kind, (xi - 1.0) / delta))


def _coverage_count(own: np.ndarray, p: int, n_o: int) -> np.ndarray:
    """Number of subdomains updating the node with own-element index ``own``.

    A subdomain anchored at element e updates global offsets
    [p e - n_o, p e + p + n_o]; counting the integer e in range gives the
    diagonal of the counting matrix C.
    """
    upper = np.floor((own + n_o) / p)
    lower = np.ceil((own - p - n_o) / p)
    return (upper - lower + 1).astype(int)


def build_weight_1d(kind: WeightKind, basis: Basis1D, n_o: int) -> np.ndarray:
    """Per-direction weights at the p + 1 + 2*n_o updated subdomain nodes.

    The arithmetic mean is the pseudoinverse of the counting matrix, i.e.
    1 / multiplicity per node; the gradual kinds evaluate the blending
    profile at the extended standard coordinates (adopted nodes lie beyond
    [-1, 1]), with nodes updated by no other subdomain forced to exactly 1.
    """
    p = basis.p
    delta = overlap_width(basis, n_o)
    own = np.arange(p + 1 + 2 * n_o) - n_o  # own-element local node index
    if kind is WeightKind.ARITHMETIC:
        return 1.0 / _coverage_count(own, p, n_o)
    xi = np.concatenate([basis.nodes[p - n_o:p] - 2.0, basis.nodes,
                         basis.nodes[1:n_o + 1] + 2.0])
    w = weight_value(kind, xi, delta)
    w[(own > n_o) & (own < p - n_o)] = 1.0
    return w


def restricted_1d(basis: Basis1D, d: float, n_o: int):
    """Restricted 1D stiffness and (diagonal) mass for the subdomain solve.

    Assembles a three-element periodic ring and keeps the p + 1 + 2*n_o
    updated rows/columns around the middle element; the excluded outer
    layer acts as a homogeneous Dirichlet boundary. The kept rows never
    reach the wrapped node 0, so this equals the open three-element patch.
    Returns (L_s, m_s) with m_s the mass diagonal.
    """
    p = basis.p
    if not 0 <= n_o <= p - 1:
        raise ValueError(f"overlap layers must be in [0, {p - 1}], got {n_o}")
    m, L = _global_1d(basis, 3, d)
    sel = slice(p - n_o, 2 * p + n_o + 1)
    return np.ascontiguousarray(L[sel, sel]), m[sel].copy()


@dataclass(eq=False)
class FastDiagSolver:
    """Factored inverse of the tensor-product subdomain operator.

    Holds the generalized eigenvector matrices S_* (normalized so that
    S^T M_s S = I) and the eigenvalue diagonals.
    """

    S_x: np.ndarray
    S_y: np.ndarray
    lam_x: np.ndarray
    lam_y: np.ndarray

    def solve(self, blocks: np.ndarray) -> np.ndarray:
        """Apply the factored inverse to one block or a batch of blocks."""
        tmp = self.S_y.T @ blocks @ self.S_x
        tmp /= (self.lam_y[:, None] + self.lam_x[None, :])
        return self.S_y @ tmp @ self.S_x.T


def _direction_factors(basis: Basis1D, d: float, n_o: int):
    L_s, m_s = restricted_1d(basis, d, n_o)
    inv_sqrt = 1.0 / np.sqrt(m_s)
    sym = inv_sqrt[:, None] * L_s * inv_sqrt[None, :]
    lam, q = np.linalg.eigh(sym)
    if lam[0] <= 0.0:
        raise RuntimeError("restricted subdomain problem is not definite")
    return inv_sqrt[:, None] * q, lam


def build_fast_diag(basis: Basis1D, dx: float, dy: float,
                    n_o: int) -> FastDiagSolver:
    """Per-direction generalized eigendecompositions of the subdomain problem."""
    S_x, lam_x = _direction_factors(basis, dx, n_o)
    S_y, lam_y = _direction_factors(basis, dy, n_o)
    return FastDiagSolver(S_x=S_x, S_y=S_y, lam_x=lam_x, lam_y=lam_y)


def _subdomain_solver(op, n_o: int) -> FastDiagSolver:
    """Local solver shared by the congruent subdomains of ``op``'s level."""
    lay = op.layout
    m = lay.p + 1 + 2 * n_o
    if m > lay.N_x or m > lay.N_y:
        raise ValueError(
            f"subdomain window ({m} nodes) wraps onto itself on a "
            f"{lay.n_x}x{lay.n_y} mesh at p={lay.p}; reduce n_o")
    return build_fast_diag(op.basis, op.mesh.dx, op.mesh.dy, n_o)


def _mean_nu(op) -> np.ndarray | None:
    """Per-element mean diffusivity scaling the local solves (None: Poisson)."""
    return op.element_mean_nu() if isinstance(op, DiffusionOperator) else None


class AdditiveSchwarz:
    """Weighted additive Schwarz sweep over all subdomains at once."""

    def __init__(self, op, n_o: int, kind: WeightKind):
        self.solver = _subdomain_solver(op, n_o)
        w = build_weight_1d(kind, op.basis, n_o)
        self.weight = np.outer(w, w)
        self.layout = op.layout
        self._gy, self._gx, self._flat = all_element_windows(op.layout, n_o)
        # For diffusion: local solves scaled by 1 / mean(nu) per element.
        nu_bar = _mean_nu(op)
        self._inv_nu = None if nu_bar is None else 1.0 / nu_bar[:, :, None, None]

    def smooth(self, op, u: np.ndarray | None, f: np.ndarray,
               n_it: int) -> np.ndarray | None:
        """``n_it`` sweeps on A u = f; ``u=None`` starts from zero, so the
        first sweep's residual is ``f`` itself."""
        for _ in range(n_it):
            r = f if u is None else f - op.apply(u)
            cor = self.solver.solve(r[self._gy, self._gx]) * self.weight
            if self._inv_nu is not None:
                cor = cor * self._inv_nu
            u = scatter_blocks(self._flat, cor, self.layout, out=u)
        return u


@dataclass(eq=False)
class SweepCounter:
    """Running count of multiplicative sweeps, shared across a hierarchy.

    Traversal direction alternates with this counter, so consecutive
    sweeps -- within one smoother call, across calls, and across the
    levels of a multigrid cycle -- keep symmetrizing each other.
    """

    i: int = 0

    def reset(self):
        self.i = 0


class MultiplicativeSchwarz:
    """Sequential Schwarz sweep with a window-only residual.

    Subdomains are traversed lexicographically by (e_y, e_x), in reversed
    order on every even-numbered sweep, so an even number of consecutive
    sweeps yields a symmetric linear operator.  The sweep count persists
    in ``counter`` (pass a common instance to share it between smoothers).
    Before each local solve the residual is recomputed on the subdomain
    window alone, from the current iterate on the 3x3 elements around the
    owner: one batched element-kernel call over the nine elements, folded
    onto the window, so no global residual is ever formed.
    """

    def __init__(self, op, n_o: int, counter: SweepCounter | None = None):
        self.counter = SweepCounter() if counter is None else counter
        self.solver = _subdomain_solver(op, n_o)
        self.layout = layout = op.layout
        p = layout.p
        # Row e: subdomain window nodes, and the node blocks (3, p+1) of
        # the elements e-1, e, e+1, cut from the width-p window around e.
        self._wy = periodic_windows(p, layout.n_y, n_o)[:, :, None]
        self._wx = periodic_windows(p, layout.n_x, n_o)
        local = np.arange(3)[:, None] * p + np.arange(p + 1)
        by = periodic_windows(p, layout.n_y, p)[:, local]
        bx = periodic_windows(p, layout.n_x, p)[:, local]
        self._by, self._bx = by[:, :, None, :, None], bx[:, None, :, None, :]
        # Element index of each block: its first node over p.
        self._ny, self._nx = by[:, :, :1] // p, bx[:, None, :, 0] // p
        # 0/1 fold of the three blocks of a patch line onto the window.
        window = np.arange(p - n_o, 2 * p + n_o + 1)
        self._fold = (local.ravel() == window[:, None]).astype(float)
        self._nu_bar = _mean_nu(op)

    def _window_residual(self, op, u, f, e_x, e_y):
        """f - A u on the window of subdomain (e_x, e_y)."""
        blocks = u[self._by[e_y], self._bx[e_x]]
        k = op.element_kernel(blocks, self._nx[e_x], self._ny[e_y])
        k = k.transpose(0, 2, 1, 3).reshape(self._fold.shape[1], -1)
        return f[self._wy[e_y], self._wx[e_x]] - self._fold @ k @ self._fold.T

    def smooth(self, op, u: np.ndarray | None, f: np.ndarray,
               n_it: int) -> np.ndarray | None:
        """``n_it`` sweeps on A u = f, updating ``u`` in place; ``u=None``
        starts from zero."""
        lay = self.layout
        if u is None and n_it:
            u = lay.zeros()
        order = [(e_x, e_y) for e_y in range(lay.n_y) for e_x in range(lay.n_x)]
        for _ in range(n_it):
            self.counter.i += 1
            seq = order if self.counter.i % 2 == 1 else order[::-1]
            for e_x, e_y in seq:
                du = self.solver.solve(self._window_residual(op, u, f, e_x, e_y))
                if self._nu_bar is not None:
                    du /= self._nu_bar[e_y, e_x]
                u[self._wy[e_y], self._wx[e_x]] += du
        return u
