"""Overlapping-subdomain Schwarz smoothers.

Subdomains are extended element regions adopting ``n_o`` node layers from
each neighbor (the outer layer on the subdomain boundary is excluded).
All subdomains of a uniform periodic mesh are congruent, so a single
fast-diagonalization factorization per level suffices.  A smoother is
built from its level's operator alone: the operator gives the basis, the
layout and the element sizes, and for diffusion the per-element mean nu
that scales each local solve (the local problem has unit diffusivity).
Both sweeps gather the subdomain windows of a residual, transform them
one direction at a time, scale by the inverse eigenvalues and fold the
back-transformed windows onto the nodes.  The weighted additive sweep
does so for all subdomains at once, with a diagonal weight tensor
W = W_y (x) W_x folded into the back transform (diag(w) S_y and
S_x^T diag(w)).  The multiplicative sweep does so one colour of
non-neighbouring subdomains at a time, unweighted, with a fresh residual
per colour, and reverses the colour order on every odd-numbered sweep so
that an even number of consecutive sweeps is symmetric.  The caller
numbers the sweeps; no smoother keeps state between calls.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import Basis1D, overlap_width
from .mesh import _global_1d, fold_windows, periodic_windows

__all__ = ["WeightKind", "FastDiagSolver", "restricted_1d", "weight_value",
           "build_weight_1d", "build_fast_diag", "AdditiveSchwarz",
           "MultiplicativeSchwarz"]


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
    return None if op.nu is None else op.element_mean_nu()


def _window_transform(r, wx, wy, S_x, S_yT) -> np.ndarray:
    """S_y^T r_w S_x on every subdomain window r_w of ``r``, with axes
    (e_y, y, e_x, x): the x windows are transformed before the y windows
    are gathered."""
    t = np.take(np.take(r, wx, 1) @ S_x, wy, 0)
    n_y, m, n_x, _ = t.shape
    return (S_yT @ t.reshape(n_y, m, -1)).reshape(t.shape)


class AdditiveSchwarz:
    """Weighted additive Schwarz sweep over all subdomains at once, one
    direction at a time: transform the x windows, then the y windows,
    scale, and transform back through diag(w) S_y and S_x^T diag(w),
    folding each direction's windows onto the nodes."""

    def __init__(self, op, n_o: int, kind: WeightKind):
        solver = _subdomain_solver(op, n_o)
        w = build_weight_1d(kind, op.basis, n_o)[:, None]
        lay = op.layout
        self.p, self.n_o = lay.p, n_o
        self._wx = periodic_windows(lay.p, lay.n_x, n_o)
        self._wy = periodic_windows(lay.p, lay.n_y, n_o)
        self._S_x, self._S_yT = solver.S_x, solver.S_y.T
        self._WS_y, self._S_xTW = w * solver.S_y, (w * solver.S_x).T
        # Inverse eigenvalues on axes (e_y, y, e_x, x), for diffusion over
        # the element's mean nu.
        nu_bar = _mean_nu(op)
        nu = 1.0 if nu_bar is None else nu_bar[:, None, :, None]
        self._scale = 1.0 / (nu * (solver.lam_y[:, None, None] + solver.lam_x))

    def smooth(self, op, u: np.ndarray | None, f: np.ndarray,
               n_it: int, first: int = 0) -> np.ndarray | None:
        """``n_it`` sweeps on A u = f; ``u=None`` starts from zero, so the
        first sweep's residual is ``f`` itself.  Every additive sweep is
        the same, so the sweep number ``first`` is ignored."""
        p, n_o = self.p, self.n_o
        for _ in range(n_it):
            r = f if u is None else f - op.apply(u)
            t = _window_transform(r, self._wx, self._wy, self._S_x,
                                  self._S_yT)
            n_y, m, n_x, _ = t.shape
            t *= self._scale
            t = fold_windows(self._WS_y @ t.reshape(n_y, m, -1), 1, p, n_o)
            cor = fold_windows(t.reshape(-1, n_x, m) @ self._S_xTW, 2, p, n_o)
            u = cor if u is None else np.add(u, cor, out=u)
        return u


def _colour_classes(n: int) -> list[np.ndarray]:
    """Classes of non-neighbours on a periodic ring of ``n`` elements: the
    even indices, the odd ones and, on an odd ring, the last alone."""
    classes = [np.arange(0, n - n % 2, 2), np.arange(1, n - n % 2, 2)]
    return classes + [np.array([n - 1])] * (n % 2)


class MultiplicativeSchwarz:
    """Multicolour multiplicative Schwarz sweep (Smith, Bjorstad & Gropp,
    Domain Decomposition, 1996) over the products of the two directions'
    ``_colour_classes``: 4 colours on an even mesh, 6 or 9 on an odd one,
    lexicographic by (y class, x class) on even-numbered sweeps and
    reversed on odd-numbered ones.  The caller numbers the sweeps
    (``smooth``'s ``first``)."""

    def __init__(self, op, n_o: int):
        solver = _subdomain_solver(op, n_o)
        lay = op.layout
        self.p, self.n_o = lay.p, n_o
        self._wx = periodic_windows(lay.p, lay.n_x, n_o)
        self._wy = periodic_windows(lay.p, lay.n_y, n_o)
        self._colours = [(c_y, c_x) for c_y in _colour_classes(lay.n_y)
                         for c_x in _colour_classes(lay.n_x)]
        self._S_x, self._S_yT = solver.S_x, solver.S_y.T
        self._S_y, self._S_xT = solver.S_y, solver.S_x.T
        # Inverse eigenvalues on axes (y, e_x, x), and per element the
        # inverse of its mean nu (1 for Poisson).
        self._inv_lam = 1.0 / (solver.lam_y[:, None, None] + solver.lam_x)
        nu_bar = _mean_nu(op)
        self._inv_nu = (np.ones((lay.n_y, lay.n_x)) if nu_bar is None
                        else 1.0 / nu_bar)

    def smooth(self, op, u: np.ndarray | None, f: np.ndarray,
               n_it: int, first: int = 0) -> np.ndarray | None:
        """Sweeps ``first`` ... ``first + n_it - 1`` on A u = f, updating
        ``u`` in place; ``u=None`` starts from zero, so the first colour's
        residual is ``f`` itself.  A colour step takes one residual, solves
        on the colour's windows only and folds the corrections, the other
        colours' windows being zero."""
        p, n_o = self.p, self.n_o
        n_y, n_x = len(self._wy), len(self._wx)
        for k in range(first, first + n_it):
            for c_y, c_x in self._colours[::-1 if k % 2 else 1]:
                r = f if u is None else f - op.apply(u)
                t = _window_transform(r, self._wx[c_x], self._wy[c_y],
                                      self._S_x, self._S_yT)
                ny_c, m, nx_c, _ = t.shape
                t *= self._inv_nu[np.ix_(c_y, c_x)][:, None, :, None]
                t *= self._inv_lam
                w = np.zeros((n_y, m, nx_c * m))
                w[c_y] = self._S_y @ t.reshape(ny_c, m, -1)
                t = fold_windows(w, 1, p, n_o).reshape(-1, nx_c, m)
                w = np.zeros((len(t), n_x, m))
                w[:, c_x] = t @ self._S_xT
                cor = fold_windows(w, 2, p, n_o)
                u = cor if u is None else np.add(u, cor, out=u)
        return u
