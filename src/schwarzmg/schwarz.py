"""Overlapping-subdomain Schwarz smoothers.

Subdomains are extended element regions adopting ``n_o`` node layers from
each neighbor (the outer layer on the subdomain boundary is excluded).
All subdomains of a uniform periodic mesh are congruent, so a single
fast-diagonalization factorization per level suffices.  A smoother is
built from its level's operator alone: the operator gives the basis, the
layout and the element sizes, and for diffusion the per-element mean nu
that scales each local solve (the local problem has unit diffusivity).
The weighted additive sweep combines all local solves at once with a
diagonal weight tensor W = W_y (x) W_x, folded into the back transform
of the fast diagonalization (diag(w) S_y and S_x^T diag(w)) and applied
one direction at a time.  The multiplicative sweep processes subdomains
sequentially and reverses the traversal order on every other sweep, so
that an even number of consecutive sweeps is symmetric.  It forms each
subdomain's residual directly in the local eigenbasis, from f transformed
once per call and the element-block derivatives of the iterate on the
3x3 elements around the subdomain, through level-constant factors that
absorb the fold onto the window; it never forms a node-space residual.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import Basis1D, overlap_width
from .mesh import _global_1d, fold_windows, periodic_windows
from .operators import DiffusionOperator, _check_layout

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
               n_it: int) -> np.ndarray | None:
        """``n_it`` sweeps on A u = f; ``u=None`` starts from zero, so the
        first sweep's residual is ``f`` itself."""
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


def _patch_index(y, x, rows, out):
    """Flat indices of the window rows of 3x3-element patches, each the sum
    of the y offsets ``y`` and one row of the x offsets ``x`` per patch:
    out[:, 0] holds the rows ``rows`` of the patch, out[:, 1] those of its
    transpose (the window columns)."""
    np.add(y[rows, None], x[:, None, :], out=out[:, 0])
    np.add(y, x[:, rows, None], out=out[:, 1])
    return out


class MultiplicativeSchwarz:
    """Sequential Schwarz sweep with each residual formed in the local
    eigenbasis.

    Subdomains are traversed lexicographically by (e_y, e_x), in reversed
    order on every even-numbered sweep, so an even number of consecutive
    sweeps yields a symmetric linear operator.  The sweep count persists
    in ``counter`` (pass a common instance to share it between smoothers).

    Each call transforms every window of f once, f_hat = S_y^T f_w S_x.
    With U the iterate on the 3x3 elements around the owner in
    element-block layout and NW their ``WeakForm.nu_w``, subdomain s takes

        z = f_hat_s - A_y (NW * U D^T) B_x - B_y (NW * D U) A_x,
        du = S_y (z / (nu_bar_s (lam_y + lam_x))) S_x^T,

    with D per element block and the level-constant A_y = S_y^T F,
    B_y = c_y S_y^T F D^T, A_x = F^T S_x and B_x = c_x D F^T S_x, F the
    0/1 fold of the patch onto the window.  F reaches only the patch rows
    (and columns) in the window, so only those rows of U D^T and, for the
    y term taken transposed, of U^T D^T are formed.
    """

    def __init__(self, op, n_o: int, counter: SweepCounter | None = None):
        self.counter = SweepCounter() if counter is None else counter
        solver = _subdomain_solver(op, n_o)
        self.layout = lay = op.layout
        wf = op.weak_form
        p, p1 = lay.p, lay.p + 1
        self._wy = periodic_windows(p, lay.n_y, n_o)
        self._wx = periodic_windows(p, lay.n_x, n_o)
        # Row e: nodes of the blocks (3, p+1) of the elements e-1, e, e+1,
        # cut from the width-p window around e, as flat offsets into u.
        local = (np.arange(3)[:, None] * p + np.arange(p1)).ravel()
        self._py = periodic_windows(p, lay.n_y, p)[:, local] * lay.N_x
        self._px = periodic_windows(p, lay.n_x, p)[:, local]
        # The same patches in nu_w: the element rows e-1, e, e+1 (taken
        # once per row of subdomains) and flat offsets into those three
        # rows, a y part by block node and an x part per column e_x.
        blk, node = np.divmod(np.arange(3 * p1), p1)
        self._ny = (np.arange(lay.n_y)[:, None] + np.arange(-1, 2)) % lay.n_y
        self._nwy = blk * (lay.n_x * p1 * p1) + node * p1
        self._nwx = ((np.arange(lay.n_x)[:, None] + blk - 1) % lay.n_x
                     * (p1 * p1) + node)
        self._nu_w = wf.nu_w
        # The patch rows in the window: the last n_o + 1 of block e-1,
        # block e and the first n_o + 1 of block e+1.
        self._rows = rows = slice(p - n_o, 2 * p + n_o + 3)
        self._dT = wf.diff.T
        fold = (local == np.arange(p - n_o, 2 * p + n_o + 1)[:, None]) * 1.0
        m = len(fold)
        F_Sx, F_Sy = fold.T @ solver.S_x, fold.T @ solver.S_y
        # A_y and A_x^T on the window rows; B_x and B_y^T = c_y D F^T S_y.
        self._left = np.stack([F_Sy[rows].T, F_Sx[rows].T])
        self._right = np.stack(
            [c * (wf.diff @ FS.reshape(3, p1, m)).reshape(-1, m)
             for c, FS in ((wf.c_x, F_Sx), (wf.c_y, F_Sy))])
        self._S_x, self._S_yT = solver.S_x, solver.S_y.T
        self._S_y, self._S_xT = solver.S_y, solver.S_x.T
        # Inverse eigenvalues, and per subdomain the inverse of the owner's
        # mean nu (1 for Poisson); their product is taken per row.
        self._inv_lam = 1.0 / (solver.lam_y[:, None] + solver.lam_x)
        nu_bar = _mean_nu(op)
        self._inv_nu = (np.ones((lay.n_y, lay.n_x)) if nu_bar is None
                        else 1.0 / nu_bar)

    def smooth(self, op, u: np.ndarray | None, f: np.ndarray,
               n_it: int) -> np.ndarray | None:
        """``n_it`` sweeps on A u = f, updating ``u`` (C-contiguous) in
        place; ``u=None`` starts from zero."""
        if not n_it:
            return u
        lay = self.layout
        u = lay.zeros() if u is None else u
        _check_layout(lay, u)
        _check_layout(lay, f)
        if not u.flags.c_contiguous:
            raise ValueError("the iterate must be C-contiguous: the sweep "
                             "updates it through flat indices")
        p1, N_x, rows = lay.p + 1, lay.N_x, self._rows
        fh = _window_transform(f, self._wx, self._wy, self._S_x, self._S_yT)
        fh = fh.transpose(0, 2, 1, 3)
        flat = u.reshape(-1)
        left, right, dT = self._left, self._right, self._dT
        S_y, S_xT = self._S_y, self._S_xT
        shape = (lay.n_x, 2, rows.stop - rows.start, 3 * p1)
        patch = np.empty(shape, dtype=np.intp)
        nwi = _patch_index(self._nwy, self._nwx, rows, np.empty_like(patch))
        # The x-term rows of NW * U D^T and the y-term rows of
        # NW^T * U^T D^T (element-block derivatives in one product).
        g = np.empty(shape[1:])
        g_all = g.reshape(-1, p1)
        for _ in range(n_it):
            self.counter.i += 1
            step = 1 if self.counter.i % 2 == 1 else -1
            for e_y in range(lay.n_y)[::step]:
                _patch_index(self._py[e_y], self._px, rows, patch)
                window = (self._wy[e_y, :, None] * N_x) + self._wx[:, None, :]
                nw = self._nu_w.take(self._ny[e_y], 0).take(nwi)
                inv_lam = self._inv_nu[e_y, :, None, None] * self._inv_lam
                for e_x in range(lay.n_x)[::step]:
                    np.matmul(flat.take(patch[e_x]).reshape(-1, p1), dT,
                              out=g_all)
                    g *= nw[e_x]
                    k = left @ (g @ right)
                    z = np.subtract(fh[e_y, e_x], k[0], out=k[0])
                    z -= k[1].T
                    z *= inv_lam[e_x]
                    flat[window[e_x]] += S_y @ z @ S_xT
        return u
