"""Overlapping-subdomain Schwarz smoothers and their subdomain weights.

Subdomains are extended element regions adopting ``n_o`` node layers from
each neighbor (the outer layer on the subdomain boundary is excluded).
All subdomains of a uniform periodic mesh are congruent, so a single
fast-diagonalization factorization per level suffices.  There is one
sweep, ``SchwarzSmoother``'s, with a step per smoother; it computes in
the dtype of its right side (the precision policy is ``krylov``'s).

The additive weights are built from the smoothed sign function
S_k(x) = c_k * integral from 0 to x of (1 - t^2)^k dt, with c_k such that
S_k(1) = 1: w1, w3, w5 and w7 take k = 0 ... 3, S_k held at +-1 beyond
[-1, 1].  A subdomain of overlap width delta weighs the node at extended
coordinate xi by (S((xi + 1) / delta) - S((xi - 1) / delta)) / 2.  The
top hat wt takes S = sign.  The arithmetic mean wa of Lottes & Fischer
(J. Sci. Comput. 24, 2005) has no such profile: it weighs each node by
one over the number of subdomains that update it (``build_weight_1d``).
"""

from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as P

from .basis import Basis1D, overlap_width
from .mesh import (Pool, Precisions, _global_1d, fold_product,
                   periodic_windows, product, split_factor, take)

__all__ = ["WeightKind", "restricted_1d", "weight_value",
           "build_weight_1d", "build_fast_diag", "SchwarzSmoother",
           "AdditiveSchwarz", "MultiplicativeSchwarz"]


class WeightKind(str, Enum):
    ARITHMETIC = "wa"
    LINEAR = "w1"
    CUBIC = "w3"
    QUINTIC = "w5"
    SEVENTH = "w7"
    TOPHAT = "wt"


def _smoothed_sign(k: int) -> np.ndarray:
    """Coefficients of S_k(x), the integral of (1 - t^2)^k from 0 to x
    scaled so that S_k(1) = 1."""
    s = P.polyint(P.polypow([1.0, 0.0, -1.0], k))
    return s / s.sum()


# The smoothed sign function of each gradual kind: S_0 ... S_3.
_SMOOTHED_SIGN = {kind: _smoothed_sign(k) for k, kind in enumerate(
    (WeightKind.LINEAR, WeightKind.CUBIC, WeightKind.QUINTIC,
     WeightKind.SEVENTH))}


def _shape(kind: WeightKind, x: np.ndarray) -> np.ndarray:
    """The kind's shape S: the smoothed sign function on [-1, 1] and +-1
    outside it for w1 ... w7, and sign(x) for wt."""
    if kind == WeightKind.TOPHAT:
        return np.sign(x)
    return P.polyval(np.clip(x, -1.0, 1.0), _SMOOTHED_SIGN[kind])


def weight_value(kind: WeightKind, xi, delta: float) -> np.ndarray:
    """Continuous weighting profile at extended standard coordinate ``xi``:
    (S((xi + 1) / delta) - S((xi - 1) / delta)) / 2 with S the kind's
    ``_shape``.  wa has no profile, so it raises ``ValueError``."""
    if kind == WeightKind.ARITHMETIC:
        raise ValueError("wa has no profile: its weight is 1 / coverage")
    if delta <= 0:
        raise ValueError("overlap width must be positive")
    s = _shape(kind, np.add.outer([1.0, -1.0], xi) / delta)
    return 0.5 * (s[0] - s[1])


def build_weight_1d(kind: WeightKind, basis: Basis1D, n_o: int) -> np.ndarray:
    """Per-direction weights at the p + 1 + 2*n_o updated subdomain nodes.

    The nodes are the middle window of a three-element periodic ring, and
    the ring's windows give each node's coverage count. The arithmetic
    mean is the pseudoinverse of the counting matrix, 1 / count per node;
    the gradual kinds evaluate the blending profile at the extended
    standard coordinates (adopted nodes lie beyond [-1, 1]), with nodes
    of count 1 forced to exactly 1.
    """
    delta = overlap_width(basis, n_o)
    ring = periodic_windows(basis.p, 3, n_o)
    count = np.bincount(ring.ravel())[ring[1]]
    if kind == WeightKind.ARITHMETIC:
        return 1.0 / count
    xi = np.add.outer([-2.0, 0.0, 2.0], basis.nodes[:-1]).ravel()[ring[1]]
    w = weight_value(kind, xi, delta)
    w[count == 1] = 1.0
    return w


def restricted_1d(basis: Basis1D, d: float, n_o: int):
    """Restricted 1D stiffness and (diagonal) mass for the subdomain solve.

    Assembles a three-element periodic ring and keeps the p + 1 + 2*n_o
    updated rows/columns of its middle window; the excluded outer layer
    acts as a homogeneous Dirichlet boundary. The kept rows never reach
    the wrapped node 0, so this equals the open three-element patch.
    Returns (L_s, m_s) with m_s the mass diagonal.
    """
    p = basis.p
    if not 0 <= n_o <= p - 1:
        raise ValueError(f"overlap layers must be in [0, {p - 1}], got {n_o}")
    m, L = _global_1d(basis, 3, d)
    sel = periodic_windows(p, 3, n_o)[1]
    return L[np.ix_(sel, sel)], m[sel]


def build_fast_diag(basis: Basis1D, dx: float, dy: float, n_o: int):
    """Factored inverse of the tensor-product subdomain operator: the
    per-direction generalized eigenvector matrices (normalized so that
    S^T M_s S = I) and eigenvalues, returned as (S_x, lam_x, S_y, lam_y).
    The inverse is S_y ((S_y^T r S_x) / (lam_y (x) 1 + 1 (x) lam_x)) S_x^T."""
    factors = ()
    for d in (dx, dy):
        L_s, m_s = restricted_1d(basis, d, n_o)
        inv_sqrt = 1.0 / np.sqrt(m_s)
        lam, q = np.linalg.eigh(inv_sqrt[:, None] * L_s * inv_sqrt[None, :])
        if lam[0] <= 0.0:
            raise ValueError("restricted subdomain problem is not definite")
        factors += (inv_sqrt[:, None] * q, lam)
    return factors


class SchwarzSmoother:
    """The one Schwarz sweep, over ``_colours`` with ``n_o`` overlap layers.

    A smoother is built from its level's operator alone: the operator
    gives the basis, the layout and the element sizes, and for diffusion
    the per-element mean nu that scales each local solve (the local
    problem has unit diffusivity).  A sweep goes colour by colour: take a
    fresh residual from the operator's own loop (``apply(u, f)``), then
    make the colour's step (``_step``): gather its subdomain windows,
    transform them one direction at a time, scale by the inverse
    eigenvalues (``_scale``), transform back with the subclass's factors
    (``_back``) and add onto u.  Odd-numbered sweeps visit the colours in
    reverse order, so that an even number of consecutive multiplicative
    sweeps is symmetric.  The caller numbers the sweeps; no smoother keeps
    state between calls.
    """

    def __init__(self, op, n_o: int):
        lay = op.layout
        m = lay.p + 1 + 2 * n_o
        if m > lay.N_x or m > lay.N_y:
            raise ValueError(
                f"subdomain window ({m} nodes) wraps onto itself on a "
                f"{lay.n_x}x{lay.n_y} mesh at p={lay.p}; reduce n_o")
        S_x, lam_x, S_y, lam_y = build_fast_diag(op.basis, op.mesh.dx,
                                                 op.mesh.dy, n_o)
        self.n_o = n_o
        self._wx = periodic_windows(lay.p, lay.n_x, n_o)
        self._wy = periodic_windows(lay.p, lay.n_y, n_o)
        # The forward factors S_x and S_y^T; the back transform's (``_back``);
        # 1 / eigenvalue on axes (y, x), tiled along a row of windows (a
        # colour's scale takes its first columns); 1 / mean nu per element.
        self._factors = Precisions(
            S_x, S_y.T, *self._back(op, S_x, S_y),
            np.tile(1.0 / (lam_y[:, None] + lam_x), lay.n_x),
            None if op.nu is None else 1.0 / op.element_mean_nu())

    def smooth(self, op, u: np.ndarray | None, f: np.ndarray,
               n_it: int, first: int = 0, ws=None) -> np.ndarray | None:
        """Sweeps ``first`` ... ``first + n_it - 1`` on A u = f, updating
        ``u`` in place; ``u=None`` starts from zero, so the first colour's
        residual is ``f`` itself. Each colour's step is the plan
        ``_step`` binds in the scratch pool ``ws`` (``krylov``), one per
        smoother, colour and dtype, from zero and from u alike."""
        pool = Pool.of(ws)
        factors = self._factors[f.dtype]
        for k in range(first, first + n_it):
            for i in range(len(self._colours))[::-1 if k % 2 else 1]:
                r = f if u is None else op.apply(u, f, ws=ws)
                u = pool.plan((self, i), lambda pool: self._step(
                    pool, r, self._colours[i], factors), r, u)
        return u


def _scale(pool, t, c_y, c_x, inv_lam, inv_nu):
    """Binds the in-place scale of the transformed windows t
    (ny_c, m, nx_c * m) of elements (c_y, c_x): by 1 / mean nu, then by
    1 / eigenvalue."""
    if inv_nu is not None:
        v = t.reshape(*t.shape[:2], -1, t.shape[1])
        pool.bound(np.multiply, v, inv_nu[c_y, c_x][:, None, :, None], v)
    pool.bound(np.multiply, t, inv_lam[:, :t.shape[2]], t)


class AdditiveSchwarz(SchwarzSmoother):
    """Weighted additive Schwarz, the one-colour sweep: every subdomain at
    once, with the weights of ``kind``.  Every sweep is the same, so the
    sweep number is immaterial.  Its step transforms the x windows of
    every node row before it gathers their y windows, and folds each back
    transform onto the nodes without forming the windows
    (``mesh.fold_product``), through the factors diag(w) S_y and
    S_x^T diag(w), split once by ``mesh.split_factor``. Its last fold is
    fresh: the step from zero, or added onto u."""

    def __init__(self, op, n_o: int, kind: WeightKind):
        self._kind = kind
        super().__init__(op, n_o)
        self._colours = [(slice(None), slice(None))]

    def _back(self, op, S_x, S_y):
        w = build_weight_1d(self._kind, op.basis, self.n_o)[:, None]
        return (split_factor(w * S_y, 1, op.basis.p, self.n_o),
                split_factor((w * S_x).T, 2, op.basis.p, self.n_o))

    def _step(self, pool, r, colour, factors):
        """Binds the step on residuals like r: finish(r, u) -> u."""
        S_x, S_yT, WS_y, S_xTW, inv_lam, inv_nu = factors
        t = take(pool, product(pool, take(pool, r, self._wx, 1), S_x),
                 self._wy, 0)
        n_y, m, n_x, _ = t.shape
        t = product(pool, S_yT, t.reshape(n_y, m, -1))
        _scale(pool, t, *colour, inv_lam, inv_nu)
        t = fold_product(pool, t, WS_y, 1, n_y)
        cor = fold_product(pool, t.reshape(-1, n_x, m), S_xTW, 2, n_x,
                           fresh=True)
        return lambda r, u: (cor.pop() if u is None
                             else np.add(u, cor.pop(), out=u))


def _colour_classes(n: int) -> list[slice]:
    """Classes of non-neighbours on a periodic ring of ``n`` elements: the
    even indices, the odd ones and, on an odd ring, the last alone."""
    classes = [slice(0, n - n % 2, 2), slice(1, n - n % 2, 2)]
    return classes + [slice(n - 1, n)] * (n % 2)


def _colour_nodes(lay, n_o: int, wy: np.ndarray, wx: np.ndarray):
    """The flat node indices (ny_c, m, nx_c, m) of the windows wy x wx of a
    colour, and whether they are disjoint: exactly when 2 n_o < p or the
    colour is one element (a class's elements lie two or more apart)."""
    return (wy[:, :, None, None] * lay.N_x + wx,
            2 * n_o < lay.p or len(wy) == len(wx) == 1)


class MultiplicativeSchwarz(SchwarzSmoother):
    """Multicolour multiplicative Schwarz (Smith, Bjorstad & Gropp, Domain
    Decomposition, 1996), unweighted, over the products of both directions'
    ``_colour_classes``: 4 colours on an even mesh, 6 or 9 on an odd one,
    lexicographic by (y class, x class).  A step gathers its colour's
    windows in one take, transforms them both ways with the full factors and
    adds them onto u in place: where they are disjoint (``_colour_nodes``)
    it adds onto u's window nodes, taken into the pool, and writes them
    back by fancy index, else it adds by the slower, exact ``np.add.at``."""

    def __init__(self, op, n_o: int):
        super().__init__(op, n_o)
        lay, wy, wx = op.layout, self._wy, self._wx
        self._colours = [(c_y, c_x, *_colour_nodes(lay, n_o, wy[c_y], wx[c_x]))
                         for c_y in _colour_classes(lay.n_y)
                         for c_x in _colour_classes(lay.n_x)]

    def _back(self, op, S_x, S_y):
        return S_y, S_x.T.copy()

    def _step(self, pool, r, colour, factors):
        """Binds the step on residuals like r: finish(r, u) -> u."""
        S_x, S_yT, S_y, S_xT, inv_lam, inv_nu = factors
        c_y, c_x, idx, disjoint = colour
        ny_c, m = idx.shape[:2]
        t = product(pool, take(pool, r, idx, None).reshape(-1, m), S_x)
        t = product(pool, S_yT, t.reshape(ny_c, m, -1))
        _scale(pool, t, c_y, c_x, inv_lam, inv_nu)
        t = product(pool, product(pool, S_y, t).reshape(-1, m), S_xT)
        blocks = t.reshape(idx.shape)
        w = pool.view(idx.shape, t.dtype, blocks) if disjoint else None

        def finish(r, u):
            u = np.zeros(r.shape, r.dtype) if u is None else u
            if not u.flags.c_contiguous:
                raise ValueError("u must be C-contiguous: it is updated in "
                                 "place")
            flat = u.reshape(-1)
            if disjoint:
                flat.take(idx, 0, w, "clip")
                np.add(w, blocks, out=w)
                flat[idx] = w
            else:
                np.add.at(flat, idx, blocks)
            return u
        return finish
