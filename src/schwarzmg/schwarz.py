"""Overlapping-subdomain Schwarz smoothers and their subdomain weights.

Subdomains are extended element regions adopting ``n_o`` node layers from
each neighbor (the outer layer on the subdomain boundary is excluded).
All subdomains of a uniform periodic mesh are congruent, so a single
fast-diagonalization factorization per level suffices.  There is one
sweep, ``SchwarzSmoother``'s; it computes in the dtype of its right side
(the precision policy is ``krylov``'s).

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
from .mesh import (Precisions, _global_1d, fold_product, periodic_windows,
                   product, split_factor, take)

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
    """The one Schwarz sweep, over ``colours``, a list of (y, x) slices of
    the elements, with the weights ``w`` at one direction's subdomain
    nodes (a scalar weighs them all alike) and ``n_o`` overlap layers.

    A smoother is built from its level's operator alone: the operator
    gives the basis, the layout and the element sizes, and for diffusion
    the per-element mean nu that scales each local solve (the local
    problem has unit diffusivity).  A sweep goes colour by colour: take a
    fresh residual from the operator's own loop (``apply(u, f)``), gather
    the colour's subdomain windows, transform them one direction at a
    time and scale by the inverse eigenvalues.  Each back transform is
    then folded onto the nodes by ``mesh.fold_product`` without forming
    the windows: the product with the factor's own-node rows or columns
    goes straight into the colour's entries of the result, the other
    colours' entries staying zero, and only the edge-node product is
    added onto the neighbours.  The weight tensor W = W_y (x) W_x is
    folded into the back-transform factors (diag(w) S_y and
    S_x^T diag(w)), split once when the smoother is built.  Odd-numbered
    sweeps visit the colours in reverse order, so that an even number of
    consecutive multiplicative sweeps is symmetric.  The caller numbers
    the sweeps; no smoother keeps state between calls.
    """

    def __init__(self, op, n_o: int, w, colours: list[tuple[slice, slice]]):
        lay = op.layout
        m = lay.p + 1 + 2 * n_o
        if m > lay.N_x or m > lay.N_y:
            raise ValueError(
                f"subdomain window ({m} nodes) wraps onto itself on a "
                f"{lay.n_x}x{lay.n_y} mesh at p={lay.p}; reduce n_o")
        S_x, lam_x, S_y, lam_y = build_fast_diag(op.basis, op.mesh.dx,
                                                 op.mesh.dy, n_o)
        w = np.reshape(w, (-1, 1))
        self.n_o = n_o
        self._wx = periodic_windows(lay.p, lay.n_x, n_o)
        self._wy = periodic_windows(lay.p, lay.n_y, n_o)
        self._colours = colours
        # The forward factors S_x and S_y^T; the back-transform factors
        # diag(w) S_y and S_x^T diag(w), split for ``fold_product``; the
        # inverse eigenvalues on axes (y, x), tiled along the widest
        # colour's row of windows, so that the scale's inner loop runs over
        # the row (a narrower colour takes the first columns); and per
        # element the inverse of its mean nu (None for Poisson).
        nx_c = max(len(range(lay.n_x)[c_x]) for _, c_x in colours)
        self._factors = Precisions(
            S_x, S_y.T,
            split_factor(w * S_y, 1, lay.p, n_o),
            split_factor((w * S_x).T, 2, lay.p, n_o),
            np.tile(1.0 / (lam_y[:, None] + lam_x), nx_c),
            None if op.nu is None else 1.0 / op.element_mean_nu())

    def smooth(self, op, u: np.ndarray | None, f: np.ndarray,
               n_it: int, first: int = 0,
               ws: dict | None = None) -> np.ndarray | None:
        """Sweeps ``first`` ... ``first + n_it - 1`` on A u = f, updating
        ``u`` in place; ``u=None`` starts from zero, so the first colour's
        residual is ``f`` itself; ``ws`` is the scratch pool (``krylov``)."""
        n_y, n_x = len(self._wy), len(self._wx)
        S_x, S_yT, WS_y, S_xTW, inv_lam, inv_nu = self._factors[f.dtype]
        for k in range(first, first + n_it):
            for c_y, c_x in self._colours[::-1 if k % 2 else 1]:
                r = f if u is None else op.apply(u, f, ws=ws)
                t = take(ws, product(ws, take(ws, r, self._wx[c_x], 1), S_x),
                         self._wy[c_y], 0)
                ny_c, m, nx_c, _ = t.shape
                t = product(ws, S_yT, t.reshape(ny_c, m, -1)).reshape(t.shape)
                if inv_nu is not None:
                    t *= inv_nu[c_y, c_x][:, None, :, None]
                t = t.reshape(ny_c, m, -1)
                t *= inv_lam[:, :nx_c * m]
                t = fold_product(t, WS_y, 1, n_y, c_y, ws=ws,
                                 role="take").reshape(-1, nx_c, m)
                cor = fold_product(t, S_xTW, 2, n_x, c_x, ws=ws,
                                   role=None if u is None else "prod")
                u = cor if u is None else np.add(u, cor, out=u)
        return u


class AdditiveSchwarz(SchwarzSmoother):
    """Weighted additive Schwarz, the one-colour sweep: every subdomain at
    once, with the weights of ``kind``.  Every sweep is the same, so the
    sweep number is immaterial."""

    def __init__(self, op, n_o: int, kind: WeightKind):
        super().__init__(op, n_o, build_weight_1d(kind, op.basis, n_o),
                         [(slice(None), slice(None))])


def _colour_classes(n: int) -> list[slice]:
    """Classes of non-neighbours on a periodic ring of ``n`` elements: the
    even indices, the odd ones and, on an odd ring, the last alone."""
    classes = [slice(0, n - n % 2, 2), slice(1, n - n % 2, 2)]
    return classes + [slice(n - 1, n)] * (n % 2)


class MultiplicativeSchwarz(SchwarzSmoother):
    """Multicolour multiplicative Schwarz (Smith, Bjorstad & Gropp,
    Domain Decomposition, 1996), unweighted, over the products of the two
    directions' ``_colour_classes``: 4 colours on an even mesh, 6 or 9 on
    an odd one, lexicographic by (y class, x class)."""

    def __init__(self, op, n_o: int):
        lay = op.layout
        super().__init__(op, n_o, 1.0,
                         [(c_y, c_x) for c_y in _colour_classes(lay.n_y)
                          for c_x in _colour_classes(lay.n_x)])
