"""One-dimensional Gauss-Lobatto-Legendre (GLL) basis machinery.

Provides GLL nodes and quadrature weights, the nodal derivative matrix,
the diagonal (lumped) mass matrix and the stiffness matrix on the
standard interval [-1, 1], plus inter-order interpolation matrices.
These are the building blocks for all tensor-product operators.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Basis1D", "gll_basis", "interp_matrix", "overlap_width"]


def _legendre(p: int, x):
    """Evaluate the Legendre polynomial P_p and its first two derivatives.

    Uses the three-term recurrence; works on scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    v1 = np.zeros_like(x)
    d1 = np.zeros_like(x)
    s1 = np.zeros_like(x)
    v0 = np.ones_like(x)
    d0 = np.zeros_like(x)
    s0 = np.zeros_like(x)
    for k in range(1, p + 1):
        a = (2 * k - 1) / k
        b = (k - 1) / k
        v2, d2, s2 = v1, d1, s1
        v1, d1, s1 = v0, d0, s0
        v0 = a * x * v1 - b * v2
        d0 = a * (v1 + x * d1) - b * d2
        s0 = a * (2 * d1 + x * s1) - b * s2
    return v0, d0, s0


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    # Normalization is irrelevant for the barycentric formulas but keeps
    # the entries in a sane range for large p.
    return w / np.max(np.abs(w))


@dataclass(eq=False)
class Basis1D:
    """GLL nodes, weights and 1D element matrices for one polynomial order.

    Attributes
    ----------
    p : polynomial order (>= 1)
    nodes : p+1 GLL points in [-1, 1], ascending
    weights : p+1 positive quadrature weights, summing to 2
    diff : derivative matrix, diff[i, j] = dphi_j/dxi at nodes[i]
    mass : diagonal of the lumped 1D mass matrix (equals the weights)
    stiff : 1D stiffness matrix diff^T @ diag(weights) @ diff
    bary : barycentric weights for Lagrange evaluation
    """

    p: int
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray
    mass: np.ndarray
    stiff: np.ndarray
    bary: np.ndarray = field(repr=False, default=None)


def gll_basis(p: int) -> Basis1D:
    """Construct the GLL basis of order ``p``.

    Nodes are the roots of (1 - xi^2) P'_p(xi), found by Newton iteration
    started from the Chebyshev-Gauss-Lobatto points. Weights follow the
    closed form 2 / (p (p+1) P_p(xi_i)^2).
    """
    if p < 1:
        raise ValueError(f"polynomial order must be >= 1, got {p}")
    nodes = -np.cos(np.pi * np.arange(p + 1) / p)
    if p > 1:
        xi = nodes[1:-1].copy()
        for _ in range(100):
            _, d, s = _legendre(p, xi)
            step = d / s
            xi -= step
            if np.max(np.abs(step)) < 1e-15:
                break
        else:
            raise RuntimeError(f"GLL Newton iteration did not converge for p={p}")
        # Enforce exact symmetry of the node set.
        xi = 0.5 * (xi - xi[::-1])
        nodes[1:-1] = xi
    nodes[0], nodes[-1] = -1.0, 1.0

    v, _, _ = _legendre(p, nodes)
    weights = 2.0 / (p * (p + 1) * v**2)

    bary = _barycentric_weights(nodes)
    dist = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dist, 1.0)
    diff = (bary[None, :] / bary[:, None]) / dist
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))

    stiff = diff.T @ (weights[:, None] * diff)
    stiff = 0.5 * (stiff + stiff.T)
    return Basis1D(p=p, nodes=nodes, weights=weights, diff=diff,
                   mass=weights.copy(), stiff=stiff, bary=bary)


def lagrange_eval_matrix(basis: Basis1D, x) -> np.ndarray:
    """Evaluate all Lagrange cardinal functions of ``basis`` at points ``x``.

    Returns a matrix E with E[i, j] = phi_j(x[i]), computed with the
    second (true) barycentric form to avoid cancellation near nodes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x[:, None] - basis.nodes[None, :]
    exact = np.isclose(d, 0.0, rtol=0.0, atol=1e-14)
    d = np.where(exact, 1.0, d)
    terms = basis.bary[None, :] / d
    out = terms / terms.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    out[hit] = exact[hit].astype(float)
    return out


def interp_matrix(src: Basis1D, dst: Basis1D) -> np.ndarray:
    """Interpolation matrix, shape (dst.p + 1, src.p + 1), from the nodes of
    ``src`` to the nodes of ``dst``.

    Exact for polynomials of degree <= src.p; each row sums to one.
    """
    if src.p > dst.p:
        raise ValueError(f"source order {src.p} exceeds target order {dst.p}")
    return lagrange_eval_matrix(src, dst.nodes)


def overlap_width(basis: Basis1D, n_o: int) -> float:
    """Nondimensional overlap width of a subdomain adopting ``n_o`` node layers."""
    if not 0 <= n_o <= basis.p - 1:
        raise ValueError(f"overlap layers must be in [0, {basis.p - 1}], got {n_o}")
    return float(basis.nodes[n_o + 1] + 1.0)
