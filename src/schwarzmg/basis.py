"""One-dimensional Gauss-Lobatto-Legendre (GLL) basis machinery.

Provides GLL nodes and quadrature weights, the nodal derivative matrix,
the diagonal (lumped) mass matrix and the stiffness matrix on the
standard interval [-1, 1], plus inter-order interpolation matrices.
These are the building blocks for all tensor-product operators.

Legendre series come from ``numpy.polynomial.legendre``. The interior
nodes, the roots of P'_p, are the Gauss-Jacobi(1, 1) points: the
eigenvalues of a symmetric tridiagonal Jacobi matrix (Golub & Welsch,
Math. Comp. 23, 1969), polished by one Newton step on P'_p.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as leg

__all__ = ["Basis1D", "gll_basis", "interp_matrix", "overlap_width"]


@dataclass(eq=False)
class Basis1D:
    """GLL nodes, weights and 1D element matrices for one polynomial order.

    Attributes
    ----------
    p : polynomial order (>= 1)
    nodes : p+1 GLL points in [-1, 1], ascending
    weights : p+1 positive quadrature weights, summing to 2
    diff : derivative matrix, diff[i, j] = dphi_j/dxi at nodes[i]
    stiff : 1D stiffness matrix diff^T @ diag(weights) @ diff
    """

    p: int
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray
    stiff: np.ndarray


def gll_basis(p: int) -> Basis1D:
    """Construct the GLL basis of order ``p``.

    The p-1 interior nodes are the eigenvalues of the Gauss-Jacobi(1, 1)
    Jacobi matrix, whose off-diagonals are sqrt(k (k+2) / ((2k+1) (2k+3))),
    k = 1..p-2, polished by one Newton step on P'_p. Weights follow the
    closed form 2 / (p (p+1) P_p(xi_i)^2); the derivative matrix is
    D_ij = P_p(xi_i) / (P_p(xi_j) (xi_i - xi_j)) off the diagonal, with the
    negative row sum on it.
    """
    if p < 1:
        raise ValueError(f"polynomial order must be >= 1, got {p}")
    k = np.arange(1.0, p - 1)
    off = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    # The matrix is 1x1 for p <= 2; p = 1 keeps none of its eigenvalues.
    xi = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[:p - 1]
    P = [0] * p + [1]  # P_p as a Legendre series
    xi -= leg.legval(xi, leg.legder(P)) / leg.legval(xi, leg.legder(P, 2))
    # Enforce exact symmetry of the node set.
    nodes = np.concatenate(([-1.0], 0.5 * (xi - xi[::-1]), [1.0]))

    v = leg.legval(nodes, P)
    weights = 2.0 / (p * (p + 1) * v**2)

    dist = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dist, 1.0)
    diff = v[:, None] / (v[None, :] * dist)
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))

    stiff = diff.T @ (weights[:, None] * diff)
    stiff = 0.5 * (stiff + stiff.T)
    return Basis1D(p=p, nodes=nodes, weights=weights, diff=diff, stiff=stiff)


def interp_matrix(src: Basis1D, dst: Basis1D) -> np.ndarray:
    """Interpolation matrix, shape (dst.p + 1, src.p + 1), from the nodes of
    ``src`` to the nodes of ``dst``.

    Exact for polynomials of degree <= src.p; each row sums to one. It is
    V_dst V_src^-1 for the Legendre-Vandermonde matrices of degree src.p.
    """
    if src.p > dst.p:
        raise ValueError(f"source order {src.p} exceeds target order {dst.p}")
    return np.linalg.solve(leg.legvander(src.nodes, src.p).T,
                           leg.legvander(dst.nodes, src.p).T).T


def overlap_width(basis: Basis1D, n_o: int) -> float:
    """Nondimensional overlap width of a subdomain adopting ``n_o`` node layers."""
    if not 0 <= n_o <= basis.p - 1:
        raise ValueError(f"overlap layers must be in [0, {basis.p - 1}], got {n_o}")
    return float(basis.nodes[n_o + 1] + 1.0)
