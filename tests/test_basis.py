"""Tests for the 1D GLL basis construction and interpolation."""

import numpy as np
import numpy.testing as npt
import pytest

from schwarzmg.basis import Basis1D, gll_basis, interp_matrix, overlap_width

ORDERS = [1, 2, 3, 4, 5, 8, 12, 16, 32]


@pytest.mark.parametrize("p", ORDERS)
def test_nodes_match_companion_matrix_roots(p):
    # Independent oracle: interior GLL nodes are the roots of P'_p,
    # obtained from numpy's companion-matrix root finder.
    basis = gll_basis(p)
    assert basis.nodes[0] == -1.0 and basis.nodes[-1] == 1.0
    if p > 1:
        dP = np.polynomial.legendre.Legendre.basis(p).deriv()
        roots = np.sort(dP.roots().real)
        npt.assert_allclose(basis.nodes[1:-1], roots, atol=1e-12, rtol=0)


@pytest.mark.parametrize("p", ORDERS)
def test_interior_nodes_are_roots_of_the_legendre_derivative(p):
    # |P'_p| grows to p (p+1) / 2 at the ends, so this bound scales with it.
    # Without the Newton step after the eigenvalue solve, p = 32 misses it.
    dP = np.polynomial.legendre.Legendre.basis(p).deriv()
    bound = 1e-14 * p * (p + 1) / 2
    assert np.all(np.abs(dP(gll_basis(p).nodes[1:-1])) <= bound)


@pytest.mark.parametrize("p", ORDERS)
def test_nodes_symmetric_and_sorted(p):
    basis = gll_basis(p)
    npt.assert_allclose(basis.nodes, -basis.nodes[::-1], atol=1e-15)
    assert np.all(np.diff(basis.nodes) > 0)


@pytest.mark.parametrize("p", ORDERS)
def test_quadrature_exactness(p):
    # GLL quadrature integrates polynomials up to degree 2p - 1 exactly.
    basis = gll_basis(p)
    assert np.all(basis.weights > 0)
    npt.assert_allclose(basis.weights.sum(), 2.0, rtol=1e-14)
    for k in range(2 * p):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        approx = np.dot(basis.weights, basis.nodes**k)
        npt.assert_allclose(approx, exact, atol=1e-12)


@pytest.mark.parametrize("p", ORDERS)
def test_derivative_matrix_polynomial_exactness(p):
    basis = gll_basis(p)
    for k in range(p + 1):
        deriv = basis.diff @ basis.nodes**k
        exact = k * basis.nodes ** max(k - 1, 0) if k else np.zeros(p + 1)
        npt.assert_allclose(deriv, exact, atol=1e-11)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_stiffness_symmetric_psd_with_constant_null_space(p):
    basis = gll_basis(p)
    npt.assert_allclose(basis.stiff, basis.stiff.T, atol=1e-15)
    lam = np.linalg.eigvalsh(basis.stiff)
    assert lam[0] > -1e-13
    npt.assert_allclose(basis.stiff @ np.ones(p + 1), 0.0, atol=1e-12)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_stiffness_against_quadrature_oracle(p):
    # L[i, j] = sum_k w_k phi_i'(x_k) phi_j'(x_k), with derivatives taken
    # from the (already verified) derivative matrix.
    basis = gll_basis(p)
    oracle = np.einsum("k,ki,kj->ij", basis.weights, basis.diff, basis.diff)
    npt.assert_allclose(basis.stiff, oracle, atol=1e-13)


@pytest.mark.parametrize("p", ORDERS)
def test_interp_matrix_to_own_nodes_is_identity(p):
    basis = gll_basis(p)
    npt.assert_allclose(interp_matrix(basis, basis), np.eye(p + 1), atol=1e-14)


def test_interp_matrix_reproduces_polynomials():
    src, dst = gll_basis(5), gll_basis(12)
    J = interp_matrix(src, dst)
    for k in range(6):
        npt.assert_allclose(J @ src.nodes**k, dst.nodes**k, atol=1e-12)
    npt.assert_allclose(J.sum(axis=1), 1.0, atol=1e-13)


@pytest.mark.parametrize("p_c,p_f", [(1, 2), (2, 4), (4, 8), (8, 16),
                                     (16, 32)])
def test_interp_matrix_exact_on_coarse_polynomials(p_c, p_f):
    src, dst = gll_basis(p_c), gll_basis(p_f)
    J = interp_matrix(src, dst)
    assert J.shape == (p_f + 1, p_c + 1)
    for k in range(p_c + 1):
        npt.assert_allclose(J @ src.nodes**k, dst.nodes**k, atol=1e-13)


def test_interp_matrix_rejects_downsampling():
    with pytest.raises(ValueError):
        interp_matrix(gll_basis(4), gll_basis(2))


def test_overlap_width_values_and_bounds():
    basis = gll_basis(8)
    for n_o in range(8):
        npt.assert_allclose(overlap_width(basis, n_o),
                            basis.nodes[n_o + 1] + 1.0)
    assert overlap_width(basis, 0) > 0
    with pytest.raises(ValueError):
        overlap_width(basis, 8)
    with pytest.raises(ValueError):
        overlap_width(basis, -1)


def test_gll_basis_rejects_bad_order():
    with pytest.raises(ValueError):
        gll_basis(0)
