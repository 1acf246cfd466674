"""Tests for the matrix-free operators against dense assembly oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzmg.basis import gll_basis
from schwarzmg.mesh import MeshConfig, layout_for
from schwarzmg.operators import (DiffusionOperator, PoissonOperator,
                                 dense_diffusion_matrix, dense_poisson_matrix,
                                 diffusivity_field, load_vector,
                                 manufactured_rhs_diffusion, nodal_coordinates,
                                 poisson_benchmark, project_mean)

# The last mesh has dx != dy, so a swap of the x and y scalings shows.
MESHES = [MeshConfig(2, 2), MeshConfig(3, 2, l_x=3.0, l_y=2.0),
          MeshConfig(3, 2, l_x=1.5, l_y=2.0)]
MESH_IDS = ["2x2", "3x2", "3x2-aniso"]


def _random_nu(layout, rng):
    return 1.0 + 0.5 * rng.random((layout.N_y, layout.N_x))


@pytest.mark.parametrize("mesh", MESHES, ids=MESH_IDS)
@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
def test_poisson_apply_matches_dense(mesh, p):
    rng = np.random.default_rng(11)
    basis = gll_basis(p)
    op = PoissonOperator(basis, mesh)
    A = dense_poisson_matrix(basis, mesh)
    shape = (op.layout.N_y, op.layout.N_x)
    for _ in range(20):
        u = rng.standard_normal(shape)
        got = op.apply(u).ravel()
        want = A @ u.ravel()
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("mesh", MESHES, ids=MESH_IDS)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_diffusion_apply_matches_dense(mesh, p):
    rng = np.random.default_rng(13)
    basis = gll_basis(p)
    layout = layout_for(mesh, p)
    nu = _random_nu(layout, rng)
    op = DiffusionOperator(basis, mesh, nu)
    A = dense_diffusion_matrix(basis, mesh, nu)
    for _ in range(20):
        u = rng.standard_normal((layout.N_y, layout.N_x))
        got = op.apply(u).ravel()
        want = A @ u.ravel()
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("p", [2, 4])
def test_operators_symmetric_with_constant_null_space(p):
    mesh = MeshConfig(2, 3)
    basis = gll_basis(p)
    A = dense_poisson_matrix(basis, mesh)
    npt.assert_allclose(A, A.T, atol=1e-12)
    npt.assert_allclose(A @ np.ones(A.shape[0]), 0.0, atol=1e-11)
    nu = _random_nu(layout_for(mesh, p), np.random.default_rng(17))
    B = dense_diffusion_matrix(basis, mesh, nu)
    npt.assert_allclose(B, B.T, atol=1e-12)
    npt.assert_allclose(B @ np.ones(B.shape[0]), 0.0, atol=1e-11)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(2, 5), st.integers(2, 5),
       st.floats(0.25, 4.0), st.sampled_from([None, 0.9]),
       st.integers(0, 2**32 - 1))
def test_operator_is_semidefinite_with_the_constant_as_null_vector(
        p, n_x, n_y, ar, nu_hat, seed):
    mesh = MeshConfig(n_x, n_y, l_x=2.0 * ar, l_y=2.0)
    basis = gll_basis(p)
    if nu_hat is None:
        op, A = PoissonOperator(basis, mesh), dense_poisson_matrix(basis, mesh)
    else:
        nu = diffusivity_field(mesh, basis, nu_hat)
        op = DiffusionOperator(basis, mesh, nu)
        A = dense_diffusion_matrix(basis, mesh, nu)
    u = np.random.default_rng(seed).standard_normal((p * n_y, p * n_x))
    want = A @ u.ravel()
    npt.assert_allclose(op.apply(u).ravel(), want, rtol=0,
                        atol=1e-12 * np.abs(want).max())
    scale = np.abs(A).max()
    npt.assert_allclose(A, A.T, rtol=0, atol=1e-13 * scale)
    npt.assert_allclose(A.sum(axis=1), 0.0, rtol=0, atol=1e-13 * scale)
    # Ascending: no negative eigenvalue, and only the constant in the
    # null space.
    lam = np.linalg.eigvalsh(A)
    assert lam[0] >= -1e-12 * lam[-1]
    assert lam[1] > 1e-8 * lam[-1]


def test_diffusion_with_unit_nu_equals_poisson():
    mesh = MeshConfig(3, 2)
    basis = gll_basis(4)
    layout = layout_for(mesh, 4)
    pois = PoissonOperator(basis, mesh)
    diff = DiffusionOperator(basis, mesh, np.ones((layout.N_y, layout.N_x)))
    u = np.random.default_rng(19).standard_normal((layout.N_y, layout.N_x))
    npt.assert_allclose(diff.apply(u), pois.apply(u), rtol=1e-12, atol=1e-12)


def test_diffusion_rejects_nonpositive_nu():
    mesh = MeshConfig(2, 2)
    basis = gll_basis(2)
    layout = layout_for(mesh, 2)
    nu = np.ones((layout.N_y, layout.N_x))
    nu[0, 0] = 0.0
    with pytest.raises(ValueError):
        DiffusionOperator(basis, mesh, nu)


def test_element_kernel_matches_dense_single_element_block():
    mesh = MeshConfig(2, 2, l_x=4.0, l_y=2.0)
    basis = gll_basis(3)
    op = PoissonOperator(basis, mesh)
    block = np.random.default_rng(23).standard_normal((4, 4))
    mass_x = (mesh.dx / 2.0) * basis.weights
    mass_y = (mesh.dy / 2.0) * basis.weights
    want = (np.diag(mass_y) @ block @ op.stiff_x
            + op.stiff_y @ block @ np.diag(mass_x))
    npt.assert_allclose(op.element_kernel(block), want, atol=1e-13)


def test_element_mean_nu_constant_field():
    mesh = MeshConfig(2, 2)
    basis = gll_basis(3)
    layout = layout_for(mesh, 3)
    op = DiffusionOperator(basis, mesh, np.full((layout.N_y, layout.N_x), 2.5))
    npt.assert_allclose(op.element_mean_nu(), 2.5, rtol=1e-13)


def test_nodal_coordinates_cover_domain():
    mesh = MeshConfig(4, 2, l_x=2.0, l_y=2.0)
    basis = gll_basis(3)
    X, Y = nodal_coordinates(mesh, basis)
    assert np.broadcast_shapes(X.shape, Y.shape) == (6, 12)
    assert X.min() == 0.0 and X.max() < 2.0
    assert Y.min() == 0.0 and Y.max() < 2.0
    npt.assert_allclose(np.diff(np.unique(X[0])).sum(), X[0].max())


def test_load_vector_integrates_constants():
    # The load of g = 1 must reproduce the element-area-weighted quadrature,
    # summing to the domain area.
    mesh = MeshConfig(3, 2, l_x=3.0, l_y=4.0)
    basis = gll_basis(4)
    f = load_vector(mesh, basis, lambda x, y: np.ones_like(x))
    npt.assert_allclose(f.sum(), 12.0, rtol=1e-13)


def test_project_mean_removes_constants():
    rng = np.random.default_rng(29)
    f = rng.standard_normal((6, 8)) + 3.0
    g = project_mean(f)
    npt.assert_allclose(g.mean(), 0.0, atol=1e-14)
    npt.assert_allclose(g - g.mean(), f - f.mean(), atol=1e-14)


def test_poisson_benchmark_solution_satisfies_system():
    # The discrete system at the exact nodal samples should leave only the
    # spectral discretization error in the residual.
    mesh = MeshConfig(4, 4)
    basis = gll_basis(8)
    op = PoissonOperator(basis, mesh)
    f, u_exact = poisson_benchmark(mesh, basis)
    r = f - op.apply(u_exact)
    assert np.linalg.norm(r) < 1e-8
    npt.assert_allclose(f.mean(), 0.0, atol=1e-15)


def test_manufactured_diffusion_solution_satisfies_system():
    mesh = MeshConfig(4, 4, l_x=1.0, l_y=1.0)
    basis = gll_basis(12)
    f, nu, u_exact = manufactured_rhs_diffusion(mesh, basis, nu_hat=0.5)
    op = DiffusionOperator(basis, mesh, nu)
    r = f - op.apply(u_exact)
    assert np.linalg.norm(r) < 1e-7
    npt.assert_allclose(f.mean(), 0.0, atol=1e-15)


def test_diffusivity_field_bounds():
    mesh = MeshConfig(2, 2, l_x=1.0, l_y=1.0)
    basis = gll_basis(6)
    nu = diffusivity_field(mesh, basis, nu_hat=0.9)
    assert nu.min() > 0.0 and nu.max() < 2.0
    with pytest.raises(ValueError):
        diffusivity_field(mesh, basis, nu_hat=1.0)
    for bad_shift in (np.nan, np.inf):
        with pytest.raises(ValueError):
            diffusivity_field(mesh, basis, nu_hat=0.5, s=bad_shift)
