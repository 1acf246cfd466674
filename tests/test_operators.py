"""Tests for the matrix-free operators against dense assembly oracles."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzmg import mesh as mesh_module
from schwarzmg.basis import gll_basis
from schwarzmg.mesh import MeshConfig, _global_mass, layout_for
from schwarzmg.operators import (DiffusionOperator, PoissonOperator,
                                 dense_diffusion_matrix, dense_poisson_matrix,
                                 diffusivity_field,
                                 load_vector, manufactured_rhs_diffusion,
                                 nodal_coordinates, poisson_benchmark,
                                 project_mean)

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


def _slab_case(p, dtype, n_y=17):
    """Both operators on a 3 x n_y mesh (n_x != n_y) and a random field and
    right side of ``dtype``."""
    mesh = MeshConfig(3, n_y, l_x=1.5)
    basis = gll_basis(p)
    layout = layout_for(mesh, p)
    rng = np.random.default_rng(p)
    u, f = rng.standard_normal((2, layout.N_y, layout.N_x)).astype(dtype)
    nu = diffusivity_field(mesh, basis, 0.7)
    return (PoissonOperator(basis, mesh),
            DiffusionOperator(basis, mesh, nu)), u, f


def _slab_rows(monkeypatch, u, n_y, k):
    """Makes an apply of u, a field of n_y element rows, take slabs of k
    rows (k = 1, or 8 k < n_y)."""
    monkeypatch.setattr(mesh_module, "_SLAB_BYTES",
                        1 if k == 1 else k * u.nbytes // n_y)
    assert mesh_module._slab_elements(u, n_y) == k


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("p", [2, 4, 8])
def test_slabbed_apply_is_bitwise_the_one_slab_apply(monkeypatch, p, dtype):
    # Slabs of one and of two element rows (the last slab of the 17 rows
    # holds one) give the one-slab result bit for bit, in both forms. On 2
    # rows in slabs of one, the first slab's carry is the other slab's
    # whole fold.
    for n_y, slab_rows in ((17, (1, 2)), (2, (1,))):
        ops, u, f = _slab_case(p, dtype, n_y)
        for op in ops:
            whole, residual = op.apply(u), op.apply(u, f)
            for k in slab_rows:
                _slab_rows(monkeypatch, u, n_y, k)
                npt.assert_array_equal(op.apply(u), whole)
                npt.assert_array_equal(op.apply(u, f), residual)
            monkeypatch.undo()


@pytest.mark.parametrize("k, folds", [(17, 1), (2, 10), (1, 18)])
def test_apply_folds_y_once_per_slab_and_once_for_the_first_carry(
        monkeypatch, k, folds):
    # A field of one slab folds once per apply; s slabs fold s + 1 times,
    # the extra fold being the last element row's, the first slab's carry.
    ops, u, _ = _slab_case(4, np.float64)
    if k < 17:
        _slab_rows(monkeypatch, u, 17, k)
    for op in ops:
        calls, y_fold = [], op._y_fold

        def counted(u, es, F):
            calls.append(es)
            return y_fold(u, es, F)

        monkeypatch.setattr(op, "_y_fold", counted)
        op.apply(u)
        assert len(calls) == folds
        assert calls[0] == slice(16 if k < 17 else 0, 17)


@pytest.mark.parametrize("slab_rows", [17, 2], ids=["one-slab", "slabs"])
def test_apply_with_a_right_side_is_the_residual_in_out(monkeypatch,
                                                        slab_rows):
    ops, u, f = _slab_case(4, np.float64)
    if slab_rows < 17:
        monkeypatch.setattr(mesh_module, "_SLAB_BYTES",
                            slab_rows * u.nbytes // 17)
    assert mesh_module._slab_elements(u, 17) == slab_rows
    for op in ops:
        for rhs, want in ((f, f - op.apply(u)), (None, op.apply(u))):
            buf = np.empty_like(u)
            out, norm = op.apply(u, rhs, out=buf)
            assert out is buf
            npt.assert_array_equal(buf, want)
            npt.assert_allclose(norm, np.linalg.norm(want), rtol=1e-14)


@pytest.mark.parametrize("p", [2, 4])
def test_residual_stored_in_float32_is_the_rounded_float64_residual(
        monkeypatch, p):
    # Given out, each float64 residual slab is rounded into a float32 out,
    # and its norm is summed per element row: the same bits for slabs of
    # one, two and all 17 element rows.
    ops, u, f = _slab_case(p, np.float64)
    for op in ops:
        r = f - op.apply(u)
        norms = set()
        for k in (17, 2, 1):
            monkeypatch.setattr(mesh_module, "_SLAB_BYTES", k * u.nbytes // 17)
            assert mesh_module._slab_elements(u, 17) == k
            buf = np.empty(u.shape, np.float32)
            out, norm = op.apply(u, f, out=buf)
            assert out is buf
            assert np.array_equal(buf, r.astype(np.float32))
            npt.assert_allclose(norm, np.linalg.norm(r), rtol=1e-14)
            norms.add(norm)
        assert len(norms) == 1
        monkeypatch.undo()


def test_diffusion_rejects_nonpositive_nu():
    mesh = MeshConfig(2, 2)
    basis = gll_basis(2)
    layout = layout_for(mesh, 2)
    nu = np.ones((layout.N_y, layout.N_x))
    nu[0, 0] = 0.0
    with pytest.raises(ValueError):
        DiffusionOperator(basis, mesh, nu)


@pytest.mark.parametrize("shape", [(9, 8), (8, 9), (72,)])
def test_apply_rejects_a_field_of_the_wrong_shape(shape):
    mesh = MeshConfig(4, 4)
    basis = gll_basis(2)
    layout = layout_for(mesh, 2)
    nu = np.ones((layout.N_y, layout.N_x))
    for op in (PoissonOperator(basis, mesh), DiffusionOperator(basis, mesh, nu)):
        with pytest.raises(ValueError, match=r"does not match layout \(8, 8\)"):
            op.apply(np.zeros(shape))


def test_element_kernel_matches_dense_single_element_block():
    mesh = MeshConfig(2, 2, l_x=4.0, l_y=2.0)
    basis = gll_basis(3)
    op = PoissonOperator(basis, mesh)
    block = np.random.default_rng(23).standard_normal((4, 4))
    mass_x = (mesh.dx / 2.0) * basis.weights
    mass_y = (mesh.dy / 2.0) * basis.weights
    stiff_x = (2.0 / mesh.dx) * basis.stiff
    stiff_y = (2.0 / mesh.dy) * basis.stiff
    want = (np.diag(mass_y) @ block @ stiff_x
            + stiff_y @ block @ np.diag(mass_x))
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
    f, u_exact = manufactured_rhs_diffusion(mesh, basis, nu_hat=0.5)
    op = DiffusionOperator(basis, mesh, diffusivity_field(mesh, basis, 0.5))
    r = f - op.apply(u_exact)
    assert np.linalg.norm(r) < 1e-7
    npt.assert_allclose(f.mean(), 0.0, atol=1e-15)


@pytest.mark.parametrize("p, mesh, slab_bytes", [
    (16, MeshConfig(64, 64), None),             # 16 slabs of 4 element rows
    (4, MeshConfig(5, 3, l_x=3.0), 1)],         # 3 slabs of one row
    ids=["p16-64x64", "p4-5x3"])
def test_right_sides_are_bitwise_the_whole_field_formulas(
        monkeypatch, p, mesh, slab_bytes):
    # The right sides are built slab by slab in the fields they return;
    # every value must be the whole-field formula's, bit for bit.
    if slab_bytes is not None:
        monkeypatch.setattr(mesh_module, "_SLAB_BYTES", slab_bytes)
    basis = gll_basis(p)
    X, Y = nodal_coordinates(mesh, basis)
    m_x = _global_mass(basis, mesh.n_x, mesh.dx)
    m_y = _global_mass(basis, mesh.n_y, mesh.dy)[:, None]
    u = np.sin(np.pi * X) * np.sin(np.pi * Y)
    f, u_got = poisson_benchmark(mesh, basis)
    assert np.array_equal(u_got, u)
    assert np.array_equal(f, project_mean(2.0 * np.pi**2 * u * m_y * m_x))

    nu_hat, s, two_pi = 0.7, 0.2, 2.0 * np.pi
    u = np.sin(two_pi * X) * np.sin(two_pi * Y)
    ux = two_pi * np.cos(two_pi * X) * np.sin(two_pi * Y)
    uy = two_pi * np.sin(two_pi * X) * np.cos(two_pi * Y)
    nu = 1.0 + nu_hat * np.sin(two_pi * (X - s)) * np.sin(two_pi * (Y - s))
    nx = two_pi * nu_hat * np.cos(two_pi * (X - s)) * np.sin(two_pi * (Y - s))
    ny = two_pi * nu_hat * np.sin(two_pi * (X - s)) * np.cos(two_pi * (Y - s))
    source = -(nu * (-2.0 * two_pi**2 * u) + nx * ux + ny * uy)
    f, u_got = manufactured_rhs_diffusion(mesh, basis, nu_hat)
    assert np.array_equal(diffusivity_field(mesh, basis, nu_hat), nu)
    assert np.array_equal(u_got, u)
    assert np.array_equal(f, project_mean(source * m_y * m_x))


def test_right_sides_allocate_one_field_per_returned_field():
    # p=16 64x64 is 16 slabs: the slab temporaries add 1/16 of a field.
    mesh, basis = MeshConfig(64, 64), gll_basis(16)
    cases = [(lambda: poisson_benchmark(mesh, basis), 2),
             (lambda: manufactured_rhs_diffusion(mesh, basis, 0.9), 2)]
    for build, fields in cases:
        tracemalloc.start()
        try:
            out = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == fields
        assert peak <= (fields + 0.1) * out[0].nbytes


def test_diffusivity_field_bounds():
    mesh = MeshConfig(2, 2, l_x=1.0, l_y=1.0)
    basis = gll_basis(6)
    nu = diffusivity_field(mesh, basis, nu_hat=0.9)
    assert nu.min() > 0.0 and nu.max() < 2.0
    with pytest.raises(ValueError):
        diffusivity_field(mesh, basis, nu_hat=1.0)
