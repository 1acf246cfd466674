"""Tests for the periodic mesh, layouts, window indices, window folds and
scatter-add."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schwarzmg.basis import gll_basis, interp_matrix
from schwarzmg.mesh import (FieldLayout, MeshConfig, _global_1d,
                            fold_windows, layout_for, periodic_windows,
                            scatter_blocks)
from schwarzmg.multigrid import (OverlapRule, build_hierarchy, prolongate,
                                 restrict_residual)
from schwarzmg.operators import _global_quadrature


def _global_prolongation(j: np.ndarray, p_c: int, p_f: int, n: int) -> np.ndarray:
    """Dense periodic global 1D interpolation matrix from n*p_c to n*p_f
    nodes (test oracle for the element-wise transfers).

    Rows of fine nodes shared between elements are written consistently
    (interpolation of a continuous field is single-valued there).
    """
    P = np.zeros((p_f * n, p_c * n))
    rows = periodic_windows(p_f, n)[:, :, None]
    cols = periodic_windows(p_c, n)[:, None, :]
    P[rows, cols] = j
    return P


def test_mesh_config_properties():
    mesh = MeshConfig(4, 2, l_x=8.0, l_y=2.0)
    assert mesh.dx == 2.0
    assert mesh.dy == 1.0
    assert mesh.n_el == 8


def test_mesh_config_validation():
    with pytest.raises(ValueError):
        MeshConfig(1, 4)
    with pytest.raises(ValueError):
        MeshConfig(4, 1)
    with pytest.raises(ValueError):
        MeshConfig(2, 2, l_x=0.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            MeshConfig(2, 2, l_x=bad)
        with pytest.raises(ValueError):
            MeshConfig(2, 2, l_y=bad)


def test_layout_counts():
    layout = layout_for(MeshConfig(3, 2), p=4)
    assert (layout.N_x, layout.N_y, layout.size) == (12, 8, 96)
    assert layout.zeros().shape == (8, 12)


def test_element_indices_wrap_periodically():
    # p=2 on a 3x2 mesh: 6 nodes in x, 4 in y.
    npt.assert_array_equal(periodic_windows(2, 3)[2], [4, 5, 0])
    npt.assert_array_equal(periodic_windows(2, 2)[1], [2, 3, 0])
    npt.assert_array_equal(periodic_windows(2, 3, n_o=1)[0], [5, 0, 1, 2, 3])


def test_scatter_blocks_equals_add_at_loop():
    rng = np.random.default_rng(7)
    layout = FieldLayout(p=3, n_x=4, n_y=3)
    n_o = 1
    gy = periodic_windows(layout.p, layout.n_y, n_o)[:, None, :, None]
    gx = periodic_windows(layout.p, layout.n_x, n_o)[None, :, None, :]
    flat = gy * layout.N_x + gx
    m = layout.p + 1 + 2 * n_o
    blocks = rng.standard_normal((3, 4, m, m))
    got = scatter_blocks(flat, blocks, layout)
    want = np.zeros((layout.N_y, layout.N_x))
    for e_y, iy in enumerate(periodic_windows(layout.p, layout.n_y, n_o)):
        for e_x, ix in enumerate(periodic_windows(layout.p, layout.n_x, n_o)):
            np.add.at(want, np.ix_(iy, ix), blocks[e_y, e_x])
    npt.assert_allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_fold_windows_equals_add_at_loop(p, n):
    # Every overlap 0 <= n_o < p whose window does not wrap onto itself
    # (up to 3p - 1 nodes, reaching into both neighbouring elements), with
    # the window axes leading or not.
    rng = np.random.default_rng(29)
    for n_o in range(p):
        m = p + 1 + 2 * n_o
        if m > p * n:
            continue
        idx = periodic_windows(p, n, n_o)
        for lead in ((), (3,)):
            w = rng.standard_normal(lead + (n, m, 2))
            want = np.zeros(lead + (p * n, 2))
            for e in range(n):
                for j in range(m):
                    np.add.at(want, (Ellipsis, idx[e, j], slice(None)),
                              w[..., e, j, :])
            got = fold_windows(w, len(lead) + 1, p, n_o)
            npt.assert_allclose(got, want, rtol=0, atol=1e-14)


# ----------------------------------------------------------------------
# Folded periodic assemblies on random sizes

ORDERS = st.sampled_from([1, 2, 3, 4, 8])
COUNTS = st.integers(2, 6)


@st.composite
def _windows_case(draw):
    """(p, n, n_o) with 0 <= n_o <= p - 1 and a window that does not wrap."""
    p, n = draw(ORDERS), draw(COUNTS)
    n_o = draw(st.integers(0, p - 1))
    assume(p + 1 + 2 * n_o <= p * n)
    return p, n, n_o


@settings(max_examples=60, deadline=None)
@given(_windows_case())
def test_periodic_windows_rows_are_consecutive(case):
    p, n, n_o = case
    N = p * n
    rows = periodic_windows(p, n, n_o)
    assert rows.shape == (n, p + 1 + 2 * n_o)
    npt.assert_array_equal(rows[:, 0], (np.arange(n) * p - n_o) % N)
    npt.assert_array_equal(np.diff(rows, axis=1) % N, 1)


@settings(max_examples=60, deadline=None)
@given(_windows_case(), st.sampled_from([0, 1]), st.integers(0, 2**32 - 1))
def test_fold_windows_is_adjoint_of_take(case, axis, seed):
    # <take(x), w> = <x, fold(w)> on a 2D field, along either axis.
    p, n, n_o = case
    rng = np.random.default_rng(seed)
    shape = [3, 3]
    shape[axis] = p * n
    x = rng.standard_normal(shape)
    tx = np.take(x, periodic_windows(p, n, n_o), axis)
    w = rng.standard_normal(tx.shape)
    lhs = np.vdot(tx, w)
    rhs = np.vdot(x, fold_windows(w, axis + 1, p, n_o))
    scale = np.abs(tx).ravel() @ np.abs(w).ravel()
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(ORDERS, COUNTS, COUNTS, st.floats(0.5, 4.0), st.floats(0.5, 4.0))
def test_global_quadrature_sums_to_area(p, n_x, n_y, l_x, l_y):
    mesh = MeshConfig(n_x, n_y, l_x=l_x, l_y=l_y)
    w = _global_quadrature(mesh, gll_basis(p))
    assert w.shape == (p * n_y, p * n_x)
    npt.assert_allclose(w.sum(), l_x * l_y, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(ORDERS, COUNTS, st.floats(0.1, 4.0))
def test_global_1d_stiffness_symmetric_with_zero_row_sums(p, n, d):
    mass, stiff = _global_1d(gll_basis(p), n, d)
    scale = np.abs(stiff).max()
    npt.assert_array_equal(stiff, stiff.T)
    npt.assert_allclose(stiff.sum(axis=1), 0.0, atol=1e-13 * scale)
    npt.assert_allclose(mass.sum(), n * d, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(ORDERS, COUNTS)
def test_global_prolongation_rows_sum_to_one(p, n):
    j = interp_matrix(gll_basis(p), gll_basis(2 * p))
    P = _global_prolongation(j, p, 2 * p, n)
    assert P.shape == (2 * p * n, p * n)
    npt.assert_allclose(P.sum(axis=1), 1.0, atol=1e-13)


def test_transfers_match_dense_prolongation_oracle():
    n_x, n_y = 5, 3
    h = build_hierarchy(MeshConfig(n_x, n_y), 8, OverlapRule("fixed", 1))
    rng = np.random.default_rng(11)
    for l in range(1, h.depth + 1):
        p_c, p_f = 1 << (l - 1), 1 << l
        j = interp_matrix(gll_basis(p_c), gll_basis(p_f))
        px = _global_prolongation(j, p_c, p_f, n_x)
        py = _global_prolongation(j, p_c, p_f, n_y)
        uc = rng.standard_normal((p_c * n_y, p_c * n_x))
        vf = rng.standard_normal((p_f * n_y, p_f * n_x))
        npt.assert_allclose(prolongate(h, l, uc), py @ uc @ px.T,
                            rtol=0, atol=1e-13)
        npt.assert_allclose(restrict_residual(h, l, vf), py.T @ vf @ px,
                            rtol=0, atol=1e-13)
