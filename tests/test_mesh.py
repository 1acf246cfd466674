"""Tests for the periodic mesh, layouts, window indices, folds of window
products (``fold_product``) and scatter-add."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schwarzmg.basis import gll_basis, interp_matrix
from schwarzmg.mesh import (FieldLayout, MeshConfig, Pool, Precisions,
                            _global_1d, _global_mass, fold_product, layout_for,
                            periodic_windows, scatter_blocks, split_factor)
from schwarzmg.multigrid import (OverlapRule, build_hierarchy, prolongate,
                                 restrict_residual)


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


def _fold(t, F, axis, n, wrap=True):
    """``fold_product`` of t, bound and made at once (unpooled)."""
    return fold_product(Pool.of(None), t, F, axis, n, wrap)


def _window_product(rng, axis, lead, n, m, k=2, dtype=None):
    """Random (t, F, windows t @ F or F @ t) for ``fold_product``: standard
    normal, or given a dtype small integers, whose products and sums are
    exact in float32 and float64 alike."""
    def draw(shape):
        if dtype is None:
            return rng.standard_normal(shape)
        return rng.integers(-8, 9, shape).astype(dtype)

    if axis == 2:
        t, F = draw(lead + (n, k)), draw((k, m))
        return t, F, t @ F
    t, F = draw(lead + (n, k, 3)), draw((m, k))
    return t, F, F @ t


def _add_at_fold(prod, axis, p, n, n_o, wrap=True):
    """``fold_product``'s oracle: the windows ``prod`` np.add.at onto
    their nodes, the periodic windows or, without ``wrap``, window e on
    the nodes e*p ... e*p + m - 1 of an open line."""
    m = p + 1 + 2 * n_o
    idx = (periodic_windows(p, n, n_o) if wrap
           else np.arange(n)[:, None] * p + np.arange(m))
    trail = prod.shape[prod.ndim + axis - 2:]  # the r columns of F @ t
    lead = prod.shape[:prod.ndim - 2 - len(trail)]
    cols = (slice(None),) * len(trail)
    want = np.zeros(lead + (idx.max() + 1,) + trail)
    for e in range(n):
        np.add.at(want, (Ellipsis, idx[e]) + cols,
                  prod[(Ellipsis, e, slice(None)) + cols])
    return want


@pytest.mark.parametrize("p", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_fold_windows_equals_add_at_loop(p, n):
    # ``fold_product`` against np.add.at of the full window product: every
    # overlap 0 <= n_o < p whose window
    # does not wrap onto itself (up to 3p - 1 nodes, reaching into both
    # neighbouring elements), both product sides, with and without
    # leading axes; and for n_o = 0 the same on an open line
    # (``wrap=False``), window e on the nodes e*p ... e*p + p of n*p + 1.
    rng = np.random.default_rng(29)
    for n_o in range(p):
        m = p + 1 + 2 * n_o
        if m > p * n:
            continue
        for wrap, axis, lead in itertools.product(
                (True, False) if n_o == 0 else (True,), (1, 2), ((), (3,))):
            t, F, prod = _window_product(rng, axis, lead, n, m)
            got = _fold(t, split_factor(F, axis, p, n_o), axis, n, wrap)
            npt.assert_allclose(got, _add_at_fold(prod, axis, p, n, n_o, wrap),
                                rtol=0, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fold_of_integers_equals_add_at_exactly(p, n):
    # On integer-valued t and F every product and sum is exact in both
    # precisions, so the fold equals the np.add.at oracle to the bit:
    # every overlap n_o < p (from 2*n_o >= p on, both edge moves land on
    # one node; on the ring of n = 2 both moves shift by one element),
    # both axes, both dtypes, periodic and, for n_o = 0, open.
    rng = np.random.default_rng(31)
    for n_o, dtype, axis, wrap in itertools.product(
            range(p), (np.float32, np.float64), (1, 2), (True, False)):
        m = p + 1 + 2 * n_o
        if m > p * n or (n_o and not wrap):
            continue
        t, F, prod = _window_product(rng, axis, (2,), n, m, k=3, dtype=dtype)
        got = _fold(t, split_factor(F, axis, p, n_o), axis, n, wrap)
        assert got.dtype == dtype
        npt.assert_array_equal(got, _add_at_fold(prod, axis, p, n, n_o, wrap))


@pytest.mark.parametrize("axis", [1, 2])
def test_open_line_fold_with_overlap_is_an_error(axis):
    # The open line serves only the operator apply's y pass, whose
    # windows have n_o = 0; wider windows on it are an error.
    p, n, n_o = 4, 3, 1
    t, F, _ = _window_product(np.random.default_rng(37), axis, (), n,
                              p + 1 + 2 * n_o)
    with pytest.raises(ValueError, match="open-line fold"):
        _fold(t, split_factor(F, axis, p, n_o), axis, n, wrap=False)


def test_precisions_cast_only_for_float32():
    # Both entries exist once built, so a kernel only reads them; no other
    # dtype has factors, and a factor that float32 cannot hold is an error
    # of the construction.
    a, b = np.arange(3.0), np.ones((2, 2))
    factors = Precisions(a, (b, b), None)
    assert factors.keys() == {np.dtype(np.float64), np.dtype(np.float32)}
    for dtype in (np.float16, np.int64, np.complex128):
        with pytest.raises(KeyError):
            factors[np.dtype(dtype)]
    assert factors.keys() == {np.dtype(np.float64), np.dtype(np.float32)}
    assert factors[np.dtype(np.float64)][0] is a
    f32 = factors[np.dtype(np.float32)]
    assert [x.dtype for x in (f32[0], *f32[1])] == [np.float32] * 3
    assert np.array_equal(f32[1][0], b)
    assert f32[2] is None
    with pytest.raises(ValueError, match="exceed the float32 range"):
        Precisions(a, (b, np.array([1.0, 1e40])))


def test_split_factor_blocks_are_contiguous():
    # The own nodes n_o ... n_o + p - 1 and the edge nodes (last n_o + 1,
    # then first n_o), both C-contiguous for the GEMMs.
    p, n_o = 4, 2
    F = np.arange(3 * (p + 1 + 2 * n_o), dtype=float).reshape(3, -1)
    own, edge = split_factor(F, 2, p, n_o)
    npt.assert_array_equal(own, F[:, 2:6])
    npt.assert_array_equal(edge, F[:, [6, 7, 8, 0, 1]])
    own_t, edge_t = split_factor(F.T, 1, p, n_o)
    npt.assert_array_equal(own_t, own.T)
    npt.assert_array_equal(edge_t, edge.T)
    for b in (own, edge, own_t, edge_t):
        assert b.flags.c_contiguous


def test_global_mass_is_the_folded_element_weights():
    # Per element its first p weights, the shared node adding the last.
    for p in (1, 2, 5):
        basis = gll_basis(p)
        w = np.tile(0.35 * basis.weights, (4, 1))
        idx = periodic_windows(p, 4)
        want = np.zeros(4 * p)
        np.add.at(want, idx, w)
        npt.assert_allclose(_global_mass(basis, 4, 0.7), want, rtol=1e-15)


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
@given(_windows_case(), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
def test_fold_windows_is_adjoint_of_take(case, axis, seed):
    # <take(x), w> = <x, fold_product(t, F)> on a 2D field, along either
    # axis, for w the windows t @ F (axis 2) or F @ t (axis 1).
    p, n, n_o = case
    rng = np.random.default_rng(seed)
    m = p + 1 + 2 * n_o
    lead = (3,) if axis == 2 else ()
    t, F, w = _window_product(rng, axis, lead, n, m)
    x = rng.standard_normal((3, p * n) if axis == 2 else (p * n, 3))
    tx = np.take(x, periodic_windows(p, n, n_o), axis - 1)
    lhs = np.vdot(tx, w)
    rhs = np.vdot(x, _fold(t, split_factor(F, axis, p, n_o), axis, n))
    scale = np.abs(tx).ravel() @ np.abs(w).ravel()
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(ORDERS, COUNTS, COUNTS, st.floats(0.5, 4.0), st.floats(0.5, 4.0))
def test_global_masses_sum_to_extents(p, n_x, n_y, l_x, l_y):
    # The load weights are the outer product of these two vectors.
    mesh, basis = MeshConfig(n_x, n_y, l_x=l_x, l_y=l_y), gll_basis(p)
    m_x = _global_mass(basis, mesh.n_x, mesh.dx)
    m_y = _global_mass(basis, mesh.n_y, mesh.dy)
    assert (m_x.shape, m_y.shape) == ((p * n_x,), (p * n_y,))
    npt.assert_allclose(m_x.sum(), l_x, rtol=1e-13)
    npt.assert_allclose(m_y.sum(), l_y, rtol=1e-13)


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
