"""Tests for the level hierarchy, transfers, coarse solve and V-cycle."""

import functools
import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schwarzmg import multigrid
from schwarzmg.basis import gll_basis, interp_matrix
from schwarzmg.mesh import (MeshConfig, Pool, fold_product, layout_for,
                            split_factor)
from schwarzmg.multigrid import (MultigridHierarchy, OverlapRule,
                                 _fft_inverse, build_hierarchy, coarse_solve,
                                 iterate, prolongate, restrict_residual,
                                 v_cycle)
from schwarzmg.operators import (PoissonOperator, dense_diffusion_matrix,
                                 dense_poisson_matrix, nodal_coordinates,
                                 poisson_benchmark, project_mean)
from schwarzmg.schwarz import WeightKind


def test_overlap_rule_layers():
    assert OverlapRule("fixed", 2).layers(8) == 2
    assert OverlapRule("floorp8").layers(8) == 1
    assert OverlapRule("floorp8").layers(4) == 1
    assert OverlapRule("ceilp8").layers(4) == 1
    assert OverlapRule("ceilp8").layers(16) == 2
    assert OverlapRule("ceilp2").layers(8) == 4
    # Clamped to at most p - 1 adopted layers.
    assert OverlapRule("fixed", 5).layers(2) == 1
    assert OverlapRule("ceilp2").layers(2) == 1
    with pytest.raises(ValueError):
        OverlapRule("quadratic").layers(8)


@pytest.mark.parametrize("rule", ["fixed:1", "fixed:3", "floorp8", "ceilp8",
                                  "ceilp2"])
def test_multiplicative_smoother_takes_no_overlap_at_p_2(rule):
    rule = OverlapRule.parse(rule)
    assert rule.layers(2, "mult") == 0
    for p_l in (4, 8, 16):
        assert rule.layers(p_l, "mult") == rule.layers(p_l, "add")
    # The hierarchy builds its p = 2 multiplicative smoother on windows of
    # p + 1 = 3 nodes.
    h = build_hierarchy(MeshConfig(4, 4), 8, rule, smoother="mult")
    assert [lv.smoother._wx.shape[1] for lv in h.levels[1:]] == [
        lv.basis.p + 1 + 2 * rule.layers(lv.basis.p, "mult")
        for lv in h.levels[1:]]
    assert h.levels[1].smoother._wx.shape[1] == 3


def test_overlap_rule_parse():
    assert OverlapRule.parse("fixed:3") == OverlapRule("fixed", 3)
    assert OverlapRule.parse("ceilp8") == OverlapRule("ceilp8")
    assert OverlapRule.parse("fixed:0").layers(4) == 0
    with pytest.raises(ValueError):
        OverlapRule.parse("fixed")
    for bad in ("fixed:-1", "fixed:-2"):
        with pytest.raises(ValueError, match="overlap layer count"):
            OverlapRule.parse(bad)
    for bad in ("fixed:x", "fixed:", "fixed:1.5"):
        with pytest.raises(ValueError, match=f"unknown overlap rule '{bad}'"):
            OverlapRule.parse(bad)
    with pytest.raises(ValueError, match="unknown overlap rule 'bogus'"):
        OverlapRule("bogus")


def test_build_hierarchy_levels_and_orders():
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1))
    assert h.depth == 3
    assert [lv.basis.p for lv in h.levels] == [1, 2, 4, 8]
    assert h.levels[0].smoother is None
    assert all(lv.smoother is not None for lv in h.levels[1:])
    assert h.top.op.layout.N_x == 32


def test_build_hierarchy_rejects_bad_inputs():
    mesh = MeshConfig(4, 4)
    with pytest.raises(ValueError):
        build_hierarchy(mesh, 6, OverlapRule("fixed", 1))
    with pytest.raises(ValueError):
        build_hierarchy(mesh, 8, OverlapRule("fixed", 1), smoother="jacobi")
    with pytest.raises(ValueError):
        build_hierarchy(mesh, 8, OverlapRule("fixed", 1), n_pre=-1)
    with pytest.raises(ValueError):
        build_hierarchy(mesh, 8, OverlapRule("fixed", 1), n_post=-1)


def test_build_hierarchy_rejects_a_cycle_without_smoothing(monkeypatch):
    # With no sweep a V-cycle only restricts, solves the coarse problem and
    # prolongates: the solve ran to its cycle cap.
    def no_level(p):
        raise AssertionError("a level was built before the counts were checked")

    monkeypatch.setattr(multigrid, "gll_basis", no_level)
    with pytest.raises(ValueError, match="at least one smoothing sweep") as exc:
        build_hierarchy(MeshConfig(4, 4), 4, OverlapRule("fixed", 1),
                        n_pre=0, n_post=0)
    assert len(str(exc.value).splitlines()) == 1


def _flat_factors(factors):
    """The arrays of a smoother's float64 factors, nested tuples flattened."""
    if isinstance(factors, tuple):
        return [a for f in factors for a in _flat_factors(f)]
    return [] if factors is None else [factors]


def test_build_hierarchy_takes_weight_names():
    mesh = MeshConfig(4, 4)
    by_name = build_hierarchy(mesh, 4, OverlapRule("fixed", 1), weight="w5")
    by_kind = build_hierarchy(mesh, 4, OverlapRule("fixed", 1),
                              weight=WeightKind.QUINTIC)
    for a, b in zip(by_name.levels[1:], by_kind.levels[1:]):
        got = _flat_factors(a.smoother._factors[np.dtype(np.float64)])
        want = _flat_factors(b.smoother._factors[np.dtype(np.float64)])
        assert len(got) == len(want) == 7
        for x, y in zip(got, want):
            npt.assert_array_equal(x, y)


def test_build_hierarchy_rejects_an_unknown_weight_before_any_level(
        monkeypatch):
    def no_level(p):
        raise AssertionError("a level was built before the weight was checked")

    monkeypatch.setattr(multigrid, "gll_basis", no_level)
    with pytest.raises(ValueError, match="'w9'") as exc:
        build_hierarchy(MeshConfig(4, 4), 4, OverlapRule("fixed", 1),
                        weight="w9")
    assert len(str(exc.value).splitlines()) == 1


def test_variable_cycle_doubles_smoothing_downward():
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1), n_pre=1, n_post=1,
                        variable=True)
    cfg = {lv.basis.p: (lv.n_pre, lv.n_post) for lv in h.levels}
    assert cfg[8] == (1, 1)
    assert cfg[4] == (2, 2)
    assert cfg[2] == (4, 4)


def _piecewise_poly_field(mesh, p, fn):
    """Periodic, continuous field that is the same polynomial of the local
    coordinate on every element (requires fn(-1) == fn(1))."""
    basis = gll_basis(p)
    layout = layout_for(mesh, p)
    line_x = np.tile(fn(basis.nodes[:-1]), mesh.n_x)
    line_y = np.tile(fn(basis.nodes[:-1]), mesh.n_y)
    return np.outer(line_y, line_x)


def test_prolongation_exact_on_coarse_polynomials():
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1))
    fn = lambda xi: xi**2 - 0.25 * xi**2 + 0.5  # even, fn(-1) == fn(1)
    coarse = _piecewise_poly_field(mesh, 4, fn)
    fine = _piecewise_poly_field(mesh, 8, fn)
    npt.assert_allclose(prolongate(h, 3, coarse), fine, atol=1e-13)


def test_a_level_stores_its_interpolation_block_once():
    # px and py are read-only properties that return the float64 J[:-1]
    # of the level's transfers, its one array; None on the p = 1 level.
    h = build_hierarchy(MeshConfig(4, 4), 8, OverlapRule("ceilp8"))
    assert h.levels[0].px is None and h.levels[0].py is None
    for lv in h.levels[1:]:
        J = lv.transfers[np.dtype(np.float64)][0]
        assert lv.px is J and lv.py is J
        npt.assert_array_equal(J, interp_matrix(h.levels[lv.l - 1].basis,
                                                lv.basis)[:-1])
        with pytest.raises(AttributeError):
            lv.px = J


def test_transfers_are_adjoint():
    mesh = MeshConfig(4, 3)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1))
    rng = np.random.default_rng(47)
    for l in range(1, h.depth + 1):
        lo = h.levels[l - 1].op.layout
        hi = h.levels[l].op.layout
        uc = rng.standard_normal((lo.N_y, lo.N_x))
        vf = rng.standard_normal((hi.N_y, hi.N_x))
        lhs = np.vdot(prolongate(h, l, uc), vf)
        rhs = np.vdot(uc, restrict_residual(h, l, vf))
        npt.assert_allclose(lhs, rhs, rtol=1e-13)
    with pytest.raises(ValueError):
        prolongate(h, 0, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        restrict_residual(h, h.depth + 1, np.zeros((1, 1)))


def _check_coarse_solve_against_pinv(mesh, nu_hat=None):
    h = build_hierarchy(mesh, 4, OverlapRule("fixed", 1), nu_hat=nu_hat)
    lv0 = h.levels[0]
    if nu_hat is None:
        A = dense_poisson_matrix(lv0.basis, mesh)
    else:
        A = dense_diffusion_matrix(lv0.basis, mesh, lv0.op.nu)
    rng = np.random.default_rng(53)
    f0 = rng.standard_normal((lv0.op.layout.N_y, lv0.op.layout.N_x))
    u0 = coarse_solve(h, f0)
    want = np.linalg.pinv(A) @ project_mean(f0).ravel()
    npt.assert_allclose(u0.ravel(), want, rtol=0, atol=1e-11)
    npt.assert_allclose(u0.mean(), 0.0, atol=1e-13)
    assert h.coarse_cg_exhausted == 0


def test_coarse_solve_matches_pseudoinverse():
    _check_coarse_solve_against_pinv(MeshConfig(4, 4))


@pytest.mark.parametrize("mesh, nu_hat", [
    (MeshConfig(6, 5, l_x=8.0), None),               # non-square, anisotropic
    (MeshConfig(6, 5, l_x=1.0, l_y=1.0), 0.9),       # variable diffusion
    (MeshConfig(6, 5, l_x=1.5), 0.5),                # diffusion, dx != dy
    (MeshConfig(6, 5, l_x=1.5), 0.9),
], ids=["aniso-6x5", "diffusion", "diffusion-rect-0.5", "diffusion-rect-0.9"])
def test_coarse_solve_matches_pseudoinverse_beyond_square_poisson(mesh, nu_hat):
    _check_coarse_solve_against_pinv(mesh, nu_hat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_coarse_solve_of_a_zero_right_side_is_zero(dtype):
    h = build_hierarchy(MeshConfig(4, 3), 2, OverlapRule("fixed", 1))
    lv0 = h.levels[0]
    u0 = coarse_solve(h, np.zeros((lv0.op.layout.N_y, lv0.op.layout.N_x),
                                  dtype))
    assert u0.dtype == dtype
    assert not u0.any()
    assert h.coarse_cg_exhausted == 0


def test_fft_preconditioner_solves_poisson_coarse_problem_in_one_iteration():
    mesh = MeshConfig(12, 5, l_x=16.0)
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 1))
    lv0 = h.levels[0]
    calls = []
    apply = lv0.op.apply
    lv0.op.apply = lambda u: calls.append(1) or apply(u)
    f0 = project_mean(np.random.default_rng(61).standard_normal(
        (lv0.op.layout.N_y, lv0.op.layout.N_x)))
    u0 = coarse_solve(h, f0)
    assert len(calls) == 1
    assert np.linalg.norm(f0 - apply(u0)) <= 1e-12 * np.linalg.norm(f0)


@pytest.mark.parametrize("nu_hat", [None, 0.9])
@pytest.mark.parametrize("mesh", [
    MeshConfig(4, 4), MeshConfig(6, 3, l_x=3.0),
    MeshConfig(5, 8, l_x=8.0, l_y=0.5)], ids=["4x4", "6x3", "5x8-aniso"])
def test_coarse_symbol_is_the_fft_of_the_impulse_response(mesh, nu_hat):
    # The oracle: rfft2 of the p = 1 Poisson operator applied to a unit
    # impulse, the eigenvalues of the circular convolution it is.
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 1), nu_hat=nu_hat)
    poisson = PoissonOperator(gll_basis(1), mesh)
    delta = np.zeros((poisson.layout.N_y, poisson.layout.N_x))
    delta[0, 0] = 1.0
    want = np.fft.rfft2(poisson.apply(delta)).real
    assert h.coarse_symbol.shape == want.shape
    assert h.coarse_symbol[0, 0] == np.inf
    got, want = h.coarse_symbol.ravel()[1:], want.ravel()[1:]
    npt.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("l_x", [2e8, 2e10])
def test_coarse_symbol_keeps_the_weak_direction(l_x):
    # With dx/dy = 1e8 (1e10) the x-only modes' eigenvalues, 2e-8 (2e-10)
    # and twice that, are far below the y ones; an FFT of the operator's
    # impulse response rounds them to 2.98e-8 (to 0 at 1e10).
    mesh = MeshConfig(4, 4, l_x=l_x)
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 1))
    op = h.levels[0].op
    X, _ = nodal_coordinates(mesh, op.basis)
    for k in range(1, op.layout.N_x // 2 + 1):
        u = np.repeat(np.cos(2 * np.pi * k * X / l_x), op.layout.N_y, axis=0)
        lam = h.coarse_symbol[0, k]
        assert np.linalg.norm(op.apply(u) - lam * u) <= (
            1e-12 * lam * np.linalg.norm(u))


def test_a_diffusion_hierarchy_builds_no_poisson_operator(monkeypatch):
    calls = []
    init = PoissonOperator.__init__
    monkeypatch.setattr(PoissonOperator, "__init__",
                        lambda self, *a: calls.append(1) or init(self, *a))
    h = build_hierarchy(MeshConfig(4, 4), 4, OverlapRule("ceilp8"),
                        nu_hat=0.9)
    assert np.isfinite(h.coarse_symbol.ravel()[1:]).all()
    assert not calls
    build_hierarchy(MeshConfig(4, 4), 4, OverlapRule("ceilp8"))
    assert len(calls) == 3  # the counter counts: one per Poisson level


def test_scaled_coarse_preconditioner_is_symmetric_for_diffusion():
    h = build_hierarchy(MeshConfig(6, 5, l_x=1.5), 2, OverlapRule("fixed", 1),
                        nu_hat=0.9)
    layout = h.levels[0].op.layout
    x, y = np.random.default_rng(67).standard_normal(
        (2, layout.N_y, layout.N_x))
    xMy, yMx = np.vdot(x, _fft_inverse(h, y)), np.vdot(y, _fft_inverse(h, x))
    assert abs(xMy - yMx) <= 1e-14 * abs(xMy)


def test_scaled_coarse_preconditioner_caps_diffusion_coarse_iterations():
    # The p = 1 problem of the mult-diffusion benchmark (16x16, nu_hat=0.9):
    # 43-45 iterations per coarse solve with the mean-nu-scaled Poisson
    # pseudoinverse, 15 with the 1/sqrt(nu) scaling. Its 256 nodes are
    # solved by the dense factor; None sends them through the CG.
    h = build_hierarchy(MeshConfig(16, 16, l_x=1.0, l_y=1.0), 2,
                        OverlapRule("ceilp8"), smoother="mult", nu_hat=0.9)
    h.coarse_factor = None
    lv0 = h.levels[0]
    calls = []
    apply = lv0.op.apply
    lv0.op.apply = lambda u: calls.append(1) or apply(u)  # once per iteration
    layout = lv0.op.layout
    f0 = np.random.default_rng(71).standard_normal((layout.N_y, layout.N_x))
    coarse_solve(h, f0)
    assert h.coarse_cg_exhausted == 0
    assert len(calls) <= 16


def _counted_coarse_apply(h):
    """Count the coarse operator's applies: one per coarse CG iteration."""
    lv0, calls = h.levels[0], []
    apply = lv0.op.apply
    lv0.op.apply = lambda u: calls.append(1) or apply(u)
    return calls


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("ar", [1.0, 4.0])
def test_small_diffusion_coarse_solve_is_the_dense_pseudoinverse(n, ar):
    # The diffusion coarse levels of fig3, fig4 and mult-diffusion (64 and
    # 256 nodes) are solved by the dense factor, with no CG iteration.
    mesh = MeshConfig(n, n, l_x=ar, l_y=1.0)
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 1), nu_hat=0.9)
    lv0 = h.levels[0]
    calls = _counted_coarse_apply(h)
    f0 = np.random.default_rng(89).standard_normal(
        (lv0.op.layout.N_y, lv0.op.layout.N_x))
    u0 = coarse_solve(h, f0)
    A = dense_diffusion_matrix(lv0.basis, mesh, lv0.op.nu)
    want = project_mean(np.linalg.lstsq(A, project_mean(f0).ravel())[0])
    npt.assert_allclose(u0.ravel(), want, rtol=0,
                        atol=1e-10 * np.abs(want).max())
    assert not calls and h.coarse_cg_exhausted == 0


@pytest.mark.parametrize("mesh, nu_hat", [
    (MeshConfig(32, 16, l_x=1.5), 0.9),   # 512 nodes: above the dense limit
    (MeshConfig(16, 16), None),           # Poisson: the FFT CG is exact
], ids=["diffusion-32x16", "poisson-16x16"])
def test_other_coarse_problems_still_run_the_cg(mesh, nu_hat):
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 1), nu_hat=nu_hat)
    layout = h.levels[0].op.layout
    calls = _counted_coarse_apply(h)
    coarse_solve(h, np.random.default_rng(97).standard_normal(
        (layout.N_y, layout.N_x)))
    assert h.coarse_factor is None
    assert len(calls) > 0 and h.coarse_cg_exhausted == 0


def test_float32_right_side_stops_the_coarse_cg_at_float32_resolution():
    # The V-cycle's float32 coarse right side needs no more than float32
    # accuracy: its CG stops at 1.2e-5 relative, not 1e-12, in fewer
    # iterations, and its result stays close to the float64 solve of the
    # same values (2e-6 to 1e-5 relative on four right sides).
    h = build_hierarchy(MeshConfig(32, 16, l_x=1.5), 2,
                        OverlapRule("fixed", 1), nu_hat=0.9)
    layout = h.levels[0].op.layout
    f32 = np.random.default_rng(103).standard_normal(
        (layout.N_y, layout.N_x)).astype(np.float32)
    calls = _counted_coarse_apply(h)
    u64 = coarse_solve(h, f32.astype(np.float64))
    n64 = len(calls)
    u32 = coarse_solve(h, f32)
    assert u32.dtype == np.float32
    assert 0 < len(calls) - n64 < n64 and h.coarse_cg_exhausted == 0
    assert np.linalg.norm(u32 - u64) <= 1e-4 * np.linalg.norm(u64)


def test_coarse_factor_is_built_once_on_the_first_coarse_solve(monkeypatch):
    h = build_hierarchy(MeshConfig(8, 8, l_x=1.0, l_y=1.0), 4,
                        OverlapRule("ceilp8"), nu_hat=0.9)
    assert "coarse_factor" not in vars(h)
    built = []
    dense = multigrid.dense_diffusion_matrix
    monkeypatch.setattr(multigrid, "dense_diffusion_matrix",
                        lambda *args: built.append(1) or dense(*args))
    layout = h.levels[0].op.layout
    f0 = np.random.default_rng(101).standard_normal((layout.N_y, layout.N_x))
    first = coarse_solve(h, f0)
    assert np.array_equal(coarse_solve(h, f0), first)
    assert len(built) == 1
    # A float32 right side comes back float32, the float64 result rounded.
    got = coarse_solve(h, f0.astype(np.float32))
    assert got.dtype == np.float32
    npt.assert_allclose(got, first, rtol=0, atol=1e-6 * np.abs(first).max())


@pytest.mark.parametrize("n", [1, 2, 33, 100, 255, 256])
def test_coarse_factor_inverts_the_cholesky_factor_in_row_blocks(
        monkeypatch, n):
    # Sizes on and off the 32-row blocks, partial last blocks included, on
    # a substituted symmetric positive definite matrix.
    G = np.random.default_rng(107).standard_normal((n, n))
    M = G @ G.T + n * np.eye(n)
    monkeypatch.setattr(multigrid, "dense_diffusion_matrix",
                        lambda *args: M.copy())
    h = build_hierarchy(MeshConfig(4, 4), 2, OverlapRule("fixed", 1),
                        nu_hat=0.9)
    want = np.linalg.inv(np.linalg.cholesky(M + np.mean(np.diag(M)) / n))
    npt.assert_allclose(h.coarse_factor.T, want, rtol=0,
                        atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("ar", [1.0, 4.0])
def test_coarse_factor_times_its_transpose_is_the_inverse(n, ar):
    mesh = MeshConfig(n, n, l_x=ar, l_y=1.0)
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 1), nu_hat=0.9)
    lv0 = h.levels[0]
    A = dense_diffusion_matrix(lv0.basis, mesh, lv0.op.nu)
    inv = np.linalg.inv(A + np.mean(np.diag(A)) / len(A))
    X = h.coarse_factor
    npt.assert_allclose(X @ X.T, inv, rtol=0, atol=1e-12 * np.abs(inv).max())


@pytest.mark.parametrize("ar", [1.0, 4.0])
def test_float32_coarse_solves_round_as_the_inverses_did(ar):
    # The V-cycle's float32 coarse right sides on the 256-node levels of
    # mult-diffusion and fig4 get the float32 rounding of the dense
    # inverse's solve, bit for bit: the two differ by about 1e-14.
    mesh = MeshConfig(16, 16, l_x=ar, l_y=1.0)
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 1), nu_hat=0.9)
    lv0 = h.levels[0]
    A = dense_diffusion_matrix(lv0.basis, mesh, lv0.op.nu)
    inv = np.linalg.inv(A + np.mean(np.diag(A)) / len(A))
    rng = np.random.default_rng(109)
    for _ in range(50):
        f32 = rng.standard_normal(
            (lv0.op.layout.N_y, lv0.op.layout.N_x)).astype(np.float32)
        b = project_mean(f32.astype(np.float64))
        want = project_mean((inv @ b.ravel()).reshape(b.shape))
        assert np.array_equal(coarse_solve(h, f32), want.astype(np.float32))


def test_an_indefinite_coarse_matrix_is_a_one_line_error(monkeypatch):
    h = build_hierarchy(MeshConfig(4, 4), 2, OverlapRule("fixed", 1),
                        nu_hat=0.9)
    monkeypatch.setattr(multigrid, "dense_diffusion_matrix",
                        lambda *args: np.diag(np.r_[np.ones(15), -1.0]))
    with pytest.raises(ValueError, match=r"^p=1 coarse level: diffusion "
                       r"matrix is not positive definite$"):
        coarse_solve(h, np.ones((4, 4)))


def test_coarse_solve_is_textbook_polak_ribiere_cg():
    # Preconditioned CG with the Polak-Ribiere coefficient, written out:
    # beta_k = z_k . (r_k - r_{k-1}) / (z_{k-1} . r_{k-1}), on a diffusion
    # coarse level, where s * L+(s * r) is not the exact inverse, of 512
    # nodes, too many for the dense factor.
    h = build_hierarchy(MeshConfig(32, 16, l_x=1.5), 2,
                        OverlapRule("fixed", 1), nu_hat=0.9)
    lv0 = h.levels[0]
    calls = []
    apply = lv0.op.apply
    lv0.op.apply = lambda u: calls.append(1) or apply(u)
    b = project_mean(np.random.default_rng(73).standard_normal(
        (lv0.op.layout.N_y, lv0.op.layout.N_x)))
    u0 = coarse_solve(h, b)

    b = project_mean(b)  # as coarse_solve projects its right side
    x, r = np.zeros_like(b), b
    z = p = _fft_inverse(h, r)
    for k in range(1, len(calls) + 1):
        q = apply(p)
        alpha = np.vdot(z, r) / np.vdot(p, q)
        x = x + alpha * p
        r_new = r - alpha * q
        if (np.linalg.norm(r_new)
                <= multigrid._COARSE_TOL * np.linalg.norm(b)):
            break
        z_new = _fft_inverse(h, r_new)
        beta = np.vdot(z_new, r_new - r) / np.vdot(z, r)
        p = z_new + beta * p
        r, z = r_new, z_new
    assert k == len(calls) and h.coarse_cg_exhausted == 0
    npt.assert_allclose(u0, project_mean(x), rtol=0,
                        atol=1e-13 * np.abs(x).max())


def _coarse_problem(mesh):
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 0))
    layout = h.levels[0].op.layout
    return h, np.random.default_rng(79).standard_normal((layout.N_y,
                                                         layout.N_x))


def test_coarse_solve_warns_when_it_hits_its_cap(caplog, monkeypatch):
    # The preconditioner corrects one node per iteration in turn, so the
    # residual is still about 1e-8 of its start at the cap, above the 1e-12
    # tolerance of a float64 right side: no roundoff event can end the CG
    # before the cap.
    h, f0 = _coarse_problem(MeshConfig(3, 3))
    nodes = itertools.count()

    def one_node(h, r):
        z = np.zeros_like(r)
        i = next(nodes) % r.size
        z.flat[i] = r.flat[i]
        return z

    monkeypatch.setattr(multigrid, "_fft_inverse", one_node)
    coarse_solve(h, f0)
    assert next(nodes) == 90
    assert h.coarse_cg_exhausted == 1
    assert "coarse CG stopped (cap) after 90 of 90 iterations" in caplog.text
    assert "breakdown" not in caplog.text


def test_coarse_solve_warns_when_it_breaks_down(caplog, monkeypatch):
    # A zero preconditioner gives p = 0, so p^T A p = 0 at the first step.
    h, f0 = _coarse_problem(MeshConfig(3, 3))
    monkeypatch.setattr(multigrid, "_fft_inverse",
                        lambda h, r: np.zeros_like(r))
    assert not coarse_solve(h, f0).any()
    assert h.coarse_cg_exhausted == 1
    assert ("coarse CG stopped (breakdown) after 0 of 90 iterations"
            in caplog.text)
    assert "(cap)" not in caplog.text


def _dense_system(n=12):
    """A random SPD matrix, its operator apply, a right side and a start.

    The apply gives A u, f - A u or, as the operators' ``apply`` does
    given ``out``, (out, ||f - A u||) with the residual stored in ``out``.
    """
    rng = np.random.default_rng(83)
    m = rng.standard_normal((n, n))
    A = m @ m.T + n * np.eye(n)

    def apply(u, f=None, out=None):
        if f is None:
            return A @ u
        r = f - A @ u
        if out is None:
            return r
        out[...] = r
        return out, float(np.linalg.norm(r))

    f, u = rng.standard_normal((2, n))
    return A, apply, f, u


def test_iterate_cg_solves_a_dense_spd_system_within_n_steps():
    A, apply, f, u = _dense_system()
    jacobi = lambda r, k: r / np.diag(A)
    r = apply(u, f)
    res, stop = iterate(apply, f, jacobi, u, r, 1e-10, len(f), cg=True)
    assert stop == "converged"
    assert len(res) <= len(f) + 1
    npt.assert_allclose(u, np.linalg.solve(A, f), rtol=1e-9)


def test_iterate_with_the_exact_inverse_converges_in_one_step():
    A, apply, f, u = _dense_system()
    res, stop = iterate(apply, f, lambda r, k: np.linalg.solve(A, r), u,
                        np.empty_like(f), 1e-10, 10)
    assert stop == "converged"
    assert len(res) == 2
    npt.assert_allclose(u, np.linalg.solve(A, f), rtol=1e-12)


def test_iterate_stops_at_its_cap():
    A, apply, f, u = _dense_system()
    half = lambda r, k: 0.5 * np.linalg.solve(A, r)
    res, stop = iterate(apply, f, half, u, np.empty_like(f), 1e-10, 5)
    assert stop == "cap"
    assert len(res) == 6
    npt.assert_allclose(np.diff(res) / res[:-1], -0.5, rtol=1e-9)


@pytest.mark.parametrize("cg", [False, True])
def test_iterate_stops_at_the_first_non_finite_norm(cg):
    _, apply, f, u = _dense_system()
    steps = []
    nan = lambda r, k: steps.append(k) or np.full_like(r, np.nan)
    res, stop = iterate(apply, f, nan, u, apply(u, f), 1e-10, 10, cg=cg)
    assert steps == [0] and len(res) == 2
    assert np.isfinite(res[0]) and np.isnan(res[1])
    # In CG delta = z . r, the next divisor, is NaN too: the norm decides.
    assert stop == "non-finite"


@pytest.mark.parametrize("cg", [False, True])
def test_iterate_takes_no_step_from_a_non_finite_residual(cg):
    # Without cg iterate computes the first residual itself, from f.
    _, apply, f, u = _dense_system()
    f[3] = np.inf
    r = apply(u, f)
    never = lambda r, k: pytest.fail("a step was taken")
    assert iterate(apply, f, never, u, r, 1e-10, 10, cg=cg) == ([np.inf],
                                                                "non-finite")


def test_iterate_cg_reports_a_breakdown():
    # r vanishes on every other entry and z lives only there, so
    # delta = z . r is an exact zero and the next beta would be 0/0.
    A, apply, f, _ = _dense_system()
    r = f.copy()
    r[::2] = 0.0
    z = np.zeros_like(r)
    z[::2] = 1.0
    u = np.linalg.solve(A, f - r)  # so that f - A u = r
    res, stop = iterate(apply, f, lambda r, k: z.copy(), u, r, 1e-10, 10,
                        cg=True)
    assert stop == "breakdown"
    assert len(res) == 2 and np.all(np.isfinite(res))


def test_iterate_cg_breaks_down_at_a_zero_search_direction():
    # z = 0 gives p = 0, so p^T A p = 0: no step is taken or recorded.
    _, apply, f, u = _dense_system()
    res, stop = iterate(apply, f, lambda r, k: np.zeros_like(r), u,
                        apply(u, f), 1e-10, 10, cg=True)
    assert stop == "breakdown" and len(res) == 1


@pytest.mark.parametrize("smoother", ["add", "mult"])
def test_v_cycle_reduces_residual(smoother):
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1), smoother=smoother)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    rng = np.random.default_rng(59)
    u = rng.random(f.shape)
    r = f - h.top.op.apply(u)
    u = u + v_cycle(h, r)
    r1 = np.linalg.norm(f - h.top.op.apply(u))
    assert r1 < 0.2 * np.linalg.norm(r)


def test_v_cycle_numbers_its_sweeps_in_the_order_they_run():
    # p=8 with two pre- and one post-sweep per level: 9 sweeps per cycle,
    # so cycle 1 numbers its sweeps 9 ... 17, top level down and back up.
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1), smoother="mult",
                        n_pre=2, n_post=1)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    seen = []
    for lv in h.levels[1:]:
        lv.smoother.smooth = (
            lambda op, u, f, n_it, first, ws, smooth=lv.smoother.smooth:
            seen.append((op.basis.p, n_it, first)) or smooth(op, u, f, n_it,
                                                             first, ws))
    v_cycle(h, f, 1)
    assert seen == [(8, 2, 9), (4, 2, 11), (2, 2, 13),
                    (2, 1, 15), (4, 1, 16), (8, 1, 17)]


@pytest.mark.parametrize("n_post, odd", [(0, True), (1, False)])
def test_v_cycle_depends_on_the_cycle_through_the_sweep_parity(n_post, odd):
    # p=8 with one pre-sweep per level has 3 sweeps per cycle: cycles of
    # equal parity start on the same sweep direction, neighbours do not.
    # With one post-sweep as well (6 sweeps) every cycle starts forward.
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1), smoother="mult",
                        n_post=n_post)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    e = v_cycle(h, f, 1)
    assert np.array_equal(v_cycle(h, f, 3), e)
    assert np.array_equal(v_cycle(h, f, 0), v_cycle(h, f))
    assert np.array_equal(v_cycle(h, f, 2), e) != odd


@pytest.mark.parametrize("smoother", ["add", "mult"])
def test_v_cycle_with_only_post_smoothing_is_the_hand_composition(smoother):
    # n_pre = 0, n_post = 1: the residual is restricted unsmoothed down to
    # the coarse level; the ascent prolongates the correction and sweeps
    # once per level. p=8 has 3 sweeps per cycle, so cycle c numbers them
    # 3c, 3c + 1 and 3c + 2 from level 1 up, and cycles 0 and 1 start the
    # multiplicative colour order in opposite directions.
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1), smoother=smoother,
                        n_pre=0, n_post=1)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    r = f - h.top.op.apply(np.random.default_rng(67).random(f.shape))
    r = r.astype(np.float32)
    rs = [r]
    for l in range(h.depth, 0, -1):
        rs.insert(0, restrict_residual(h, l, rs[0]))
    got = []
    for cycle in (0, 1):
        e = coarse_solve(h, rs[0])
        for l in range(1, h.depth + 1):
            lv = h.levels[l]
            e = lv.smoother.smooth(lv.op, prolongate(h, l, e), rs[l], 1,
                                   3 * cycle + l - 1)
        got.append(v_cycle(h, r, cycle))
        assert got[-1].dtype == np.float32
        assert np.array_equal(got[-1], e)
    assert np.array_equal(got[0], got[1]) == (smoother == "add")


@st.composite
def _v_cycle_case(draw):
    p = draw(st.sampled_from([2, 4, 8]))
    n_x, n_y = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n_o = draw(st.integers(0, p - 1))
    # Every level's subdomain window must fit in the mesh.
    assume(all(p_l + 1 + 2 * min(n_o, p_l - 1) <= p_l * min(n_x, n_y)
               for p_l in (2, 4, 8) if p_l <= p))
    return (p, n_x, n_y, n_o, draw(st.sampled_from([0.25, 1.0, 3.0])),
            draw(st.sampled_from(["add", "mult"])),
            draw(st.sampled_from([None, 0.5])), draw(st.integers(0, 3)),
            draw(st.integers(0, 2**32 - 1)))


def _case_hierarchy(case):
    """The hierarchy, cycle index and random generator of a V-cycle case."""
    p, n_x, n_y, n_o, ar, smoother, nu_hat, cycle, seed = case
    mesh = MeshConfig(n_x, n_y, l_x=2.0 * ar, l_y=2.0)
    h = build_hierarchy(mesh, p, OverlapRule("fixed", n_o), smoother=smoother,
                        n_post=1, nu_hat=nu_hat)
    return h, cycle, np.random.default_rng(seed)


@settings(max_examples=25, deadline=None)
@given(_v_cycle_case())
def test_v_cycle_is_linear_in_the_residual(case):
    h, cycle, rng = _case_hierarchy(case)
    lay = h.top.op.layout
    r1, r2 = rng.standard_normal((2, lay.N_y, lay.N_x))
    a, b = rng.uniform(-2.0, 2.0, 2)
    got = v_cycle(h, a * r1 + b * r2, cycle)
    want = a * v_cycle(h, r1, cycle) + b * v_cycle(h, r2, cycle)
    # The coarse CG stops at a relative residual of 1e-12, so the cycle is
    # linear only to about that accuracy.
    npt.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())


@settings(max_examples=25, deadline=None)
@given(_v_cycle_case())
def test_float32_v_cycle_agrees_with_float64(case):
    h, cycle, rng = _case_hierarchy(case)
    lay = h.top.op.layout
    r = rng.standard_normal((lay.N_y, lay.N_x))
    want = v_cycle(h, r, cycle)
    got = v_cycle(h, r.astype(np.float32), cycle)
    assert got.dtype == np.float32
    # Float32 resolution is 1.2e-7. Over every case this strategy draws
    # (two cycles, one residual each) the error is at most 3.1e-5 max|z|,
    # on multiplicative sweeps with n_o >= 6 at p=8; most cases stay
    # below 1e-5.
    npt.assert_allclose(got, want, rtol=0, atol=1e-4 * np.abs(want).max())


@pytest.mark.parametrize("smoother", ["add", "mult"])
@pytest.mark.parametrize("nu_hat", [None, 0.9])
def test_every_kernel_computes_in_the_dtype_of_its_field(nu_hat, smoother):
    # A float64 factor or a dtype-less allocation anywhere on the V-cycle
    # path would silently upcast a float32 field.
    h = build_hierarchy(MeshConfig(4, 4), 8, OverlapRule("ceilp8"),
                        smoother=smoother, n_post=1, nu_hat=nu_hat)
    rng = np.random.default_rng(73)

    def field(l, dtype=np.float32):
        lay = h.levels[l].op.layout
        return rng.standard_normal((lay.N_y, lay.N_x)).astype(dtype)

    f32 = np.dtype(np.float32)
    assert all(lv.op.apply(field(lv.l)).dtype == f32 for lv in h.levels)
    for lv in h.levels[1:]:
        f = field(lv.l)
        assert lv.smoother.smooth(lv.op, None, f, 1).dtype == f32
        assert lv.smoother.smooth(lv.op, field(lv.l), f, 2, 1).dtype == f32
        assert prolongate(h, lv.l, field(lv.l - 1)).dtype == f32
        assert restrict_residual(h, lv.l, f).dtype == f32
    for axis, shape in ((2, (3, 4, 5)), (1, (4, 5, 3))):
        F = split_factor(rng.standard_normal((5, 5)).astype(np.float32),
                         axis, 4)
        t = rng.standard_normal(shape).astype(np.float32)
        assert fold_product(Pool.of(None), t, F, axis, 4).dtype == f32
    assert v_cycle(h, field(h.depth)).dtype == f32
    # The coarse solve runs in float64 on a float32 right side and returns
    # float32: for Poisson the CG takes the float64 call's iterations, for
    # this small diffusion level the dense factor is float64.
    lv0 = h.levels[0]
    dtypes = []
    apply = lv0.op.apply
    lv0.op.apply = lambda u: dtypes.append(u.dtype) or apply(u)
    f0 = field(0, np.float64)
    assert coarse_solve(h, f0).dtype == np.float64
    n64 = len(dtypes)
    assert coarse_solve(h, f0.astype(np.float32)).dtype == f32
    if nu_hat is None:
        assert len(dtypes) == 2 * n64
        assert set(dtypes) == {np.dtype(np.float64)}
    else:
        assert h.coarse_factor.dtype == np.float64
        assert not dtypes
    assert h.coarse_cg_exhausted == 0


def test_diffusion_hierarchy_v_cycle():
    mesh = MeshConfig(4, 4, l_x=1.0, l_y=1.0)
    h = build_hierarchy(mesh, 8, OverlapRule("ceilp8"), nu_hat=0.5)
    from schwarzmg.operators import manufactured_rhs_diffusion
    f, _ = manufactured_rhs_diffusion(mesh, h.top.basis, 0.5)
    rng = np.random.default_rng(61)
    u = rng.random(f.shape)
    r = f - h.top.op.apply(u)
    u = u + v_cycle(h, r)
    assert np.linalg.norm(f - h.top.op.apply(u)) < 0.5 * np.linalg.norm(r)


@pytest.mark.parametrize("smoother", ["add", "mult"])
def test_v_cycle_changes_no_argument_and_keeps_no_state(smoother):
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 4, OverlapRule("fixed", 1), smoother=smoother,
                        n_post=1)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    r = f - h.top.op.apply(np.random.default_rng(63).random(f.shape))
    r_copy = r.copy()
    e = v_cycle(h, r)
    assert e is not r
    assert np.array_equal(r, r_copy)
    assert all(v is not e and v is not r
               for lv in h.levels for v in vars(lv).values())
    assert np.array_equal(v_cycle(h, r), e)


@pytest.mark.parametrize("smoother, n_pre, n_post",
                         [("add", 1, 0), ("add", 0, 1), ("add", 2, 1),
                          ("mult", 1, 1)])
def test_v_cycle_applies_no_operator_to_a_zero_field(smoother, n_pre, n_post):
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 8, OverlapRule("fixed", 1), smoother=smoother,
                        n_pre=n_pre, n_post=n_post)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    calls = {lv.l: [] for lv in h.levels}
    for lv in h.levels:
        apply = lv.op.apply
        lv.op.apply = (lambda u, *rest, apply=apply, seen=calls[lv.l], **kw:
                       seen.append(bool(np.any(u))) or apply(u, *rest, **kw))
    v_cycle(h, f)
    assert all(all(seen) for seen in calls.values())
    # Each level above the coarse one starts from zero: it needs A for the
    # residual it restricts and for every sweep step but the first of the
    # pre-smoother.  An additive sweep is one step, a multiplicative sweep
    # one step per colour (4 on the 4x4 mesh).
    steps = 1 if smoother == "add" else 4
    sweeps = steps * (n_pre + n_post) - (n_pre > 0)
    assert all(len(calls[l]) == (n_pre > 0) + sweeps
               for l in range(1, h.depth + 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_x, n_y, rule", [(4, 4, "ceilp8"),
                                            (5, 4, "ceilp8"),
                                            (5, 5, "fixed:0")],
                         ids=["4-colours", "6-colours", "9-colours-n_o=0"])
@pytest.mark.parametrize("nu_hat", [None, 0.7])
@pytest.mark.parametrize("smoother", ["add", "mult"])
def test_pooled_v_cycles_are_bitwise_the_unpooled_ones(smoother, nu_hat, n_x,
                                                        n_y, rule, dtype):
    # Three cycles on one scratch pool: the first sizes its three buffers,
    # the later ones reuse the same objects. Every correction is the
    # unpooled cycle's bit for bit and shares no memory with the pool.
    mesh = MeshConfig(n_x, n_y, l_x=1.5)
    h = build_hierarchy(mesh, 8, OverlapRule.parse(rule), smoother=smoother,
                        n_post=1, nu_hat=nu_hat)
    lay = h.top.op.layout
    r = np.random.default_rng(11).standard_normal((lay.N_y, lay.N_x))
    r = r.astype(dtype)
    ws, got = Pool(), []
    for cycle in range(3):
        got.append(v_cycle(h, r, cycle, ws))
        if cycle == 0:
            buffers = list(ws)
        assert len(ws) == 3 and all(b is b0 for b, b0 in zip(ws, buffers))
    for cycle, e in enumerate(got):
        assert not any(np.shares_memory(e, b) for b in ws)
        npt.assert_array_equal(e, v_cycle(h, r, cycle))


def test_one_pool_serves_two_hierarchies():
    # Each transfer's plan is keyed by the level whose factors it binds,
    # so one pool serves hierarchies on two meshes (p=4 on 4x4 and 6x4
    # elements): every pooled transfer and V-cycle is its hierarchy's
    # unpooled one bit for bit, when it binds and when it runs the plan.
    hs = [build_hierarchy(MeshConfig(n_x, 4), 4, OverlapRule("ceilp8"))
          for n_x in (4, 6)]
    rng = np.random.default_rng(37)
    ws = Pool()
    for h in hs + hs:
        fields = [rng.standard_normal(
            (lv.op.layout.N_y, lv.op.layout.N_x)).astype(np.float32)
            for lv in h.levels]
        for l in range(1, h.depth + 1):
            npt.assert_array_equal(prolongate(h, l, fields[l - 1], ws),
                                   prolongate(h, l, fields[l - 1]))
            npt.assert_array_equal(restrict_residual(h, l, fields[l], ws),
                                   restrict_residual(h, l, fields[l]))
        npt.assert_array_equal(v_cycle(h, fields[-1], 0, ws),
                               v_cycle(h, fields[-1], 0))


def _held_arrays(obj, seen=None):
    """Every array that a bound run holds: in closures, defaults, partials,
    lists and tuples, to any depth."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, functools.partial):
        parts = [obj.func, obj.args, list(obj.keywords.values())]
    elif isinstance(obj, (list, tuple)):
        parts = obj
    elif callable(obj) and hasattr(obj, "__code__"):
        parts = [c.cell_contents for c in obj.__closure__ or ()
                 if c.cell_contents is not None] + list(obj.__defaults__ or ())
    else:
        return []
    return [a for part in parts for a in _held_arrays(part, seen)]


def _root(a):
    while a.base is not None and isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("smoother", ["add", "mult"])
@pytest.mark.parametrize("nu_hat", [None, 0.7])
def test_no_kernel_returns_a_view_of_the_pool(smoother, nu_hat):
    # Every kernel of a level runs on one pool, and only then are the
    # results compared: a result that was a pool view would have been
    # overwritten by the kernels after it. Every plan views only the
    # pool's buffers as they are now, none that a later bind outgrew.
    h = build_hierarchy(MeshConfig(5, 4), 8, OverlapRule("ceilp8"),
                        smoother=smoother, n_post=1, nu_hat=nu_hat)
    rng = np.random.default_rng(29)

    def field(l):
        lay = h.levels[l].op.layout
        return rng.standard_normal((lay.N_y, lay.N_x)).astype(np.float32)

    for lv in h.levels[1:]:
        u, f, coarse = field(lv.l), field(lv.l), field(lv.l - 1)

        def kernels(ws):
            return [lv.op.apply(u, ws=ws), lv.op.apply(u, f, ws=ws),
                    lv.op.apply(u.astype(np.float64), f, np.empty_like(u),
                                ws=ws)[0],
                    lv.smoother.smooth(lv.op, None, f, 2, 0, ws),
                    lv.smoother.smooth(lv.op, u.copy(), f, 2, 1, ws),
                    restrict_residual(h, lv.l, f, ws),
                    prolongate(h, lv.l, coarse, ws)]

        ws = Pool()
        got = kernels(ws)
        assert len(ws) == 3
        assert ws.plans
        for run in ws.plans.values():
            held = [_root(a) for a in _held_arrays(run)]
            assert any(b is buf for b in held for buf in ws)
            assert all(any(b is buf for buf in ws)
                       for b in held if b.dtype == np.uint8)
        for a, want in zip(got, kernels(None)):
            assert not any(np.shares_memory(a, b) for b in ws)
            npt.assert_array_equal(a, want)


@pytest.mark.parametrize("smoother", ["add", "mult"])
def test_no_pooled_product_or_gather_writes_the_buffer_it_reads(monkeypatch,
                                                               smoother):
    # numpy copies an operand that overlaps ``out`` without a word, so a
    # product or gather into the buffer its operand is a view of gives
    # the right result at the cost of a copy. Through pooled V-cycles (4
    # and 6 colours, two precisions), every bound ``mesh.product``,
    # ``mesh.take`` and ``mesh.fold_product`` writes memory that none of
    # its operands shares; and a view that reads every buffer is a new
    # buffer.
    from schwarzmg import mesh, operators, schwarz
    calls = []

    def checked(kernel):
        def call(pool, *args, **kw):
            out = kernel(pool, *args, **kw)
            if kw.get("fresh"):  # the list each call appends a new fold to
                return out
            calls.append(kernel.__name__)
            assert not any(np.shares_memory(out, a) for a in args
                           if isinstance(a, np.ndarray))
            return out
        return call

    for module in (multigrid, operators, schwarz):
        for name in ("product", "take", "fold_product"):
            monkeypatch.setattr(module, name, checked(getattr(mesh, name)))
    for n_x in (4, 5):
        h = build_hierarchy(MeshConfig(n_x, 4, l_x=1.5), 8,
                            OverlapRule("ceilp8"), smoother=smoother,
                            n_post=1, nu_hat=0.7)
        lay = h.top.op.layout
        r = np.random.default_rng(13).standard_normal((lay.N_y, lay.N_x))
        for dtype in (np.float32, np.float64):
            v_cycle(h, r.astype(dtype), 0, Pool())
    assert {"product", "take", "fold_product"} <= set(calls)
    # A step writes the first buffer it does not read, so one that reads
    # every buffer writes a new one.
    pool = Pool()
    a = pool.view((4, 4), np.float64)
    b = pool.view((4, 4), np.float64, a)
    c = pool.view((4, 4), np.float64, a, b)
    assert len(pool) == 3
    assert [np.shares_memory(v, buf) for v in (a, b, c)
            for buf in pool] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
