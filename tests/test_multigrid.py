"""Tests for the level hierarchy, transfers, coarse solve and V-cycle."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schwarzmg.basis import gll_basis
from schwarzmg.mesh import MeshConfig, layout_for
from schwarzmg.multigrid import (MultigridHierarchy, OverlapRule,
                                 build_hierarchy, coarse_solve, prolongate,
                                 restrict_residual, v_cycle)
from schwarzmg.operators import (dense_diffusion_matrix, dense_poisson_matrix,
                                 poisson_benchmark, project_mean)


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


def test_overlap_rule_parse():
    assert OverlapRule.parse("fixed:3") == OverlapRule("fixed", 3)
    assert OverlapRule.parse("ceilp8") == OverlapRule("ceilp8")
    assert OverlapRule.parse("fixed:0").layers(4) == 0
    with pytest.raises(ValueError):
        OverlapRule.parse("fixed")
    for bad in ("fixed:-1", "fixed:-2"):
        with pytest.raises(ValueError, match="overlap layer count"):
            OverlapRule.parse(bad)


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
], ids=["aniso-6x5", "diffusion"])
def test_coarse_solve_matches_pseudoinverse_beyond_square_poisson(mesh, nu_hat):
    _check_coarse_solve_against_pinv(mesh, nu_hat)


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
            lambda op, u, f, n_it, first, smooth=lv.smoother.smooth:
            seen.append((op.basis.p, n_it, first)) or smooth(op, u, f, n_it,
                                                             first))
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


@settings(max_examples=25, deadline=None)
@given(_v_cycle_case())
def test_v_cycle_is_linear_in_the_residual(case):
    p, n_x, n_y, n_o, ar, smoother, nu_hat, cycle, seed = case
    mesh = MeshConfig(n_x, n_y, l_x=2.0 * ar, l_y=2.0)
    h = build_hierarchy(mesh, p, OverlapRule("fixed", n_o), smoother=smoother,
                        n_post=1, nu_hat=nu_hat)
    rng = np.random.default_rng(seed)
    lay = h.top.op.layout
    r1, r2 = rng.standard_normal((2, lay.N_y, lay.N_x))
    a, b = rng.uniform(-2.0, 2.0, 2)
    got = v_cycle(h, a * r1 + b * r2, cycle)
    want = a * v_cycle(h, r1, cycle) + b * v_cycle(h, r2, cycle)
    # The coarse CG stops at a relative residual of 1e-12, so the cycle is
    # linear only to about that accuracy.
    npt.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())


def test_diffusion_hierarchy_v_cycle():
    mesh = MeshConfig(4, 4, l_x=1.0, l_y=1.0)
    h = build_hierarchy(mesh, 8, OverlapRule("ceilp8"), nu_hat=0.5)
    from schwarzmg.operators import manufactured_rhs_diffusion
    f, _, _ = manufactured_rhs_diffusion(mesh, h.top.basis, 0.5)
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
        lv.op.apply = (lambda u, apply=apply, seen=calls[lv.l]:
                       seen.append(bool(np.any(u))) or apply(u))
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
