"""Tests for the outer solvers (stand-alone multigrid and preconditioned CG)."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from schwarzmg import krylov
from schwarzmg.krylov import SolveConfig, random_initial_guess, solve
from schwarzmg.mesh import MeshConfig
from schwarzmg.multigrid import OverlapRule, build_hierarchy, v_cycle
from schwarzmg.operators import poisson_benchmark


def _problem(p=8, n=4, smoother="add"):
    mesh = MeshConfig(n, n)
    h = build_hierarchy(mesh, p, OverlapRule("fixed", 1), smoother=smoother)
    f, u_exact = poisson_benchmark(mesh, h.top.basis)
    return h, f, u_exact


def test_solve_config_validation():
    SolveConfig()
    with pytest.raises(ValueError):
        SolveConfig(tol_reduction=1.0)
    with pytest.raises(ValueError):
        SolveConfig(tol_reduction=float("nan"))
    with pytest.raises(ValueError):
        SolveConfig(tol_reduction=float("inf"))
    with pytest.raises(ValueError):
        SolveConfig(max_cycles=0)
    with pytest.raises(ValueError):
        SolveConfig(solver="jacobi")


def test_random_initial_guess_deterministic_in_unit_interval():
    h, _, _ = _problem()
    g1 = random_initial_guess(h, 7)
    g2 = random_initial_guess(h, 7)
    npt.assert_array_equal(g1, g2)
    assert g1.min() >= 0.0 and g1.max() < 1.0
    assert not np.array_equal(g1, random_initial_guess(h, 8))


@pytest.mark.parametrize("solver", ["mg", "mgcg"])
def test_solvers_converge_and_report_consistently(solver):
    h, f, _ = _problem()
    cfg = SolveConfig(solver=solver, tol_reduction=1e10, max_cycles=50, seed=1)
    u, rep = solve(h, f, cfg)
    assert rep.converged
    assert rep.residuals[-1] <= rep.residuals[0] / 1e10
    assert rep.cycles == len(rep.residuals) - 1
    assert rep.rbar > 0.5
    assert rep.n10 == int(np.ceil(10.0 / rep.rbar))
    assert not rep.breakdown


def test_mgcg_stops_with_breakdown_when_z_is_orthogonal_to_r(monkeypatch):
    # r = f vanishes on every other column and z lives only there, so each
    # term of delta = z . r is an exact zero; the next beta would be 0/0.
    h, _, _ = _problem(p=4, n=4)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((16, 16))
    f[:, ::2] = 0.0
    z = np.zeros_like(f)
    z[:, ::2] = rng.standard_normal((16, 8))
    monkeypatch.setattr(krylov, "v_cycle", lambda h, r, cycle: z.copy())
    cfg = SolveConfig(solver="mgcg", tol_reduction=1e10, max_cycles=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, rep = solve(h, f, cfg, u0=np.zeros_like(f))
    assert rep.breakdown and not rep.converged
    assert np.all(np.isfinite(rep.residuals))


def test_mg_and_mgcg_agree_up_to_a_constant():
    # Both solve the same singular periodic system; solutions may differ
    # by a constant shift only.
    h, f, _ = _problem()
    cfg = dict(tol_reduction=1e10, max_cycles=50, seed=2)
    u1, _ = solve(h, f, SolveConfig(solver="mg", **cfg))
    u2, _ = solve(h, f, SolveConfig(solver="mgcg", **cfg))
    d = u1 - u2
    assert np.abs(d - d.mean()).max() < 1e-8 * np.abs(u1).max()


def test_solutions_match_manufactured_field():
    h, f, u_exact = _problem()
    cfg = SolveConfig(solver="mg", tol_reduction=1e12, max_cycles=60, seed=3)
    u, rep = solve(h, f, cfg)
    assert rep.converged
    err = (u - u.mean()) - (u_exact - u_exact.mean())
    assert np.abs(err).max() < 1e-8


@pytest.mark.parametrize("solver", ["mg", "mgcg"])
@pytest.mark.parametrize("smoother", ["add", "mult"])
def test_same_seed_reproduces_residual_history(solver, smoother):
    # Two solves on one hierarchy, nothing reset in between. At p=8 with
    # one pre-sweep per level a cycle has 3 sweeps, so a sweep count kept
    # across solves would start the second one on the other parity.
    h, f, _ = _problem(smoother=smoother)
    cfg = SolveConfig(solver=solver, tol_reduction=1e8, max_cycles=40, seed=5)
    u1, rep1 = solve(h, f, cfg)
    u2, rep2 = solve(h, f, cfg)
    npt.assert_array_equal(rep1.residuals, rep2.residuals)
    npt.assert_array_equal(u1, u2)
    assert rep1.cycles == rep2.cycles


def test_every_solve_numbers_its_cycles_from_zero(monkeypatch):
    seen, v_cycle = [], krylov.v_cycle
    monkeypatch.setattr(krylov, "v_cycle", lambda h, r, cycle:
                        seen.append(cycle) or v_cycle(h, r, cycle))
    h, f, _ = _problem(p=4, smoother="mult")
    cfg = SolveConfig(max_cycles=3, seed=1)
    _, rep = solve(h, f, cfg)
    solve(h, f, cfg)
    assert seen == 2 * list(range(rep.cycles)) and rep.cycles == 3


@pytest.mark.parametrize("smoother", ["add", "mult"])
def test_a_solve_rebinds_no_hierarchy_attribute(smoother):
    # The hierarchy, its levels, operators and smoothers hold no solve
    # state: a solve rebinds none of their attributes and changes none of
    # their arrays. Only the hierarchy's coarse-cap tally counts on.
    h, f, _ = _problem(p=4, smoother=smoother)
    owners = [h] + [o for lv in h.levels for o in (lv, lv.op, lv.smoother)
                    if o is not None]
    before = [(o, dict(vars(o))) for o in owners]
    copies = [{k: v.copy() for k, v in attrs.items()
               if isinstance(v, np.ndarray)} for _, attrs in before]
    solve(h, f, SolveConfig(solver="mgcg", max_cycles=3, seed=1))
    for (o, attrs), arrays in zip(before, copies):
        now = dict(vars(o))
        if o is h:
            del now["coarse_cg_exhausted"], attrs["coarse_cg_exhausted"]
        assert now.keys() == attrs.keys()
        assert all(now[k] is v for k, v in attrs.items()), type(o).__name__
        assert all(np.array_equal(now[k], v) for k, v in arrays.items())


def test_cycle_cap_is_respected():
    h, f, _ = _problem()
    cfg = SolveConfig(solver="mg", tol_reduction=1e10, max_cycles=2, seed=1)
    _, rep = solve(h, f, cfg)
    assert not rep.converged
    assert rep.cycles == 2


def test_initial_guess_override():
    h, f, u_exact = _problem()
    cfg = SolveConfig(solver="mg", tol_reduction=1e4, max_cycles=30, seed=1)
    u, rep = solve(h, f, cfg, u0=u_exact.copy())
    # Starting at the exact nodal samples, only the spectral
    # discretization error remains in the initial residual.
    assert rep.residuals[0] < 1e-8
    assert rep.converged


@pytest.mark.parametrize("solver", ["mg", "mgcg"])
def test_report_counts_coarse_cap_hits_of_its_own_solve(solver):
    cfg = SolveConfig(solver=solver, tol_reduction=1e4, max_cycles=20, seed=1)
    h, f, _ = _problem(p=4, n=4)
    _, rep = solve(h, f, cfg)
    assert rep.coarse_cg_exhausted == 0

    # A zero coarse tolerance can never be met, so every coarse solve
    # ends short of it.
    mesh = MeshConfig(3, 3)
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 0))
    h.coarse_tol = 0.0
    f, _ = poisson_benchmark(mesh, h.top.basis)
    _, first = solve(h, f, cfg)
    assert first.coarse_cg_exhausted > 0
    _, second = solve(h, f, cfg)
    assert second.coarse_cg_exhausted == first.coarse_cg_exhausted
    assert h.coarse_cg_exhausted == 2 * first.coarse_cg_exhausted


def test_mgcg_is_textbook_flexible_cg():
    # Flexible CG with the Polak-Ribiere coefficient (Notay 2000), written
    # out: beta_k = z_k . (r_k - r_{k-1}) / (z_{k-1} . r_{k-1}) from the
    # first direction update on. The additive smoother with no
    # post-smoothing makes the V-cycle a non-symmetric preconditioner.
    h, f, _ = _problem(p=4, n=4)
    cfg = SolveConfig(solver="mgcg", tol_reduction=1e10, max_cycles=30,
                      seed=4)
    u, rep = solve(h, f, cfg)

    A = h.top.op.apply
    x = random_initial_guess(h, cfg.seed)
    r = f - A(x)
    z = v_cycle(h, r, 0)
    p = z
    res = [np.linalg.norm(r)]
    for c in range(1, rep.cycles + 1):
        q = A(p)
        alpha = np.vdot(z, r) / np.vdot(p, q)
        x = x + alpha * p
        r_new = r - alpha * q
        res.append(np.linalg.norm(r_new))
        z_new = v_cycle(h, r_new, c)
        beta = np.vdot(z_new, r_new - r) / np.vdot(z, r)
        p = z_new + beta * p
        r, z = r_new, z_new
    assert rep.converged
    npt.assert_allclose(rep.residuals, res, rtol=1e-9)
    npt.assert_allclose(u, x, rtol=0, atol=1e-12 * np.abs(x).max())


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("solver, scale", [("mg", np.nan),
                                           ("mgcg", np.nan),
                                           ("mg", 1e200)])
def test_solve_stops_at_the_first_non_finite_residual(solver, scale,
                                                      monkeypatch):
    # A correction of 1e200 leaves every entry finite, but the residual
    # norm overflows to inf.
    rng = np.random.default_rng(5)
    monkeypatch.setattr(krylov, "v_cycle",
                        lambda h, r, cycle: scale * rng.standard_normal(r.shape))
    h, f, _ = _problem(p=4, n=4)
    _, rep = solve(h, f, SolveConfig(solver=solver, max_cycles=50, seed=1))
    assert not rep.converged
    assert rep.cycles == 1
    assert np.isfinite(rep.residuals[0])
    assert not np.isfinite(rep.residuals[1])
    assert rep.rbar == -np.inf if scale == 1e200 else np.isnan(rep.rbar)
    assert rep.n10 == -1
