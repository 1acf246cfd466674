"""Tests for the outer solvers (stand-alone multigrid and preconditioned CG)."""

import itertools
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from schwarzmg import krylov
from schwarzmg import mesh as mesh_module
from schwarzmg import multigrid
from schwarzmg.krylov import SolveConfig, random_initial_guess, solve
from schwarzmg.mesh import MeshConfig
from schwarzmg.multigrid import OverlapRule, build_hierarchy, v_cycle
from schwarzmg.operators import manufactured_rhs_diffusion, poisson_benchmark
from schwarzmg.schwarz import WeightKind


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
    assert rep.stop == "converged"


def test_mgcg_stops_with_breakdown_when_z_is_orthogonal_to_r(monkeypatch):
    # r = f vanishes on every other column and z lives only there, so each
    # term of delta = z . r is an exact zero; the next beta would be 0/0.
    h, _, _ = _problem(p=4, n=4)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((16, 16))
    f[:, ::2] = 0.0
    z = np.zeros_like(f)
    z[:, ::2] = rng.standard_normal((16, 8))
    monkeypatch.setattr(krylov, "v_cycle", lambda h, r, cycle, ws: z.copy())
    # From u = 0 the first residual is f itself.
    monkeypatch.setattr(krylov, "random_initial_guess",
                        lambda h, seed: np.zeros_like(f))
    cfg = SolveConfig(solver="mgcg", tol_reduction=1e10, max_cycles=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, rep = solve(h, f, cfg)
    assert rep.stop == "breakdown" and not rep.converged
    assert np.all(np.isfinite(rep.residuals))


def test_mgcg_breakdown_before_the_first_cycle_reports_no_reduction(
        monkeypatch):
    # A zero correction gives p = 0, so p^T A p = 0 before the first step:
    # the residual was not reduced, not solved exactly.
    monkeypatch.setattr(krylov, "v_cycle",
                        lambda h, r, cycle, ws: np.zeros_like(r))
    h, f, _ = _problem(p=4, n=4)
    _, rep = solve(h, f, SolveConfig(solver="mgcg", seed=1))
    assert rep.cycles == 0 and len(rep.residuals) == 1
    assert rep.stop == "breakdown" and not rep.converged
    assert rep.rbar == 0.0 and rep.n10 == -1


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
    monkeypatch.setattr(krylov, "v_cycle", lambda h, r, cycle, ws:
                        seen.append(cycle) or v_cycle(h, r, cycle, ws))
    h, f, _ = _problem(p=4, smoother="mult")
    cfg = SolveConfig(max_cycles=3, seed=1)
    _, rep = solve(h, f, cfg)
    solve(h, f, cfg)
    assert seen == 2 * list(range(rep.cycles)) and rep.cycles == 3


@pytest.mark.parametrize("smoother, nu_hat",
                         [("add", None), ("mult", None), ("add", 0.9),
                          ("mult", 0.9)],
                         ids=["add", "mult", "add-diffusion", "mult-diffusion"])
def test_a_solve_rebinds_no_hierarchy_attribute(smoother, nu_hat):
    # The hierarchy, its levels, operators and smoothers hold no solve
    # state: a solve rebinds none of their attributes and changes none of
    # their arrays. Only the hierarchy's coarse-cap tally counts on, and
    # the first solve caches the coarse inverse (None for Poisson), which
    # the later ones keep as it is. Every factor table (the operators' and
    # smoothers' ``_factors``, the levels' ``transfers``) keeps its keys,
    # its entries and their values: both precisions exist from set-up on.
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 4, OverlapRule("fixed", 1), smoother=smoother,
                        nu_hat=nu_hat)
    f = (poisson_benchmark(mesh, h.top.basis) if nu_hat is None
         else manufactured_rhs_diffusion(mesh, h.top.basis, nu_hat))[0]
    owners = [h] + [o for lv in h.levels for o in (lv, lv.op, lv.smoother)
                    if o is not None]
    tables = [t for o in owners for t in (vars(o).get("_factors"),
                                          vars(o).get("transfers"))
              if t is not None]
    assert len(tables) == 3 * h.depth + 1

    def flat(entry):
        if isinstance(entry, tuple):
            return [a for e in entry for a in flat(e)]
        return [] if entry is None else [entry]

    for i, solver in enumerate(("mgcg", "mg", "mgcg")):
        before = [(o, dict(vars(o))) for o in owners]
        copies = [{k: v.copy() for k, v in attrs.items()
                   if isinstance(v, np.ndarray)} for _, attrs in before]
        entries = [dict(t) for t in tables]
        values = [[a.copy() for e in t.values() for a in flat(e)]
                  for t in tables]
        solve(h, f, SolveConfig(solver=solver, max_cycles=3, seed=1))
        for (o, attrs), arrays in zip(before, copies):
            now = dict(vars(o))
            if o is h:
                del now["coarse_cg_exhausted"], attrs["coarse_cg_exhausted"]
                if i == 0:
                    cached = now.pop("coarse_inverse")
                    assert (cached is None) == (nu_hat is None)
            assert now.keys() == attrs.keys()
            assert all(now[k] is v for k, v in attrs.items()), type(o).__name__
            assert all(np.array_equal(now[k], v) for k, v in arrays.items())
        for t, was, vals in zip(tables, entries, values):
            assert t.keys() == was.keys() == {np.dtype(np.float64),
                                              np.dtype(np.float32)}
            assert all(t[k] is v for k, v in was.items())
            now = [a for e in t.values() for a in flat(e)]
            assert all(map(np.array_equal, now, vals))


def test_cycle_cap_is_respected():
    h, f, _ = _problem()
    cfg = SolveConfig(solver="mg", tol_reduction=1e10, max_cycles=2, seed=1)
    _, rep = solve(h, f, cfg)
    assert not rep.converged
    assert rep.cycles == 2


@pytest.mark.parametrize("cut", [np.s_[0], np.s_[:1], np.s_[:, :1]],
                         ids=["row", "first-row", "first-column"])
def test_solve_rejects_a_right_side_of_the_wrong_shape(cut):
    # On the 4x4 p=4 mesh each of these broadcasts against the 16x16
    # residual and used to be reported converged on another problem.
    h, f, _ = _problem(p=4)
    apply, calls = h.top.op.apply, []
    h.top.op.apply = lambda u: calls.append(1) or apply(u)
    with pytest.raises(ValueError) as exc:
        solve(h, f[cut], SolveConfig(seed=1))
    msg = str(exc.value)
    assert len(msg.splitlines()) == 1
    assert str(f[cut].shape) in msg and "(16, 16)" in msg
    assert not calls


@pytest.mark.parametrize("solver", ["mg", "mgcg"])
def test_report_counts_coarse_cap_hits_of_its_own_solve(solver, monkeypatch):
    cfg = SolveConfig(solver=solver, tol_reduction=1e4, max_cycles=20, seed=1)
    h, f, _ = _problem(p=4, n=4)
    _, rep = solve(h, f, cfg)
    assert rep.coarse_cg_exhausted == 0

    # A preconditioner that corrects one node per iteration in turn leaves
    # the 36-node coarse residual at 2e-4 to 4e-4 of its start at the cap
    # of 360 iterations, far above the 1.2e-5 at which the coarse CG of a
    # float32 V-cycle stops, so every coarse solve ends short. The cap is
    # 10 sweeps over the nodes, so each coarse solve starts at node 0.
    nodes = itertools.count()

    def one_node(h, r):
        z = np.zeros_like(r)
        i = next(nodes) % r.size
        z.flat[i] = r.flat[i]
        return z

    monkeypatch.setattr(multigrid, "_fft_inverse", one_node)
    mesh = MeshConfig(6, 6)
    h = build_hierarchy(mesh, 2, OverlapRule("fixed", 0))
    f, _ = poisson_benchmark(mesh, h.top.basis)
    cfg = SolveConfig(solver=solver, tol_reduction=1e4, max_cycles=3, seed=1)
    _, first = solve(h, f, cfg)
    assert first.coarse_cg_exhausted == first.cycles == 3
    _, second = solve(h, f, cfg)
    assert second.coarse_cg_exhausted == first.coarse_cg_exhausted
    assert h.coarse_cg_exhausted == 2 * first.coarse_cg_exhausted


def test_mgcg_is_textbook_flexible_cg():
    # Flexible CG with the Polak-Ribiere coefficient (Notay 2000), written
    # out: beta_k = z_k . (r_k - r_{k-1}) / (z_{k-1} . r_{k-1}) from the
    # first direction update on. The additive smoother with no
    # post-smoothing makes the V-cycle a non-symmetric preconditioner,
    # applied as ``solve`` applies it: to a float32 copy of the residual,
    # its correction promoted to float64.
    h, f, _ = _problem(p=4, n=4)
    cfg = SolveConfig(solver="mgcg", tol_reduction=1e10, max_cycles=30,
                      seed=4)
    u, rep = solve(h, f, cfg)

    def precondition(r, cycle):
        return v_cycle(h, r.astype(np.float32), cycle).astype(np.float64)

    A = h.top.op.apply
    x = random_initial_guess(h, cfg.seed)
    r = f - A(x)
    z = precondition(r, 0)
    p = z
    res = [np.linalg.norm(r)]
    for c in range(1, rep.cycles + 1):
        q = A(p)
        alpha = np.vdot(z, r) / np.vdot(p, q)
        x = x + alpha * p
        r_new = r - alpha * q
        res.append(np.linalg.norm(r_new))
        z_new = precondition(r_new, c)
        beta = np.vdot(z_new, r_new - r) / np.vdot(z, r)
        p = z_new + beta * p
        r, z = r_new, z_new
    assert rep.converged
    npt.assert_allclose(rep.residuals, res, rtol=1e-9)
    npt.assert_allclose(u, x, rtol=0, atol=1e-12 * np.abs(x).max())


@pytest.mark.parametrize("p", [4, 32])
def test_float32_v_cycle_keeps_the_float64_attainable_accuracy(p):
    # The outer residual is computed in float64, so the solve reaches
    # float64 roundoff although every V-cycle runs in float32 (and mg
    # stores the residual it passes in float32); with a float32 outer loop
    # it would stall near 1e-7 r0.
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, p, OverlapRule("ceilp8"),
                        weight=WeightKind.QUINTIC)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    _, rep = solve(h, f, SolveConfig(tol_reduction=1e30, max_cycles=30,
                                     seed=1))
    assert min(rep.residuals) <= 1e-15 * rep.residuals[0]


@pytest.mark.parametrize("solver, smoother, nu_hat",
                         [("mg", "add", None), ("mgcg", "mult", 0.9)])
def test_slabbed_solve_keeps_the_residual_history(monkeypatch, solver,
                                                  smoother, nu_hat):
    # Every operator apply of a 9x17 p=8 hierarchy in slabs of one element
    # row, or only the float64 top-level ones in slabs of two (the last of
    # one): the slabbed apply is bitwise the one-slab apply, so the solve
    # takes the same cycles with the same residual history.
    mesh = MeshConfig(9, 17, l_x=1.0, l_y=2.0)
    h = build_hierarchy(mesh, 8, OverlapRule("ceilp8"), smoother=smoother,
                        n_post=int(smoother == "mult"), nu_hat=nu_hat)
    if nu_hat is None:
        f, _ = poisson_benchmark(mesh, h.top.basis)
    else:
        f, _ = manufactured_rhs_diffusion(mesh, h.top.basis, nu_hat)
    cfg = SolveConfig(solver=solver, seed=1)
    _, want = solve(h, f, cfg)
    for slab_bytes in (1, 2 * f.nbytes // 17):
        monkeypatch.setattr(mesh_module, "_SLAB_BYTES", slab_bytes)
        _, got = solve(h, f, cfg)
        assert got.cycles == want.cycles and got.converged
        assert got.residuals == want.residuals


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("solver, scale", [("mg", np.nan),
                                           ("mgcg", np.nan),
                                           ("mg", 1e200),
                                           ("mgcg", 1e200)])
def test_solve_stops_at_the_first_non_finite_residual(solver, scale,
                                                      monkeypatch):
    # A correction of 1e200 leaves every entry finite, but the residual
    # norm (mg) or p^T A p (mgcg) overflows, so the next norm is inf or NaN.
    # A NaN correction also makes delta = z . r NaN in mgcg: the non-finite
    # norm is the stop.
    rng = np.random.default_rng(5)
    monkeypatch.setattr(krylov, "v_cycle",
                        lambda h, r, cycle, ws:
                        scale * rng.standard_normal(r.shape))
    h, f, _ = _problem(p=4, n=4)
    _, rep = solve(h, f, SolveConfig(solver=solver, max_cycles=50, seed=1))
    assert rep.stop == "non-finite" and not rep.converged
    assert rep.cycles == 1
    assert np.isfinite(rep.residuals[0])
    assert not np.isfinite(rep.residuals[1])
    assert rep.rbar == -np.inf
    assert rep.n10 == -1


@pytest.mark.parametrize("slab_rows", [4, 1], ids=["one-slab", "slabs"])
def test_mg_v_cycles_receive_the_rounded_float64_residual(monkeypatch,
                                                          slab_rows):
    # Cycle c gets (f - A u_c).astype(float32), u_c = u0 + z_0 + ... z_{c-1}
    # in float64: the float32 store holds the float64 residual, rounded.
    h, f, _ = _problem()
    u0 = random_initial_guess(h, 3)
    if slab_rows < 4:
        monkeypatch.setattr(mesh_module, "_SLAB_BYTES", 1)
    assert mesh_module._slab_elements(f, 4) == slab_rows
    got = []

    def recording(h, r, cycle, ws):
        z = v_cycle(h, r, cycle, ws)
        got.append((r.copy(), z))
        return z

    monkeypatch.setattr(krylov, "v_cycle", recording)
    u, rep = solve(h, f, SolveConfig(seed=3))
    assert len(got) == rep.cycles
    for r, z in got:
        assert r.dtype == np.float32
        assert np.array_equal(r, (f - h.top.op.apply(u0)).astype(np.float32))
        u0 = u0 + z
    npt.assert_array_equal(u, u0)


def test_pooled_mg_solve_temporaries_stay_below_eight_and_a_half_fields():
    # p=4 64x64 (w5, ceilp8): the top field is one slab, so the solve has
    # a scratch pool, which holds 4.7 float64 fields (2416 KiB). After a
    # first solve in the process a solve peaks at 7.80 fields; unpooled it
    # peaked at 5.28.
    mesh = MeshConfig(64, 64)
    h = build_hierarchy(mesh, 4, OverlapRule("ceilp8"),
                        weight=WeightKind.QUINTIC)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    assert mesh_module._slab_elements(f, 64) == 64
    solve(h, f, SolveConfig(seed=1))
    tracemalloc.start()
    try:
        _, rep = solve(h, f, SolveConfig(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 8.5 * f.nbytes


def test_mg_solve_temporaries_stay_below_four_fields():
    # The mg outer residual is one float32 field written slab by slab by
    # the apply, which returns its norm: no float64 residual, no float32
    # copy and no norm pass. A solve at p=16 64x64 (w5, ceilp8) peaks at
    # 3.68 float64 fields, the float32 factors cast when the hierarchy was
    # built; with a float64 residual and its cast it took 4.68.
    mesh = MeshConfig(64, 64)
    h = build_hierarchy(mesh, 16, OverlapRule("ceilp8"),
                        weight=WeightKind.QUINTIC)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    tracemalloc.start()
    try:
        _, rep = solve(h, f, SolveConfig(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 3.8 * f.nbytes


def _unpooled(monkeypatch, h):
    """Make every solve on ``h`` run without a scratch pool."""
    apply = h.top.op.apply
    monkeypatch.setattr(h.top.op, "apply", lambda u, f=None, out=None,
                        ws=None: apply(u, f, out))
    monkeypatch.setattr(krylov, "v_cycle",
                        lambda h, r, cycle, ws: v_cycle(h, r, cycle))


@pytest.mark.parametrize("nu_hat", [None, 0.9])
@pytest.mark.parametrize("smoother", ["add", "mult"])
@pytest.mark.parametrize("solver", ["mg", "mgcg"])
def test_pooled_solve_is_bitwise_the_unpooled_solve(monkeypatch, solver,
                                                     smoother, nu_hat):
    mesh = MeshConfig(5, 4, l_x=1.5)
    h = build_hierarchy(mesh, 8, OverlapRule("ceilp8"), smoother=smoother,
                        n_post=int(smoother == "mult"), nu_hat=nu_hat)
    if nu_hat is None:
        f, _ = poisson_benchmark(mesh, h.top.basis)
    else:
        f, _ = manufactured_rhs_diffusion(mesh, h.top.basis, nu_hat)
    cfg = SolveConfig(solver=solver, max_cycles=12, seed=2)
    u, rep = solve(h, f, cfg)
    _unpooled(monkeypatch, h)
    u_ref, ref = solve(h, f, cfg)
    assert rep.cycles > 3 and rep.residuals == ref.residuals
    npt.assert_array_equal(u, u_ref)


@pytest.mark.parametrize("solver", ["mg", "mgcg"])
def test_the_pool_keeps_its_buffers_after_the_first_cycle(monkeypatch,
                                                          solver):
    # After cycle 1 every role has its buffer: cycles 2 ... k and the
    # applies between them reuse the same objects.
    h, f, _ = _problem(smoother="mult")
    after = []

    def recording(h, r, cycle, ws):
        z = v_cycle(h, r, cycle, ws)
        after.append(dict(ws))
        return z

    monkeypatch.setattr(krylov, "v_cycle", recording)
    _, rep = solve(h, f, SolveConfig(solver=solver, seed=1))
    assert rep.cycles == len(after) >= 3
    assert {"take", "prod", "edge"} <= after[0].keys()
    for buffers in after[1:]:
        assert buffers.keys() == after[0].keys()
        assert all(buffers[role] is after[0][role] for role in buffers)


def test_a_solve_with_a_slabbed_top_has_no_pool(monkeypatch):
    # The top field in slabs of one element row: the solve passes no pool,
    # and its history is the one-slab (pooled) solve's.
    h, f, _ = _problem()
    cfg = SolveConfig(seed=4)
    u_want, want = solve(h, f, cfg)
    monkeypatch.setattr(mesh_module, "_SLAB_BYTES", 2 * f.nbytes // 17)
    assert mesh_module._slab_elements(f, 4) == 1
    pools = []

    def recording(h, r, cycle, ws):
        pools.append(ws)
        return v_cycle(h, r, cycle, ws)

    monkeypatch.setattr(krylov, "v_cycle", recording)
    u, got = solve(h, f, cfg)
    assert pools == [None] * got.cycles
    assert got.residuals == want.residuals
    npt.assert_array_equal(u, u_want)


def _record_plans(monkeypatch):
    """Per pool that solves bind on: its plan keys and its count of
    completed binds. A pool is empty when its first kernel binds."""
    pools = []
    plan = mesh_module.Pool.plan

    def recording(pool, key, bind, *args):
        if pool.eager:
            return plan(pool, key, bind, *args)
        if not any(pool is seen for seen, _, _ in pools):
            assert not pool and not pool.plans
            pools.append((pool, set(), [0]))
        _, keys, binds = next(p for p in pools if p[0] is pool)
        keys.add(key)

        def counted(pool):
            finish = bind(pool)
            binds[0] += 1
            return finish
        return plan(pool, key, counted, *args)

    monkeypatch.setattr(mesh_module.Pool, "plan", recording)
    return pools


def test_a_solve_binds_each_kernel_once_and_the_next_solve_afresh(
        monkeypatch):
    # A 6-cycle mgcg solve (p=8 16x16 multiplicative diffusion, the
    # mult-diffusion benchmark's problem) binds each pooled kernel once per dtype:
    # its binds equal its distinct plan keys. The next solve starts on a
    # pool of its own, empty, and binds them all again.
    mesh = MeshConfig(16, 16)
    h = build_hierarchy(mesh, 8, OverlapRule("ceilp8"), smoother="mult",
                        n_post=1, nu_hat=0.9)
    f, _ = manufactured_rhs_diffusion(mesh, h.top.basis, 0.9)
    pools = _record_plans(monkeypatch)
    cfg = SolveConfig(solver="mgcg", max_cycles=6, seed=1)
    reps = [solve(h, f, cfg)[1] for _ in range(2)]
    assert [rep.cycles for rep in reps] == [6, 6]
    assert reps[0].residuals == reps[1].residuals
    # The top level's float64 apply, and on each of the 3 levels the
    # float32 apply, 4 colour steps and both transfers.
    assert [len(keys) for _, keys, _ in pools] == [22, 22]
    assert [binds for _, _, [binds] in pools] == [22, 22]


@pytest.mark.xfail(strict=True, reason="the first float32 sweep outgrows the "
                   "buffers the top float64 apply bound first, which drops "
                   "its plan, so it binds again (ROADMAP item 3)")
def test_a_coarse_p4_solve_binds_each_kernel_once(monkeypatch):
    # The coarse-p4 benchmark's problem (p=4 64x64 w5 ceilp8 mg): as above,
    # binds equal to the distinct plan keys.
    mesh = MeshConfig(64, 64)
    h = build_hierarchy(mesh, 4, OverlapRule("ceilp8"),
                        weight=WeightKind.QUINTIC)
    f, _ = poisson_benchmark(mesh, h.top.basis)
    pools = _record_plans(monkeypatch)
    solve(h, f, SolveConfig(max_cycles=2, seed=1))
    [(_, keys, [binds])] = pools
    assert binds == len(keys)
