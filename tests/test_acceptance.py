"""End-to-end acceptance suite.

One test per criterion; each prints a single ``criterion N: PASS/FAIL``
line with the measured quantities before asserting. The quantitative
reproduction criteria (1-6) compare seed-averaged convergence rates
against the published benchmark tables at the documented tolerance of
+-0.15 absolute or 15% relative, whichever is larger; criteria 7-13 are
exact-tolerance property checks.
"""

import numpy as np
import numpy.testing as npt
import pytest

from schwarzmg.basis import gll_basis, interp_matrix
from schwarzmg.krylov import SolveConfig, solve
from schwarzmg.mesh import MeshConfig, layout_for
from schwarzmg.multigrid import (OverlapRule, build_hierarchy, coarse_solve,
                                 prolongate, restrict_residual)
from schwarzmg.operators import (DiffusionOperator, PoissonOperator,
                                 dense_diffusion_matrix, dense_poisson_matrix,
                                 project_mean)
from schwarzmg.presets import (RunSpec, build_problem, preset_grid,
                               rbar_tolerance, reference_rbar, run_preset,
                               run_single)
from schwarzmg.schwarz import (MultiplicativeSchwarz, WeightKind,
                               build_fast_diag, build_weight_1d,
                               restricted_1d)

SEEDS = (1, 2, 3)


def _records(spec):
    return [run_single(spec, seed) for seed in SEEDS]


def _mean_rbar(spec):
    return float(np.mean([r.rbar for r in _records(spec)]))


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ----------------------------------------------------------------------
# Quantitative reproductions


def test_criterion_01_weighting_comparison_p8():
    refs = {"wa": 0.40, "w1": 0.83, "w3": 1.17, "w5": 1.29, "w7": 1.23,
            "wt": 0.52, "mult": 1.29}
    ok = True
    parts = []
    for method, ref in refs.items():
        smoother = "mult" if method == "mult" else "add"
        weight = "w5" if method == "mult" else method
        spec = RunSpec(solver="mg", smoother=smoother, weight=weight, p=8,
                       n_x=8, n_y=8, overlap_rule="fixed:1")
        got = _mean_rbar(spec)
        cell_ok = abs(got - ref) <= rbar_tolerance(ref)
        ok &= cell_ok
        parts.append(f"{method}={got:.2f}/{ref:.2f}")
    _report(1, ok, "rbar measured/published: " + " ".join(parts))


def test_criterion_02_level_dependent_overlap():
    cells = [(16, "add", 1.28), (32, "add", 1.50), (32, "mult", 1.56)]
    ok = True
    parts = []
    for p, smoother, ref in cells:
        spec = RunSpec(solver="mg", smoother=smoother, weight="w5", p=p,
                       n_x=8, n_y=8, overlap_rule="floorp8")
        got = _mean_rbar(spec)
        ok &= abs(got - ref) <= rbar_tolerance(ref)
        parts.append(f"(p={p},{smoother})={got:.2f}/{ref:.2f}")
    _report(2, ok, "rbar measured/published: " + " ".join(parts))


# The orders whose seed-1 cycle ratio wa/w5 on Table 3 falls outside the
# abstract's "reduces the iteration count by a factor of 1.5 to 3" (README,
# "Known deviations"): p=4 takes 16/11 = 1.45, p=8 26/8 = 3.25. The others
# must stay inside, and an order that moves inside means this set is stale.
CYCLE_RATIO_DEVIATIONS = {4, 8}


def test_table3_every_cell_reproduces_at_one_seed():
    # All 28 Table 3 cells (floorp8 overlap, 8x8 elements), seed 1, each
    # converged, and the cycle ratio of the original method (wa) to the new
    # one (w5) per order.
    records, summary = run_preset("table3", [1])
    misses = [f"{spec.weight if spec.smoother == 'add' else 'mult'}"
              f" p={spec.p}: {mean_rbar:.2f}/{ref}"
              for spec, mean_rbar, ref, passed in summary if not passed]
    cycles = {(r.weight, r.p): r.cycles for r in records}
    ratios = {p: cycles["wa", p] / cycles["w5", p] for p in (4, 8, 16, 32)}
    outside = {p for p, q in ratios.items() if not 1.5 <= q <= 3.0}
    ok = (len(summary) == 28 and not misses
          and all(r.converged for r in records)
          and outside == CYCLE_RATIO_DEVIATIONS)
    print(f"table3: {'PASS' if ok else 'FAIL'} - "
          f"{len(summary) - len(misses)}/{len(summary)} cells within "
          f"tolerance" + (", missing: " + "; ".join(misses) if misses else "")
          + "; wa/w5 cycles " + " ".join(f"p={p}: {q:.2f}"
                                         for p, q in ratios.items()))
    assert ok, (misses, ratios)


# Seed-1 rates of the whole published multiplicative column, in grid
# order (table4 with its --full meshes), to 6 decimals. They guard the
# colour sweep (reversing the colour order moves some pin of every table
# by more than 1e-3) and the float32 V-cycle inside the float64 outer
# loop; they are not the published values. The 1e-5 tolerance lets
# roundoff-level changes of the float32 arithmetic, which move them by a
# few 1e-6, pass.
MULT_SEED1_RBAR = {
    "table2": [1.017966, 1.236592, 1.478945, 0.444304],
    "table3": [1.017966, 1.236592, 1.436040, 1.581478],
    "table4": [1.148433, 1.141796, 1.144422, 1.144402, 1.304914, 1.312644,
               1.313704, 1.314199, 1.436040, 1.562820, 1.710589, 1.708810,
               1.772025, 1.581478, 1.692690, 1.782093, 1.784431]}
# The 8 published mult cells outside the tolerance, as (table, p, mesh
# root) (README, "Known deviations"). The other 17 of the 25 must pass,
# and a deviation that starts to pass means this list is stale.
MULT_DEVIATIONS = ({("table2", p, 8) for p in (16, 32)}
                   | {("table4", 4, root) for root in (32, 64, 128, 256)}
                   | {("table4", 16, root) for root in (32, 64)})


@pytest.mark.parametrize("table", sorted(MULT_SEED1_RBAR))
def test_multiplicative_column_rates_are_pinned_at_seed_1(table):
    specs = [s for s in preset_grid(table, full=True) if s.smoother == "mult"]
    got = [run_single(s, 1).rbar for s in specs]
    assert got == pytest.approx(MULT_SEED1_RBAR[table], abs=1e-5)
    refs = [reference_rbar(table, s) for s in specs]
    failing = {(table, s.p, s.n_x) for s, rbar, ref in zip(specs, got, refs)
               if abs(rbar - ref) > rbar_tolerance(ref)}
    assert failing == {cell for cell in MULT_DEVIATIONS if cell[0] == table}


@pytest.mark.parametrize("table", ["table2", "table4"])
def test_additive_column_reproduces_at_seed_1(table):
    # Every published additive cell of table2 (all six weights, 24 cells)
    # and of table4 with its --full meshes (w5, 17 cells) at seed 1.
    specs = [s for s in preset_grid(table, full=True) if s.smoother == "add"]
    assert len(specs) == {"table2": 24, "table4": 17}[table]
    misses = []
    for s in specs:
        rbar, ref = run_single(s, 1).rbar, reference_rbar(table, s)
        if not abs(rbar - ref) <= rbar_tolerance(ref):
            misses.append(f"{s.weight} p={s.p} {s.n_x}x{s.n_y}: "
                          f"{rbar:.3f}/{ref}")
    assert not misses, misses


# Seed-1 rates of the diffusion presets, in grid order, to 6 decimals and
# compared within 1e-5 like the multiplicative pins. The figures have no
# published values in this repository, so these pins are what guards the
# diffusion operator and its smoothers.
DIFFUSION_SEED1_RBAR = {
    "fig3-diffusion": [2.280124, 2.381710, 2.233350, 2.332978, 2.156955,
                       2.263422, 2.053986, 2.184941, 1.843980, 2.085246,
                       1.595791, 1.898557, 1.357641, 1.715512, 1.125885,
                       1.504349, 0.851412, 1.257103, 0.533897, 0.955538],
    "fig4-diffusion-ar": [1.511783, 0.866851, 0.329267, 1.894504, 1.669390,
                          0.818912, 1.546074, 0.849123, 0.170863, 1.873355,
                          1.672011, 0.847749]}


@pytest.mark.parametrize("name", sorted(DIFFUSION_SEED1_RBAR))
def test_diffusion_preset_rates_are_pinned_at_seed_1(name):
    records, _ = run_preset(name, [1])
    assert all(r.converged for r in records)
    got = [r.rbar for r in records]
    assert got == pytest.approx(DIFFUSION_SEED1_RBAR[name], abs=1e-5)


def test_criterion_03_mesh_robustness_p8():
    refs = {16: 1.30, 32: 1.29, 64: 1.29}
    rates = {}
    for root, ref in refs.items():
        spec = RunSpec(solver="mg", smoother="add", weight="w5", p=8,
                       n_x=root, n_y=root, overlap_rule="ceilp8")
        rates[root] = _mean_rbar(spec)
    spread = max(rates.values()) - min(rates.values())
    ok = spread < 0.08 and all(
        abs(rates[root] - refs[root]) <= rbar_tolerance(refs[root])
        for root in refs)
    detail = (" ".join(f"{r}^2={v:.3f}" for r, v in rates.items())
              + f" spread={spread:.4f}")
    _report(3, ok, detail)


def test_criterion_04_anisotropy_mgcg_advantage():
    res = {}
    for solver, ref in (("mg", 0.16), ("mgcg", 0.34)):
        spec = RunSpec(solver=solver, smoother="add", weight="w5", p=8,
                       n_x=16, n_y=16, ar=8.0, overlap_rule="ceilp8")
        rbar = _mean_rbar(spec)
        res[solver] = (rbar, int(np.ceil(10.0 / rbar)))
    ok = res["mgcg"][1] <= 0.6 * res["mg"][1]
    detail = (f"AR=8: mg rbar={res['mg'][0]:.3f} n10={res['mg'][1]}, "
              f"mgcg rbar={res['mgcg'][0]:.3f} n10={res['mgcg'][1]}")
    _report(4, ok, detail)


def test_criterion_05_equivalent_operator_cost():
    cells = [(8, 16, 5.4), (16, 8, 5.1)]
    ok = True
    parts = []
    for p, root, ref in cells:
        spec = RunSpec(solver="mg", smoother="add", weight="w5", p=p,
                       n_x=root, n_y=root, overlap_rule="ceilp8")
        omega = float(np.mean([r.omega1 for r in _records(spec)]))
        ok &= abs(omega - ref) <= 0.15 * ref
        parts.append(f"p={p}: {omega:.2f}/{ref}")
    _report(5, ok, "omega1 measured/published: " + " ".join(parts))


def test_criterion_06_variable_diffusion():
    rates = {}
    for solver in ("mgcg", "mg"):
        spec = RunSpec(solver=solver, smoother="add", weight="w5", p=16,
                       n_x=8, n_y=8, overlap_rule="ceilp8",
                       n_pre=1, n_post=1, nu_hat=0.9)
        rates[solver] = _mean_rbar(spec)
    ok = rates["mgcg"] >= 0.75 and rates["mgcg"] >= rates["mg"]
    _report(6, ok, f"nu_hat=0.9: mgcg rbar={rates['mgcg']:.3f} "
                   f"(published 0.91), mg rbar={rates['mg']:.3f}")


# ----------------------------------------------------------------------
# Property-based acceptance


def test_criterion_07_basis_exactness():
    worst_q = worst_d = 0.0
    for p in list(range(1, 17)) + [32]:
        basis = gll_basis(p)
        for k in range(2 * p):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            worst_q = max(worst_q,
                          abs(np.dot(basis.weights, basis.nodes**k) - exact))
        for k in range(p + 1):
            want = k * basis.nodes ** max(k - 1, 0) if k else np.zeros(p + 1)
            worst_d = max(worst_d,
                          np.abs(basis.diff @ basis.nodes**k - want).max())
    ok = worst_q < 1e-12 and worst_d < 1e-11
    _report(7, ok, f"quadrature err={worst_q:.1e} derivative err={worst_d:.1e}")


def test_criterion_08_operator_oracles():
    rng = np.random.default_rng(67)
    worst = 0.0
    sym = null = 0.0
    for mesh in (MeshConfig(2, 2), MeshConfig(3, 2, l_x=3.0)):
        for p in (1, 2, 3):
            basis = gll_basis(p)
            layout = layout_for(mesh, p)
            shape = (layout.N_y, layout.N_x)
            nu = 1.0 + 0.5 * rng.random(shape)
            pairs = [(PoissonOperator(basis, mesh),
                      dense_poisson_matrix(basis, mesh)),
                     (DiffusionOperator(basis, mesh, nu),
                      dense_diffusion_matrix(basis, mesh, nu))]
            for op, A in pairs:
                scale = np.abs(A).max()
                sym = max(sym, np.abs(A - A.T).max() / scale)
                null = max(null, np.abs(A @ np.ones(A.shape[0])).max() / scale)
                for _ in range(20):
                    u = rng.standard_normal(shape)
                    want = A @ u.ravel()
                    err = np.abs(op.apply(u).ravel() - want).max()
                    worst = max(worst, err / max(np.abs(want).max(), 1.0))
    ok = worst < 1e-12 and sym < 1e-12 and null < 1e-12
    _report(8, ok, f"apply err={worst:.1e} asym={sym:.1e} null={null:.1e}")


def test_criterion_09_partition_of_unity():
    worst = 0.0
    n = 8
    for kind in WeightKind:
        for p in (4, 8, 16):
            for n_o in (1, 2):
                w = build_weight_1d(kind, gll_basis(p), n_o)
                total = np.zeros(p * n)
                offs = np.arange(-n_o, p + n_o + 1)
                for e in range(n):
                    np.add.at(total, (e * p + offs) % (p * n), w)
                worst = max(worst, np.abs(total - 1.0).max())
    ok = worst < 1e-13
    _report(9, ok, f"max deviation from unity={worst:.1e}")


def test_criterion_10_fast_diagonalization():
    rng = np.random.default_rng(71)
    worst = 0.0
    for p in (2, 4, 8):
        for n_o in (0, 1, 2):
            if n_o > p - 1:
                continue
            for dx, dy in ((0.5, 0.5), (2.0, 0.5)):
                basis = gll_basis(p)
                S_x, lam_x, S_y, lam_y = build_fast_diag(basis, dx, dy, n_o)
                L_x, m_x = restricted_1d(basis, dx, n_o)
                L_y, m_y = restricted_1d(basis, dy, n_o)
                A_ss = (np.kron(np.diag(m_y), L_x)
                        + np.kron(L_y, np.diag(m_x)))
                m = p + 1 + 2 * n_o
                r = rng.standard_normal((m, m))
                x = (S_y @ ((S_y.T @ r @ S_x) / (lam_y[:, None] + lam_x))
                     @ S_x.T)
                err = np.abs(A_ss @ x.ravel() - r.ravel()).max()
                worst = max(worst, err / np.abs(r).max())
    ok = worst < 1e-10
    _report(10, ok, f"max inverse residual={worst:.1e}")


def test_criterion_11_transfers_and_coarse_solve():
    mesh = MeshConfig(4, 4)
    h = build_hierarchy(mesh, 4, OverlapRule("fixed", 1))
    rng = np.random.default_rng(73)
    adj = 0.0
    for l in (1, 2):
        lo, hi = h.levels[l - 1].op.layout, h.levels[l].op.layout
        uc = rng.standard_normal((lo.N_y, lo.N_x))
        vf = rng.standard_normal((hi.N_y, hi.N_x))
        lhs = np.vdot(prolongate(h, l, uc), vf)
        rhs = np.vdot(uc, restrict_residual(h, l, vf))
        adj = max(adj, abs(lhs - rhs) / abs(lhs))
    # Coarse-polynomial exactness: an elementwise polynomial with periodic
    # continuity interpolates exactly between levels.
    b2, b4 = h.levels[1].basis, h.levels[2].basis
    fn = lambda xi: xi**2
    line_c = np.tile(fn(b2.nodes[:-1]), mesh.n_x)
    line_f = np.tile(fn(b4.nodes[:-1]), mesh.n_x)
    poly = np.abs(prolongate(h, 2, np.outer(line_c, line_c))
                  - np.outer(line_f, line_f)).max()
    # Coarse solve against the dense pseudoinverse.
    lv0 = h.levels[0]
    A0 = dense_poisson_matrix(lv0.basis, mesh)
    f0 = rng.standard_normal((lv0.op.layout.N_y, lv0.op.layout.N_x))
    u0 = coarse_solve(h, f0)
    want = np.linalg.pinv(A0) @ project_mean(f0).ravel()
    coarse = np.abs(u0.ravel() - want).max()
    ok = adj < 1e-13 and poly < 1e-13 and coarse < 1e-11
    _report(11, ok, f"adjointness={adj:.1e} embed err={poly:.1e} "
                    f"coarse err={coarse:.1e}")


def test_criterion_12_multiplicative_symmetrization():
    mesh = MeshConfig(2, 2)
    basis = gll_basis(2)
    layout = layout_for(mesh, 2)
    op = PoissonOperator(basis, mesh)
    A = dense_poisson_matrix(basis, mesh)
    N = layout.size
    M = np.zeros((N, N))
    f = np.zeros((layout.N_y, layout.N_x))
    sm = MultiplicativeSchwarz(op, 0)
    for i in range(N):
        e = np.zeros(N)
        e[i] = 1.0
        M[:, i] = sm.smooth(op, e.reshape(f.shape), f, 2).ravel()
    AM = A @ M
    asym = np.abs(AM - AM.T).max() / np.abs(AM).max()
    ok = asym < 1e-11
    _report(12, ok, f"even-sweep asymmetry in the operator inner "
                    f"product={asym:.1e}")


def test_criterion_13_discretization_accuracy():
    spec = RunSpec(solver="mgcg", smoother="add", weight="w5", p=8,
                   n_x=8, n_y=8, overlap_rule="fixed:1", tol=1e10)
    mesh, h, fvec, u_exact = build_problem(spec)
    u, rep = solve(h, fvec, SolveConfig(solver="mgcg", tol_reduction=1e10,
                                        max_cycles=100, seed=1))
    err = np.abs((u - u.mean()) - (u_exact - u_exact.mean())).max()
    ok = rep.converged and err < 1e-9
    _report(13, ok, f"converged={rep.converged} nodal error={err:.1e}")
