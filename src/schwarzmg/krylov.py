"""Outer solvers: stand-alone multigrid iteration and inexact
multigrid-preconditioned conjugate gradients (flexible CG with the
Polak-Ribiere update).

Both start from the same seeded random initial guess in [0, 1] and
iterate until the Euclidean residual norm drops by ``tol_reduction``.
"""

import time
from dataclasses import dataclass

import numpy as np

from .metrics import ConvergenceReport
from .multigrid import MultigridHierarchy, v_cycle

__all__ = ["SolveConfig", "solve_mg", "solve_mgcg", "random_initial_guess"]


@dataclass(frozen=True)
class SolveConfig:
    solver: str = "mg"            # "mg" | "mgcg"
    tol_reduction: float = 1e10
    max_cycles: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.tol_reduction > 1.0:
            raise ValueError("tol_reduction must exceed 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.solver not in ("mg", "mgcg"):
            raise ValueError(f"unknown solver {self.solver!r}")


def random_initial_guess(h: MultigridHierarchy, seed: int) -> np.ndarray:
    top = h.top
    shape = (top.op.layout.N_y, top.op.layout.N_x)
    return np.random.default_rng(seed).random(shape)


def solve(h: MultigridHierarchy, f: np.ndarray, cfg: SolveConfig,
          u0: np.ndarray | None = None):
    if cfg.solver == "mg":
        return solve_mg(h, f, cfg, u0)
    return solve_mgcg(h, f, cfg, u0)


def solve_mg(h: MultigridHierarchy, f: np.ndarray, cfg: SolveConfig,
             u0: np.ndarray | None = None):
    """Repeated V-cycle iteration with per-cycle residual recording."""
    t0 = time.perf_counter()
    exhausted = h.coarse_cg_exhausted
    h.reset_smoothers()
    op = h.top.op
    u = random_initial_guess(h, cfg.seed) if u0 is None else u0.copy()
    r = f - op.apply(u)
    res = [float(np.linalg.norm(r))]
    r_max = res[0] / cfg.tol_reduction
    converged = res[0] <= r_max
    cycles = 0
    while not converged and cycles < cfg.max_cycles:
        u = v_cycle(h, u, f)
        cycles += 1
        res.append(float(np.linalg.norm(f - op.apply(u))))
        converged = res[-1] <= r_max
    return u, ConvergenceReport(
        res, converged, cycles, time.perf_counter() - t0,
        coarse_cg_exhausted=h.coarse_cg_exhausted - exhausted)


def solve_mgcg(h: MultigridHierarchy, f: np.ndarray, cfg: SolveConfig,
               u0: np.ndarray | None = None):
    """Inexact multigrid-preconditioned CG.

    The preconditioner is one V-cycle from a zero initial guess; the
    search-direction update uses the Polak-Ribiere coefficient
    beta = z^T (r - r_old) / delta, which tolerates the non-symmetric
    Schwarz-smoothed preconditioner.
    """
    t0 = time.perf_counter()
    exhausted = h.coarse_cg_exhausted
    h.reset_smoothers()
    op = h.top.op
    u = random_initial_guess(h, cfg.seed) if u0 is None else u0.copy()
    r_old = np.zeros_like(f)
    r = f - op.apply(u)
    res = [float(np.linalg.norm(r))]
    r_max = res[0] / cfg.tol_reduction
    breakdown = False
    converged = res[0] <= r_max
    cycles = 0
    if not converged:
        p = v_cycle(h, np.zeros_like(f), r)
        delta = np.vdot(p, r)
        for _ in range(cfg.max_cycles):
            q = op.apply(p)
            pq = np.vdot(p, q)
            if pq <= 0.0:
                breakdown = True
                break
            alpha = delta / pq
            u = u + alpha * p
            r = r - alpha * q
            cycles += 1
            res.append(float(np.linalg.norm(r)))
            if res[-1] <= r_max:
                converged = True
                break
            z = v_cycle(h, np.zeros_like(f), r)
            beta = np.vdot(z, r - r_old) / delta
            p = z + beta * p
            delta = np.vdot(z, r)
            r_old = r
    return u, ConvergenceReport(
        res, converged, cycles, time.perf_counter() - t0,
        breakdown=breakdown,
        coarse_cg_exhausted=h.coarse_cg_exhausted - exhausted)
