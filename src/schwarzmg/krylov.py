"""Outer solver: one loop of V-cycle corrections, as the stand-alone
multigrid iteration or as the preconditioner of flexible CG (Notay, SIAM
J. Sci. Comput. 22, 2000).

Both start from the same seeded random initial guess in [0, 1] and
iterate until the Euclidean residual norm drops by ``tol_reduction``.
"""

import time
from dataclasses import dataclass

import numpy as np

from .metrics import ConvergenceReport
from .multigrid import MultigridHierarchy, v_cycle

__all__ = ["SolveConfig", "solve", "random_initial_guess"]


@dataclass(frozen=True)
class SolveConfig:
    solver: str = "mg"            # "mg" | "mgcg"
    tol_reduction: float = 1e10
    max_cycles: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 1.0 < self.tol_reduction < np.inf:
            raise ValueError("tol_reduction must be finite and exceed 1")
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
    """Solve A u = f, recording the residual norm once per cycle.

    Cycle c computes one correction z = v_cycle(h, r, c) of the current
    residual r, so every solve numbers its smoothing sweeps from 0. ``mg``
    adds z to u; ``mgcg`` uses it as the preconditioned residual of
    flexible CG, whose direction update takes the Polak-Ribiere
    coefficient beta = z^T (r - r_old) / delta, which tolerates the
    non-symmetric Schwarz-smoothed preconditioner. The loop
    stops at the first non-finite residual norm, unconverged: no later
    cycle can make it finite again. ``mgcg`` stops with a breakdown when
    p^T A p <= 0, or when delta = z^T r, the next divisor, is 0 or not finite.
    """
    t0 = time.perf_counter()
    exhausted = h.coarse_cg_exhausted
    op = h.top.op
    u = random_initial_guess(h, cfg.seed) if u0 is None else u0.copy()
    r = f - op.apply(u)
    res = [float(np.linalg.norm(r))]
    r_max = res[0] / cfg.tol_reduction
    converged, breakdown = res[0] <= r_max, False
    cycles, p = 0, None
    while not converged and cycles < cfg.max_cycles:
        z = v_cycle(h, r, cycles)
        if cfg.solver == "mg":
            u += z
            r = f - op.apply(u)
        else:
            p = z if p is None else z + (np.vdot(z, r - r_old) / delta) * p
            delta, r_old = np.vdot(z, r), r
            q = op.apply(p)
            pq = np.vdot(p, q)
            if pq <= 0.0:
                breakdown = True
                break
            alpha = delta / pq
            u += alpha * p
            r = r - alpha * q
            breakdown = not (np.isfinite(delta) and delta != 0.0)
        cycles += 1
        res.append(float(np.linalg.norm(r)))
        if breakdown or not np.isfinite(res[-1]):
            break
        converged = res[-1] <= r_max
    return u, ConvergenceReport(
        res, converged, cycles, time.perf_counter() - t0,
        breakdown=breakdown,
        coarse_cg_exhausted=h.coarse_cg_exhausted - exhausted)
