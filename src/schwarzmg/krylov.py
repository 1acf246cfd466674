"""Outer solver: V-cycle corrections in ``multigrid.iterate``'s loop, as
the stand-alone multigrid iteration (``mg``) or as the preconditioner of
flexible CG (``mgcg``). The loop's docstring holds every stopping rule,
and the report carries the one stop reason the loop returns.

Both start from the same seeded random initial guess in [0, 1] and
iterate until the Euclidean residual norm drops by ``tol_reduction``.

Precision, for the whole package: the iterate, the CG recurrences and
the recorded history are float64, and every residual is computed in
float64. Each V-cycle runs in float32 on the float32 rounding of the
residual, and its correction is promoted to float64: mixed-precision
iterative refinement (Goddeke, Strzodka & Turek, Int. J. Parallel Emerg.
Distrib. Syst. 22, 2007; Carson & Higham, SIAM J. Sci. Comput. 40, 2018).
A cycle need only cut the residual by about 1e2, far above float32
resolution, while the float64 residual keeps the attainable accuracy of
float64; the V-cycle's fields take half the bytes. Its coarse solve
alone runs in float64, to float32 resolution (``multigrid.coarse_solve``).
Every kernel computes in the dtype of the field it is given:
``mesh.fold_product`` allocates in its operands' result type, and every
object that holds factors (an operator, a smoother, a level's transfers)
keeps them in ``mesh.Precisions``, float64 as built and float32 cast at
set-up, so one hierarchy serves both and a float32 field is never upcast.
``mg`` stores its residual only in float32, in one array per solve: the
operator's own slab loop (``apply(u, f, out=r)``) computes
f - A u in float64, rounds each slab into r and returns the float64 norm.
``mgcg`` keeps its residual in float64, for CG's recurrences.

The scratch pool: ``solve`` makes one ``mesh.Pool``, which lives as long
as the solve, and passes it through ``iterate``'s apply and ``v_cycle``
to every apply, sweep and transfer. Each binds once per solve and dtype,
on its first call (plan and run, as in FFTW: Frigo & Johnson, Proc. IEEE
93, 2005): its temporaries become views of the pool's buffers, and its
work a list of numpy calls with every operand and ``out`` fixed, none
writing memory it reads; each call runs the list in order. A bind that
outgrows a buffer frees it, drops every plan and binds again. No buffer
holds a value between kernel calls: a kernel's result is a fresh array.
A solve whose top-level field is more than one slab
(``mesh._slab_elements``) passes None, and every kernel binds on an
eager pool, which makes each call as it is bound, on fresh arrays: at
p=32 held buffers raised the peak memory from 226 to 393 MB.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from .mesh import Pool, _slab_elements
from .metrics import ConvergenceReport
from .multigrid import MultigridHierarchy, iterate, v_cycle

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def random_initial_guess(h: MultigridHierarchy, seed: int) -> np.ndarray:
    top = h.top
    shape = (top.op.layout.N_y, top.op.layout.N_x)
    return np.random.default_rng(seed).random(shape)


def solve(h: MultigridHierarchy, f: np.ndarray, cfg: SolveConfig):
    """Solve A u = f, recording the residual norm once per cycle.

    Cycle c computes one correction z = v_cycle(h, r, c) of the current
    residual r, in float32 and promoted to float64 (see the module
    docstring), so every solve numbers its smoothing sweeps from 0.
    ``multigrid.iterate`` adds z to u (``mg``, whose residual r is stored
    in float32 and whose norms the apply returns) or runs flexible CG on
    it (``mgcg``), to ||r|| <= r0 / tol_reduction in ``max_cycles``
    cycles.
    A right side of any shape but the top level's field shape is rejected
    before any work, since it would broadcast into a different problem.
    """
    t0 = time.perf_counter()
    exhausted = h.coarse_cg_exhausted
    op = h.top.op
    shape = (op.layout.N_y, op.layout.N_x)
    if np.shape(f) != shape:
        raise ValueError(f"right side has shape {np.shape(f)}, but the "
                         f"top level's fields have shape {shape}")
    u = random_initial_guess(h, cfg.seed)
    ws = Pool() if _slab_elements(u, op.mesh.n_y) == op.mesh.n_y else None
    apply = functools.partial(op.apply, ws=ws)
    cg = cfg.solver == "mgcg"
    r = apply(u, f) if cg else np.empty(shape, np.float32)
    # v_cycle is looked up at call time, so that it can be replaced.
    res, stop = iterate(
        apply, f,
        lambda r, c: v_cycle(h, r.astype(np.float32, copy=False), c, ws),
        u, r, 1.0 / cfg.tol_reduction, cfg.max_cycles, cg=cg)
    return u, ConvergenceReport(
        res, stop, time.perf_counter() - t0,
        coarse_cg_exhausted=h.coarse_cg_exhausted - exhausted)
