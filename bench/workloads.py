"""The benchmark's workloads and the correctness gate every solve must pass."""

from dataclasses import dataclass

import numpy as np

from schwarzmg.krylov import random_initial_guess
from schwarzmg.operators import project_mean
from schwarzmg.presets import RunSpec, rbar_tolerance, reference_rbar


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: RunSpec
    table: str | None = None          # preset whose published rbar must hold
    max_error: float | None = None    # bound on the mean-free max error


WORKLOADS = {w.name: w for w in (
    # The p=1 coarse CG is about 80% of the solve; transfers are under 2%.
    Workload("coarse-p4",
             "table4 cell p=4 64x64 w5 ceilp8 MG: the p=1 coarse CG carries the solve",
             RunSpec(solver="mg", smoother="add", weight="w5", p=4,
                     n_x=64, n_y=64, overlap_rule="ceilp8"),
             table="table4"),
    # Top-level apply, the fast-diagonalization sweep and the dense
    # transfers dominate the solve; jacobi_eigh dominates set-up.
    Workload("highorder-p32",
             "table4 cell p=32 64x64 w5 ceilp8 MG: top-level apply, additive sweep and dense transfers",
             RunSpec(solver="mg", smoother="add", weight="w5", p=32,
                     n_x=64, n_y=64, overlap_rule="ceilp8"),
             table="table4"),
    # Same layers used differently: sequential subdomain solves with
    # per-element residual refresh, inside the flexible-CG outer loop.
    # Measured max mean-free error against the exact solution: 2-4e-9.
    Workload("mult-diffusion",
             "variable diffusion nu_hat=0.9 p=8 16x16 multiplicative MGCG: sequential sweep and element kernels",
             RunSpec(solver="mgcg", smoother="mult", p=8, n_x=16, n_y=16,
                     overlap_rule="ceilp8", n_pre=1, n_post=1, nu_hat=0.9),
             max_error=1e-8),
)}


def check_solve(w: Workload, h, f, u_exact, u, report, seed: int) -> list[str]:
    """Reasons the solve is wrong; empty when it passes every check.

    The residual is recomputed with the top level's own operator, from the
    same seeded initial guess the solver started at.
    """
    faults = []
    if not report.converged:
        faults.append(f"not converged after {report.cycles} cycles")
    op = h.top.op
    r0 = np.linalg.norm(f - op.apply(random_initial_guess(h, seed)))
    r = np.linalg.norm(f - op.apply(u))
    if not r * w.spec.tol <= r0:
        faults.append(f"residual reduced by {r0 / r:.3g}, "
                      f"need {w.spec.tol:.3g}")
    if w.table is not None:
        ref = reference_rbar(w.table, w.spec)
        if not abs(report.rbar - ref) <= rbar_tolerance(ref):
            faults.append(f"rbar {report.rbar:.4f} outside published "
                          f"{ref} +- {rbar_tolerance(ref):.3f}")
    if w.max_error is not None:
        err = float(np.max(np.abs(project_mean(u) - project_mean(u_exact))))
        if not err <= w.max_error:
            faults.append(f"error {err:.3g} above {w.max_error:.3g}")
    return faults
