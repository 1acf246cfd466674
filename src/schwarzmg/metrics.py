"""Convergence and cost metrics for the benchmark runs."""

import math
from dataclasses import dataclass, field

__all__ = ["ConvergenceReport", "convergence_rate", "cycles_per_decade10",
           "cycle_cost", "work_per_decades"]


def convergence_rate(residuals) -> float:
    """Average logarithmic reduction per cycle over the recorded history."""
    if len(residuals) < 2:
        raise ValueError("need at least one cycle of residual history")
    if any(r <= 0.0 for r in residuals[:1] + residuals[-1:]):
        raise ValueError("residual norms must be positive")
    if math.isinf(residuals[-1]):  # the norm overflowed: the solve diverged
        return -math.inf
    return math.log10(residuals[0] / residuals[-1]) / (len(residuals) - 1)


def cycles_per_decade10(rbar: float) -> int:
    """Cycles needed for a 10^10 residual reduction at rate ``rbar``."""
    if rbar <= 0.0:
        raise ValueError("convergence rate must be positive")
    if math.isinf(rbar):
        return 0
    return math.ceil(10.0 / rbar)


@dataclass
class ConvergenceReport:
    residuals: list[float]
    converged: bool
    cycles: int
    wallclock: float
    rbar: float = field(init=False)
    n10: int = field(init=False)
    breakdown: bool = False
    # Coarse solves of this solve that stopped short of the coarse tolerance.
    coarse_cg_exhausted: int = 0

    def __post_init__(self):
        if self.cycles == 0 or self.residuals[-1] == 0.0:
            # Exactly solved (e.g. zero right side): rate is unbounded.
            self.rbar = math.inf
            self.n10 = 0
        else:
            self.rbar = convergence_rate(self.residuals)
            self.n10 = cycles_per_decade10(self.rbar) if self.rbar > 0 else -1


def cycle_cost(p: int, n_el: int, n_o_top: int, n_s: int,
               variable: bool = False, with_cg: bool = False):
    """Operation-count model for one cycle versus one operator application.

    Returns (W_cyc, W_op, ratio). ``n_s`` counts pre- plus post-smoothing
    steps on the finest level; the variable V-cycle doubles the smoothing
    constant from 4/3 to 2; CG acceleration adds 2 operator equivalents.
    """
    n_p = p + 1
    c_s = 2.0 if variable else 4.0 / 3.0
    c_cg = 2.0 if with_cg else 0.0
    bracket = 4.0 * (1.0 + 2.0 * n_o_top / n_p) ** 3 * c_s * n_s + 2.0 * c_s + c_cg
    w_cyc = bracket * n_p**3 * n_el
    w_op = 2.0 * n_p**3 * n_el
    return w_cyc, w_op, w_cyc / w_op


def work_per_decades(k: float, rbar: float, cost_ratio: float) -> float:
    """Equivalent operator applications per k decades of residual reduction."""
    return (k / rbar) * cost_ratio
