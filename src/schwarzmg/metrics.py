"""Convergence and cost metrics for the benchmark runs."""

import math
from dataclasses import dataclass, field

__all__ = ["ConvergenceReport", "cycle_cost"]


@dataclass
class ConvergenceReport:
    """One solve: its residual norms (the initial one, then one per cycle)
    and ``stop``, why ``multigrid.iterate`` ended it. The mean rate rbar
    (decades per cycle) is inf for a zero final residual, -inf after a
    non-finite one, 0.0 with no cycle and log10(r_0 / r) / cycles otherwise;
    n10 = ceil(10 / rbar) is 0 at rbar = inf and -1 where rbar <= 0."""

    residuals: list[float]
    stop: str
    wallclock: float
    # Coarse solves of this solve that stopped short of the coarse tolerance.
    coarse_cg_exhausted: int = 0
    converged: bool = field(init=False)
    cycles: int = field(init=False)
    rbar: float = field(init=False)
    n10: int = field(init=False)

    def __post_init__(self):
        self.converged = self.stop == "converged"
        self.cycles = len(self.residuals) - 1
        if self.residuals[-1] == 0.0:
            self.rbar = math.inf
        elif self.stop == "non-finite":
            self.rbar = -math.inf
        elif self.cycles == 0:
            self.rbar = 0.0
        else:
            self.rbar = (math.log10(self.residuals[0] / self.residuals[-1])
                         / self.cycles)
        self.n10 = (0 if self.rbar == math.inf else
                    math.ceil(10.0 / self.rbar) if self.rbar > 0 else -1)


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
