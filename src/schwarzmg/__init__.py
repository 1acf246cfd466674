"""2D spectral-element Poisson/diffusion solver with nonuniformly weighted
Schwarz smoothers, polynomial multigrid and multigrid-preconditioned CG."""

from .basis import Basis1D, gll_basis, interp_matrix, overlap_width
from .krylov import SolveConfig, solve
from .mesh import FieldLayout, MeshConfig, periodic_windows
from .metrics import ConvergenceReport, convergence_rate, cycle_cost, work_per_decades
from .multigrid import (MultigridHierarchy, OverlapRule, build_hierarchy,
                        coarse_solve, prolongate, restrict_residual, v_cycle)
from .operators import (DiffusionOperator, PoissonOperator,
                        manufactured_rhs_diffusion, manufactured_rhs_poisson)
from .presets import RunRecord, RunSpec, preset_grid, run_preset, run_single
from .schwarz import (AdditiveSchwarz, FastDiagSolver, MultiplicativeSchwarz,
                      WeightKind, build_fast_diag, restricted_1d, weight_value)

__version__ = "0.1.0"
