"""Benchmark experiment presets, single-run execution and CSV/JSON records."""

import csv
import json
import math
from dataclasses import asdict, dataclass, fields

from .krylov import SolveConfig, solve
from .mesh import MeshConfig
from .metrics import cycle_cost
from .multigrid import OverlapRule, build_hierarchy
from .operators import manufactured_rhs_diffusion, poisson_benchmark
from .schwarz import WeightKind

__all__ = ["RunSpec", "RunRecord", "run_single", "preset_grid", "run_preset",
           "write_csv", "PRESET_NAMES"]

PRESET_NAMES = ("table2", "table3", "table4", "table5",
                "fig3-diffusion", "fig4-diffusion-ar")


@dataclass(frozen=True)
class RunSpec:
    """One solver configuration (everything but the seed)."""

    solver: str = SolveConfig.solver
    smoother: str = "add"
    weight: str = "w5"            # ignored for the multiplicative smoother
    p: int = 8
    n_x: int = 8
    n_y: int = 8
    ar: float = 1.0
    overlap_rule: str = "fixed:1"
    n_pre: int = 1
    n_post: int = 0
    cycle: str = "std"            # "std" | "var"
    tol: float = SolveConfig.tol_reduction
    max_cycles: int = SolveConfig.max_cycles
    nu_hat: float | None = None   # None selects the Poisson problem

    def __post_init__(self):
        if self.cycle not in ("std", "var"):
            raise ValueError(f"unknown cycle {self.cycle!r}")


@dataclass(frozen=True, kw_only=True)
class RunRecord(RunSpec):
    """The RunSpec that ran (weight blank for "mult"), its seed and outcome."""

    seed: int
    cycles: int
    rbar: float
    n10: int
    omega1: float
    converged: bool
    stop: str                     # why the solve ended: multigrid.iterate
    wallclock: float
    coarse_cg_exhausted: int


def build_problem(spec: RunSpec):
    """Mesh, hierarchy and right-hand side for one run configuration."""
    if spec.nu_hat is None:
        mesh = MeshConfig(spec.n_x, spec.n_y, l_x=2.0 * spec.ar, l_y=2.0)
    else:
        mesh = MeshConfig(spec.n_x, spec.n_y, l_x=float(spec.ar), l_y=1.0)
    rule = OverlapRule.parse(spec.overlap_rule)
    h = build_hierarchy(
        mesh, spec.p, rule,
        smoother=spec.smoother,
        weight=WeightKind(spec.weight),
        n_pre=spec.n_pre, n_post=spec.n_post,
        variable=(spec.cycle == "var"),
        nu_hat=spec.nu_hat)
    if spec.nu_hat is None:
        f, u_exact = poisson_benchmark(mesh, h.top.basis)
    else:
        f, u_exact = manufactured_rhs_diffusion(mesh, h.top.basis, spec.nu_hat)
    return mesh, h, f, u_exact


def run_single(spec: RunSpec, seed: int = SolveConfig.seed) -> RunRecord:
    # Validate the solve settings before the (possibly costly) set-up.
    cfg = SolveConfig(solver=spec.solver, tol_reduction=spec.tol,
                      max_cycles=spec.max_cycles, seed=seed)
    mesh, h, f, _ = build_problem(spec)
    _, rep = solve(h, f, cfg)
    _, _, ratio = cycle_cost(spec.p, mesh.n_el, h.top.smoother.n_o,
                             spec.n_pre + spec.n_post,
                             variable=(spec.cycle == "var"),
                             with_cg=(spec.solver == "mgcg"))
    omega1 = (ratio / rep.rbar if math.isfinite(rep.rbar) and rep.rbar > 0
              else 0.0)
    weight = spec.weight if spec.smoother == "add" else ""
    return RunRecord(
        **{**asdict(spec), "weight": weight}, seed=seed, cycles=rep.cycles,
        rbar=rep.rbar, n10=rep.n10, omega1=omega1,
        converged=rep.converged, stop=rep.stop,
        wallclock=rep.wallclock, coarse_cg_exhausted=rep.coarse_cg_exhausted)


# ----------------------------------------------------------------------
# Published reference values used in the per-preset summaries.

_WEIGHT_COLUMNS = ("wa", "w1", "w3", "w5", "w7", "wt", "mult")

TABLE2_RBAR = {
    4:  (0.66, 0.86, 1.01, 1.17, 1.25, 0.72, 1.01),
    8:  (0.40, 0.83, 1.17, 1.29, 1.23, 0.52, 1.29),
    16: (0.34, 0.80, 0.84, 0.84, 0.84, 0.42, 1.26),
    32: (0.32, 0.43, 0.43, 0.43, 0.43, 0.38, 0.76),
}

TABLE3_RBAR = {
    4:  (0.63, 0.91, 0.98, 0.96, 0.79, 0.31, 1.03),
    8:  (0.40, 0.75, 1.06, 1.28, 1.28, 0.64, 1.30),
    16: (0.51, 1.07, 1.36, 1.28, 1.12, 0.53, 1.40),
    32: (0.71, 1.39, 1.48, 1.50, 1.51, 0.19, 1.56),
}

# (p, sqrt_n_el) -> {method: (rbar, n10, omega1)}
TABLE4 = {
    (4, 32):   {"w5": (1.17, 9, 9.2),  "mult": (0.87, 12, 12.4)},
    (4, 64):   {"w5": (1.17, 9, 9.3),  "mult": (0.86, 12, 12.6)},
    (4, 128):  {"w5": (1.17, 9, 9.3),  "mult": (0.85, 12, 12.7)},
    (4, 256):  {"w5": (1.17, 9, 9.3),  "mult": (0.85, 12, 12.7)},
    (8, 16):   {"w5": (1.30, 8, 5.4),  "mult": (1.28, 8, 5.5)},
    (8, 32):   {"w5": (1.29, 8, 5.4),  "mult": (1.26, 8, 5.5)},
    (8, 64):   {"w5": (1.29, 8, 5.4),  "mult": (1.26, 8, 5.5)},
    (8, 128):  {"w5": (1.28, 8, 5.4),  "mult": (1.26, 8, 5.5)},
    (16, 8):   {"w5": (1.33, 8, 5.1),  "mult": (1.44, 7, 4.7)},
    (16, 16):  {"w5": (1.37, 8, 4.9),  "mult": (1.42, 8, 4.8)},
    (16, 32):  {"w5": (1.36, 8, 5.0),  "mult": (1.46, 7, 4.6)},
    (16, 64):  {"w5": (1.36, 8, 5.0),  "mult": (1.46, 7, 4.6)},
    (32, 4):   {"w5": (1.90, 6, 3.5),  "mult": (1.65, 7, 4.0)},
    (32, 8):   {"w5": (1.58, 7, 4.2),  "mult": (1.59, 7, 4.2)},
    (32, 16):  {"w5": (1.87, 6, 3.6),  "mult": (1.63, 7, 4.1)},
    (32, 32):  {"w5": (1.93, 6, 3.4),  "mult": (1.64, 7, 4.0)},
    (32, 64):  {"w5": (1.93, 6, 3.4),  "mult": (1.65, 7, 4.0)},
}

# (p, ar) -> {solver: (rbar, n10, omega1)}
TABLE5 = {
    (4, 1):  {"mg": (1.17, 9, 9.2),   "mgcg": (1.30, 8, 9.3)},
    (4, 2):  {"mg": (0.99, 11, 11.0), "mgcg": (1.10, 10, 11.0)},
    (4, 4):  {"mg": (0.39, 26, 27.8), "mgcg": (0.59, 17, 20.5)},
    (4, 8):  {"mg": (0.12, 85, 91.2), "mgcg": (0.28, 36, 42.5)},
    (8, 1):  {"mg": (1.30, 8, 5.4),   "mgcg": (1.33, 8, 6.1)},
    (8, 2):  {"mg": (0.86, 12, 8.2),  "mgcg": (1.03, 8, 7.9)},
    (8, 4):  {"mg": (0.43, 24, 16.3), "mgcg": (0.65, 16, 12.5)},
    (8, 8):  {"mg": (0.16, 63, 43.9), "mgcg": (0.34, 30, 23.8)},
    (16, 1): {"mg": (1.37, 8, 4.9),   "mgcg": (1.55, 7, 5.1)},
    (16, 2): {"mg": (0.95, 11, 7.1),  "mgcg": (1.14, 9, 6.9)},
    (16, 4): {"mg": (0.50, 20, 13.5), "mgcg": (0.72, 14, 10.8)},
    (16, 8): {"mg": (0.17, 59, 39.9), "mgcg": (0.39, 26, 20.1)},
    (32, 1): {"mg": (1.87, 6, 3.6),   "mgcg": (2.01, 5, 3.8)},
    (32, 2): {"mg": (1.23, 9, 5.4),   "mgcg": (1.42, 8, 5.4)},
    (32, 4): {"mg": (0.65, 16, 10.3), "mgcg": (0.83, 12, 9.2)},
    (32, 8): {"mg": (0.22, 46, 30.4), "mgcg": (0.44, 23, 17.5)},
}


def _methods():
    return ([("add", w) for w in _WEIGHT_COLUMNS[:-1]] + [("mult", "w5")])


def preset_grid(name: str, full: bool = False) -> list[RunSpec]:
    """Expand a preset name into its deterministic list of run configurations."""
    specs: list[RunSpec] = []
    if name in ("table2", "table3"):
        rule = "fixed:1" if name == "table2" else "floorp8"
        for p in (4, 8, 16, 32):
            for smoother, weight in _methods():
                specs.append(RunSpec(solver="mg", smoother=smoother,
                                     weight=weight, p=p, n_x=8, n_y=8,
                                     overlap_rule=rule))
    elif name == "table4":
        for (p, root), _cols in TABLE4.items():
            if not full and root > 64:
                continue
            for smoother in ("add", "mult"):
                specs.append(RunSpec(solver="mg", smoother=smoother,
                                     weight="w5", p=p, n_x=root, n_y=root,
                                     overlap_rule="ceilp8"))
    elif name == "table5":
        for (p, ar) in TABLE5:
            for solver in ("mg", "mgcg"):
                specs.append(RunSpec(solver=solver, smoother="add",
                                     weight="w5", p=p, n_x=16, n_y=16,
                                     ar=float(ar), overlap_rule="ceilp8"))
    elif name == "fig3-diffusion":
        for nu_hat in [round(0.1 * i, 1) for i in range(10)]:
            for solver in ("mg", "mgcg"):
                specs.append(RunSpec(solver=solver, smoother="add",
                                     weight="w5", p=16, n_x=8, n_y=8,
                                     overlap_rule="ceilp8",
                                     n_pre=1, n_post=1, nu_hat=nu_hat))
    elif name == "fig4-diffusion-ar":
        # The source figure fixes the smoothing strategy but not the mesh
        # sizes; two quadrangulations per order show the mesh dependence.
        for p in (8, 16):
            for n in (8, 16):
                for ar in (1.0, 2.0, 4.0):
                    specs.append(RunSpec(solver="mgcg", smoother="add",
                                         weight="w5", p=p, n_x=n, n_y=n,
                                         ar=ar, overlap_rule="ceilp2",
                                         n_pre=1, n_post=1, cycle="var",
                                         nu_hat=0.9))
    else:
        raise ValueError(f"unknown preset {name!r}")
    return specs


def reference_rbar(name: str, spec: RunSpec) -> float | None:
    """Published mean convergence rate for one preset cell, if tabulated."""
    method = spec.weight if spec.smoother == "add" else "mult"
    if name == "table2":
        return TABLE2_RBAR[spec.p][_WEIGHT_COLUMNS.index(method)]
    if name == "table3":
        return TABLE3_RBAR[spec.p][_WEIGHT_COLUMNS.index(method)]
    if name == "table4":
        return TABLE4[(spec.p, spec.n_x)][method][0]
    if name == "table5":
        return TABLE5[(spec.p, int(spec.ar))][spec.solver][0]
    return None


def rbar_tolerance(ref: float) -> float:
    """Documented reproduction tolerance: +-0.15 absolute or 15% relative."""
    return max(0.15, 0.15 * abs(ref))


def run_preset(name: str, seeds: list[int], full: bool = False):
    """Execute every grid cell for every seed.

    Returns (records, summary) where summary holds one
    (spec, mean_rbar, reference_rbar, passed) tuple per cell: the seed-mean
    rate and, where a published value exists, that value and whether the
    mean lies within rbar_tolerance of it (both None otherwise).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    records: list[RunRecord] = []
    summary = []
    for spec in preset_grid(name, full=full):
        cell = [run_single(spec, seed) for seed in seeds]
        records.extend(cell)
        mean_rbar = sum(r.rbar for r in cell) / len(cell)
        ref = reference_rbar(name, spec)
        passed = (None if ref is None
                  else abs(mean_rbar - ref) <= rbar_tolerance(ref))
        summary.append((spec, mean_rbar, ref, passed))
    return records, summary


# ----------------------------------------------------------------------
# CSV / JSON emission

CSV_FIELDS = [f.name for f in fields(RunRecord)]


def _fmt(name: str, value):
    if value is None:
        return ""
    if name in ("rbar", "omega1"):
        return f"{value:.4g}"
    if name == "wallclock":
        return f"{value:.4f}"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def write_csv(records: list[RunRecord], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for rec in records:
        d = asdict(rec)
        writer.writerow([_fmt(name, d[name]) for name in CSV_FIELDS])


def _finite_or_none(value):
    # Strict JSON has no Infinity or NaN; an unbounded rate becomes null.
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def records_to_json(records: list[RunRecord]) -> str:
    return json.dumps([{k: _finite_or_none(v) for k, v in asdict(r).items()}
                       for r in records], indent=2)
