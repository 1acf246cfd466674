"""Per-layer tracing of the schwarzmg library from the outside, and the
per-layer metrics derived from the spans and from array sizes.

Layers are the library's modules. Module-level functions are wrapped
where their callers look them up (``from x import f`` binds ``f`` in the
caller's module), per-level methods on the hierarchy's own instances.
Level-indexed times are reported for the top level (``.top``), for the
levels between it and the coarse level (``.below``) and, for the
operator, for the coarse level (``.L0``), so every workload has every
time metric; counts are per level (``.L<l>``, 0 = the p=1 level).
"""

import statistics

from schwarzmg import krylov, multigrid, operators, presets, schwarz
from schwarzmg.metrics import cycle_cost

from tracer import Tracer
from workloads import WORKLOADS

# Deepest level of any workload's hierarchy; level l has order 2^l.
MAX_LEVEL = max(w.spec.p for w in WORKLOADS.values()).bit_length() - 1
LEVELS = range(MAX_LEVEL + 1)
_BYTES = 8  # float64 and int64


def trace_setup(tr: Tracer):
    """Wrap the calls that build a problem (hierarchy plus right side)."""
    tr.wrap(presets, "build_problem", "presets.build_problem")
    tr.wrap(presets, "build_hierarchy", "multigrid.build_hierarchy")
    tr.wrap(presets, "poisson_benchmark", "operators.rhs")
    tr.wrap(presets, "manufactured_rhs_diffusion", "operators.rhs")
    tr.wrap(multigrid, "gll_basis", "basis.gll_basis")
    tr.wrap(multigrid, "interp_matrix", "basis.interp_matrix")
    tr.wrap(schwarz, "build_fast_diag", "schwarz.build_fast_diag")


def trace_solve(tr: Tracer, h):
    """Wrap the calls a solve on hierarchy ``h`` makes into each layer."""
    tr.wrap(krylov, "solve", "krylov.solve")
    tr.wrap(krylov, "v_cycle", "multigrid.v_cycle")
    tr.wrap(multigrid, "restrict_residual", "multigrid.restrict",
            level=lambda a: a[1])
    tr.wrap(multigrid, "prolongate", "multigrid.prolongate",
            level=lambda a: a[1])
    tr.wrap(multigrid, "coarse_solve", "multigrid.coarse_solve")
    tr.wrap(operators, "scatter_blocks", "mesh.scatter_blocks")
    n_el = h.mesh.n_el
    for lv in h.levels:
        tr.wrap(lv.op, "apply", "operators.apply", level=lv.l)
        tr.wrap(lv.op, "element_kernel", "operators.element_kernel",
                level=lv.l)
        if lv.smoother is not None:
            # One subdomain per element, solved n_it times per call.
            tr.wrap(lv.smoother, "smooth", "schwarz.smooth", level=lv.l,
                    count=lambda a: a[3] * n_el)


PER_LAYER = (
    [("multigrid.coarse_solve.s", "s"),
     ("multigrid.coarse_solve.self_s", "s"),
     ("multigrid.coarse_cg_iters", "count"),
     ("multigrid.coarse_cg_exhausted", "count")]
    + [(f"multigrid.{k}.s.{g}", "s")
       for k in ("prolongate", "restrict") for g in ("top", "below")]
    + [("multigrid.transfer_bytes", "B")]
    + [(f"operators.apply.s.{g}", "s") for g in ("L0", "below", "top")]
    + [(f"operators.apply.calls.L{l}", "count") for l in LEVELS]
    + [("mesh.scatter_blocks.s", "s")]
    + [(f"schwarz.smooth.{k}.{g}", "s")
       for k in ("s", "self_s") for g in ("below", "top")]
    + [(f"schwarz.smooth.calls.L{l}", "count") for l in LEVELS[1:]]
    + [("schwarz.local_solves", "count")]
    + [(f"operators.element_kernel.calls.L{l}", "count")
       for l in LEVELS[1:]]
    + [("krylov.solve.self_s", "s"),
       ("multigrid.v_cycle.self_s", "s"),
       ("schwarz.build_fast_diag.s", "s"),
       ("basis.gll_basis.s", "s"),
       ("basis.interp_matrix.s", "s"),
       ("multigrid.build_hierarchy.self_s", "s"),
       ("operators.rhs.s", "s"),
       ("multigrid.cycle_cost.measured", "applies"),
       ("multigrid.cycle_cost.model", "applies")]
    + [(f"operators.apply.{k}.L{l}", u)
       for k, u in (("flops", "flop"), ("bytes", "B")) for l in LEVELS]
    + [("trace.overhead", "ratio")]
)


def _sum(stats: dict, name: str, levels=None, field: str = "total_s"):
    return sum(getattr(st, field) for (n, l), st in stats.items()
               if n == name and (levels is None or l in levels))


def setup_metrics(tr: Tracer) -> dict:
    st = tr.stats()
    return {
        "schwarz.build_fast_diag.s": _sum(st, "schwarz.build_fast_diag"),
        "basis.gll_basis.s": _sum(st, "basis.gll_basis"),
        "basis.interp_matrix.s": _sum(st, "basis.interp_matrix"),
        "multigrid.build_hierarchy.self_s":
            _sum(st, "multigrid.build_hierarchy", field="self_s"),
        "operators.rhs.s": _sum(st, "operators.rhs"),
    }


def solve_metrics(tr: Tracer, depth: int, exhausted: int) -> dict:
    """Metrics of one traced solve on a hierarchy of the given depth."""
    st = tr.stats()
    top, below = {depth}, set(range(1, depth))
    m = {
        "multigrid.coarse_solve.s": _sum(st, "multigrid.coarse_solve"),
        "multigrid.coarse_solve.self_s":
            _sum(st, "multigrid.coarse_solve", field="self_s"),
        "multigrid.coarse_cg_iters":
            tr.child_calls("operators.apply", "multigrid.coarse_solve"),
        "multigrid.coarse_cg_exhausted": exhausted,
        "operators.apply.s.L0": _sum(st, "operators.apply", {0}),
        "operators.apply.s.below": _sum(st, "operators.apply", below),
        "operators.apply.s.top": _sum(st, "operators.apply", top),
        "mesh.scatter_blocks.s": _sum(st, "mesh.scatter_blocks"),
        "schwarz.local_solves": _sum(st, "schwarz.smooth", field="count"),
        "krylov.solve.self_s": _sum(st, "krylov.solve", field="self_s"),
        "multigrid.v_cycle.self_s":
            _sum(st, "multigrid.v_cycle", field="self_s"),
    }
    for g, lv in (("top", top), ("below", below)):
        for k in ("prolongate", "restrict"):
            m[f"multigrid.{k}.s.{g}"] = _sum(st, f"multigrid.{k}", lv)
        m[f"schwarz.smooth.s.{g}"] = _sum(st, "schwarz.smooth", lv)
        m[f"schwarz.smooth.self_s.{g}"] = _sum(st, "schwarz.smooth", lv,
                                               "self_s")
    for l in LEVELS:
        m[f"operators.apply.calls.L{l}"] = _sum(st, "operators.apply", {l},
                                                "calls")
        if l:
            m[f"schwarz.smooth.calls.L{l}"] = _sum(st, "schwarz.smooth", {l},
                                                   "calls")
            m[f"operators.element_kernel.calls.L{l}"] = _sum(
                st, "operators.element_kernel", {l}, "calls")
    return m


def table(tr: Tracer) -> list[dict]:
    """Calls, total and self time of every traced (span, level)."""
    return [{"name": name, "level": lvl, "calls": st.calls,
             "total_s": st.total_s, "self_s": st.self_s}
            for (name, lvl), st in sorted(tr.stats().items(),
                                          key=lambda kv: (kv[0][0],
                                                          kv[0][1] or 0))]


def mean_top_apply_s(tr: Tracer, depth: int) -> float:
    st = tr.stats()[("operators.apply", depth)]
    return st.total_s / st.calls


def apply_cost(op) -> tuple[int, int]:
    """Computed flops and bytes of one operator application.

    Flops count the sum-factorized contractions (2 n^3 per element and
    1D contraction), the pointwise products and sums, and the scatter-add.
    Bytes assume each numpy step reads its operands and writes its result
    once, with B = n_el n^2 gathered values and N unique nodes:
    Poisson 15 B + N, diffusion 25 B + N. Cache reuse is ignored.
    """
    n = op.basis.p + 1
    n_el = op.mesh.n_el
    b = n_el * n * n
    N = op.layout.size
    if isinstance(op, operators.DiffusionOperator):
        return 8 * n**3 * n_el + 6 * b, _BYTES * (25 * b + N)
    return 4 * n**3 * n_el + 4 * b, _BYTES * (15 * b + N)


def static_metrics(h, spec) -> dict:
    """Metrics computed from the hierarchy's array sizes and the cost model."""
    rule = multigrid.OverlapRule.parse(spec.overlap_rule)
    _, _, ratio = cycle_cost(spec.p, h.mesh.n_el, rule.layers(spec.p),
                             spec.n_pre + spec.n_post,
                             variable=(spec.cycle == "var"),
                             with_cg=(spec.solver == "mgcg"))
    m = {"multigrid.cycle_cost.model": ratio,
         "multigrid.transfer_bytes": sum(lv.px.nbytes + lv.py.nbytes
                                         for lv in h.levels[1:])}
    for l in LEVELS:
        flops, nbytes = (apply_cost(h.levels[l].op) if l <= h.depth
                         else (0, 0))
        m[f"operators.apply.flops.L{l}"] = flops
        m[f"operators.apply.bytes.L{l}"] = nbytes
    return m


def median_metrics(runs: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
