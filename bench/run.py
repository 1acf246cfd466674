"""Benchmark of the schwarzmg solver on one workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload coarse-p4 --seed 1 --seconds 30 --trace 0

The seed becomes ``SolveConfig.seed``, the random initial guess. For
``--seconds`` a run repeats one step, at least three times: build the
problem (hierarchy plus right-hand side), then solve it; each reported
time is a median over the steps. Untraced set-up and solve times are
scaled by the host's speed measured alongside them (see ``hostspeed``);
their wall times are printed and saved too. Every solve is checked (see
``workloads.check_solve``), and all solves of a run must give the same
residual history bit for bit.

``--trace 0`` reports the end-to-end metrics. With ``--trace 1`` a step
traces the set-up and follows the untraced solve with a traced one; the
run reports the per-layer metrics (medians over the traced steps, at
least one) and requires traced and untraced solves to give identical
residual histories.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run's
environment, metrics and per-solve times also go to
``.bench_out/<workload>-trace<0|1>.json``; a traced run writes the spans
of its first traced set-up and solve to ``.bench_out/<workload>-spans.csv``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads, fixed at or below nproc so runs do not compete for cores.
BLAS_THREADS = 1
MIN_REPS = 3        # set-up and solve pairs of an untraced run
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("cycle_s", "s"),
              ("cycles", "count"), ("rbar", "decades/cycle"),
              ("peak_rss_mb", "MB")]


def _repeat(step, budget_s: float, t_start: float, min_reps: int):
    """Call ``step`` at least ``min_reps`` times, then while one more call,
    at the median duration so far, still ends within the budget. Returns
    the last call's result; earlier ones are dropped to bound memory."""
    durations = []
    while (len(durations) < min_reps
           or time.perf_counter() - t_start + statistics.median(durations)
           <= budget_s):
        result = None
        t0 = time.perf_counter()
        result = step(len(durations))
        durations.append(time.perf_counter() - t0)
    return result


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes
    with open("/proc/self/maps") as maps:
        libs = [line.split()[-1] for line in maps if "openblas" in line]
    for path in libs[:1]:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_commit() -> str:
    """Commit of the checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "src_lines": src_lines,
            "git_commit": _git_commit(), "python": sys.version.split()[0]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from schwarzmg import krylov, presets
    from schwarzmg.krylov import SolveConfig

    import hostspeed
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, check_solve

    w = WORKLOADS[workload]
    spec = w.spec
    cfg = SolveConfig(solver=spec.solver, tol_reduction=spec.tol,
                      max_cycles=spec.max_cycles, seed=seed)
    t_start = time.perf_counter()
    ref = hostspeed.Reference()
    timer = hostspeed.Wall if trace else (lambda: hostspeed.Timed(ref))
    setup_t: list = []                 # timers of the set-ups
    solve_t: list = []                 # timers of the untraced solves
    setup_layers: list[dict] = []
    first_tracers: list[Tracer] = []   # first traced set-up and solve
    faults: list[str] = []
    histories: list[list[float]] = []
    traced_s: list[float] = []
    solve_layers: list[dict] = []
    top_apply_s: list[float] = []
    outcomes = []

    def setup(request: int):
        with Tracer(request=request) as tr, timer() as t:
            if trace:
                layers.trace_setup(tr)
            problem = presets.build_problem(spec)
        setup_t.append(t)
        if trace:
            setup_layers.append(layers.setup_metrics(tr))
            if not first_tracers:
                first_tracers.append(tr)
        return problem

    def solve(request: int, traced: bool, h, f, u_exact):
        exhausted = h.coarse_cg_exhausted
        with Tracer(request=request) as tr:
            if traced:
                layers.trace_solve(tr, h)
            with timer() as t:
                u, rep = krylov.solve(h, f, cfg)
        if traced:
            traced_s.append(t.wall_s)
            solve_layers.append(layers.solve_metrics(
                tr, h.depth, h.coarse_cg_exhausted - exhausted))
            top_apply_s.append(layers.mean_top_apply_s(tr, h.depth))
            if len(first_tracers) < 2:
                first_tracers.append(tr)
        else:
            solve_t.append(t)
        found = check_solve(w, h, f, u_exact, u, rep, seed)
        if histories and rep.residuals != histories[0]:
            found.append("residual history differs from the run's first solve")
        faults.extend(f"solve {request}: {fault}" for fault in found)
        histories.append(rep.residuals)
        outcomes.append((rep, bool(found)))

    def step(i):
        # A fresh problem for every solve spreads the set-up samples over
        # the whole run, like the solve samples.
        _, h, f, u_exact = setup(3 * i)
        solve(3 * i + 1, False, h, f, u_exact)
        if trace:
            solve(3 * i + 2, True, h, f, u_exact)
        return h

    h = _repeat(step, seconds, t_start, 1 if trace else MIN_REPS)
    cycles = outcomes[-1][0].cycles
    # Host-speed scaled seconds when untraced, wall seconds when traced.
    setup_s = [t.scaled_s for t in setup_t]
    solve_s = [t.scaled_s for t in solve_t]
    solve_med = statistics.median(solve_s)
    table = []
    if trace:
        table = [row for tr in first_tracers for row in layers.table(tr)]
        m = layers.median_metrics(setup_layers)
        m.update(layers.median_metrics(solve_layers))
        m.update(layers.static_metrics(h, spec))
        m["multigrid.cycle_cost.measured"] = (
            solve_med / cycles / statistics.median(top_apply_s))
        m["trace.overhead"] = statistics.median(traced_s) / solve_med
        units = dict(layers.PER_LAYER)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{workload}-spans.csv", "w") as out:
            for tr in first_tracers:
                tr.write_csv(out, t_origin=t_start)
    else:
        m = {"setup_s": statistics.median(setup_s), "solve_s": solve_med,
             "cycle_s": solve_med / cycles, "cycles": cycles,
             "rbar": outcomes[-1][0].rbar,
             "peak_rss_mb":
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)
    return {"correct": not faults, "attempted": len(outcomes),
            "failed": sum(bad for _, bad in outcomes),
            "metrics": {k: {"value": m[k], "unit": u}
                        for k, u in units.items()},
            "faults": faults, "setup_s": setup_s, "solve_s": solve_s,
            "setup_wall_s": [t.wall_s for t in setup_t],
            "solve_wall_s": [t.wall_s for t in solve_t],
            "slice_s": [t.slice_s for t in solve_t],
            "traced_s": traced_s, "layers": table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "schwarzmg" / "__init__.py").is_file():
        print(f"error: no schwarzmg sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import hostspeed
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("environment: " + json.dumps(env))
    if not args.trace:
        med = statistics.median
        print(f"host speed: reference slice "
              f"{med(result['slice_s']) * 1e3:.4f} ms (scale "
              f"{hostspeed.REF_SLICE_S * 1e3:.4f} ms); wall medians: setup "
              f"{med(result['setup_wall_s']):.4f} s, solve "
              f"{med(result['solve_wall_s']):.4f} s over "
              f"{len(result['solve_wall_s'])} solves")
    for fault in result["faults"]:
        print(f"FAILED {fault}")
    if result["layers"]:
        print(f"  {'span':32s} {'level':>5s} {'calls':>8s} "
              f"{'total_s':>10s} {'self_s':>10s}   (first traced set-up, solve)")
    for row in result["layers"]:
        print(f"  {row['name']:32s} {row['level']!s:>5s} {row['calls']:8d} "
              f"{row['total_s']:10.4f} {row['self_s']:10.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
