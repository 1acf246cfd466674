"""Tests of the benchmark itself: tracing changes no result, restores the
library as it found it, and the gate rejects wrong solutions.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from schwarzmg import krylov, multigrid, operators, presets, schwarz
from schwarzmg.krylov import SolveConfig
from schwarzmg.presets import RunSpec

import hostspeed
import layers
import run
from tracer import Tracer
from workloads import WORKLOADS, Workload, check_solve

ROOT = Path(__file__).resolve().parent.parent
MODULES = (krylov, multigrid, operators, presets, schwarz)

# Small cases with the structure of the workloads: additive MG on Poisson,
# multiplicative MGCG on variable diffusion.
SMALL = [
    RunSpec(solver="mg", smoother="add", weight="w5", p=8, n_x=4, n_y=4,
            overlap_rule="ceilp8"),
    RunSpec(solver="mgcg", smoother="mult", p=4, n_x=4, n_y=4,
            overlap_rule="ceilp8", n_pre=1, n_post=1, nu_hat=0.9),
]


def _module_attrs():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


@pytest.mark.parametrize("spec", SMALL, ids=["add-mg", "mult-mgcg"])
def test_tracing_changes_no_result_and_restores(spec):
    before = _module_attrs()
    cfg = SolveConfig(solver=spec.solver, seed=3)
    _, h, f, _ = presets.build_problem(spec)
    _, plain = krylov.solve(h, f, cfg)

    with Tracer() as tr_setup:
        layers.trace_setup(tr_setup)
        _, h2, f2, _ = presets.build_problem(spec)
    assert np.array_equal(f, f2)
    with Tracer() as tr:
        layers.trace_solve(tr, h2)
        _, traced = krylov.solve(h2, f2, cfg)

    assert traced.residuals == plain.residuals
    assert traced.cycles == plain.cycles
    assert _module_attrs() == before
    for lv in h2.levels:
        assert not {"apply", "element_kernel"} & vars(lv.op).keys()
        if lv.smoother is not None:
            assert "smooth" not in vars(lv.smoother)

    m = layers.solve_metrics(tr, h2.depth, 0)
    assert m["multigrid.coarse_cg_iters"] == m["operators.apply.calls.L0"] > 0
    assert m["schwarz.local_solves"] > 0
    kernel_calls = sum(m[f"operators.element_kernel.calls.L{l}"]
                       for l in range(1, h2.depth + 1))
    assert (kernel_calls > 0) == (spec.smoother == "mult")
    assert all(v > 0 for v in layers.setup_metrics(tr_setup).values())


def test_restore_after_exception_and_self_time():
    calls = []

    def inner():
        calls.append(1)

    def outer():
        ns.inner()
        ns.inner()
        raise RuntimeError("boom")

    ns = SimpleNamespace(inner=inner, outer=outer)
    with pytest.raises(RuntimeError):
        with Tracer() as tr:
            tr.wrap(ns, "inner", "inner")
            tr.wrap(ns, "outer", "outer", level=7)
            ns.outer()
    assert ns.inner is inner and ns.outer is outer
    st = tr.stats()
    assert st[("inner", None)].calls == 2
    assert tr.child_calls("inner", "outer") == 2
    o = st[("outer", 7)]
    assert o.self_s == pytest.approx(o.total_s - st[("inner", None)].total_s,
                                     abs=1e-12)


def test_gate_rejects_a_wrong_solution():
    spec = RunSpec(solver="mg", smoother="add", weight="w5", p=4,
                   n_x=32, n_y=32, overlap_rule="ceilp8")
    w = Workload("t", "t", spec, table="table4", max_error=1e-8)
    _, h, f, u_exact = presets.build_problem(spec)
    report = SimpleNamespace(converged=False, cycles=0, rbar=0.5)
    faults = check_solve(w, h, f, u_exact, np.zeros_like(f), report, seed=1)
    assert len(faults) == 4


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {w.name: w.why for w in WORKLOADS.values()}


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coarse-p4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_host_speed_timer_changes_no_result_and_restores():
    spec = SMALL[0]
    cfg = SolveConfig(solver=spec.solver, seed=3)
    _, h, f, _ = presets.build_problem(spec)
    _, plain = krylov.solve(h, f, cfg)
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Timed(hostspeed.Reference()) as t:
        _, timed = krylov.solve(h, f, cfg)
    assert timed.residuals == plain.residuals
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(t.slices) >= 2 * hostspeed.BRACKET
    assert 0 < t.own_s <= t.wall_s
    assert t.scaled_s == pytest.approx(
        t.own_s * hostspeed.REF_SLICE_S / t.slice_s)
