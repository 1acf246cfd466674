"""Tests for the benchmark presets, record serialization and the CLI."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import schwarzmg

from schwarzmg import cli, krylov, presets
from schwarzmg.metrics import cycle_cost
from schwarzmg.presets import (RunSpec, preset_grid, records_to_json,
                               reference_rbar, rbar_tolerance, run_single,
                               write_csv)

FAST_SPEC = RunSpec(solver="mg", smoother="add", weight="w5", p=4,
                    n_x=4, n_y=4, overlap_rule="fixed:1",
                    tol=1e4, max_cycles=30)


def records_to_csv(records):
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()


def csv_rows(text):
    """The rows of a written CSV, each a dict of column name to cell string."""
    return list(csv.DictReader(io.StringIO(text)))


def test_numpy_is_the_only_runtime_dependency():
    # numpy and the submodules the package may use load first; the solver
    # and the CLI may then add no top-level module outside the standard
    # library but their own.
    script = """
import sys
import numpy, numpy.fft, numpy.linalg, numpy.polynomial, numpy.random
before = {name.partition(".")[0] for name in sys.modules}
import schwarzmg, schwarzmg.cli
from schwarzmg.presets import RunSpec, run_single
rec = run_single(RunSpec(solver="mgcg", smoother="mult", weight="w5", p=4,
                         n_x=4, n_y=4, overlap_rule="fixed:1", nu_hat=0.9,
                         tol=1e4, max_cycles=30), seed=1)
assert rec.converged
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""
    src = str(Path(schwarzmg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["schwarzmg"]


def test_run_single_record_fields():
    for smoother in ("add", "mult"):
        spec = dataclasses.replace(FAST_SPEC, smoother=smoother)
        rec = run_single(spec, seed=1)
        assert rec.converged and rec.seed == 1
        assert rec.rbar > 0 and rec.n10 > 0 and rec.omega1 > 0
        assert 0 < rec.cycles <= 30
        # The record holds the spec that ran; "mult" blanks only the weight.
        ran = {f.name: getattr(rec, f.name)
               for f in dataclasses.fields(RunSpec)}
        want = dataclasses.asdict(spec)
        if smoother == "mult":
            want["weight"] = ""
        assert ran == want


def test_run_single_deterministic_except_wallclock():
    r1 = run_single(FAST_SPEC, seed=2)
    r2 = run_single(FAST_SPEC, seed=2)
    d1, d2 = dataclasses.asdict(r1), dataclasses.asdict(r2)
    d1.pop("wallclock"), d2.pop("wallclock")
    assert d1 == d2


def test_multiplicative_record_blanks_weight_column():
    spec = dataclasses.replace(FAST_SPEC, smoother="mult")
    rec = run_single(spec, seed=1)
    assert rec.weight == ""


def test_p2_multiplicative_record_costs_its_cycle_without_overlap():
    # The p = 2 multiplicative smoother takes n_o = 0 (OverlapRule.layers),
    # and the recorded omega1 prices the cycle with the same n_o.
    spec = dataclasses.replace(FAST_SPEC, smoother="mult", p=2)
    rec = run_single(spec, seed=1)
    _, _, ratio = cycle_cost(2, 16, 0, 1)
    assert rec.omega1 == pytest.approx(ratio / rec.rbar, rel=1e-15)


def test_csv_round_trip_is_stable():
    recs = [run_single(FAST_SPEC, seed=s) for s in (1, 2)]
    text = records_to_csv(recs)
    rows = csv_rows(text)
    assert [row["seed"] for row in rows] == ["1", "2"]
    for rec, row in zip(recs, rows):
        assert row["nu_hat"] == "" and row["converged"] == "true"
        assert row["weight"] == "w5" and row["overlap_rule"] == "fixed:1"
        assert row["cycles"] == str(rec.cycles)
        assert row["rbar"] == f"{rec.rbar:.4g}"
        assert row["wallclock"] == f"{rec.wallclock:.4f}"
    assert text.splitlines()[0].split(",") == [
        "solver", "smoother", "weight", "p", "n_x", "n_y", "ar",
        "overlap_rule", "n_pre", "n_post", "cycle", "tol", "max_cycles",
        "nu_hat", "seed", "cycles", "rbar", "n10", "omega1", "converged",
        "stop", "wallclock", "coarse_cg_exhausted"]
    assert "\r" not in text


def test_records_carry_coarse_cap_hits():
    rec = run_single(FAST_SPEC, seed=1)
    assert rec.coarse_cg_exhausted == 0
    hit = dataclasses.replace(rec, coarse_cg_exhausted=7)
    [back] = csv_rows(records_to_csv([hit]))
    assert back["coarse_cg_exhausted"] == "7"
    assert json.loads(records_to_json([hit]))[0]["coarse_cg_exhausted"] == 7


@pytest.mark.parametrize("stop", ["converged", "non-finite", "breakdown",
                                  "cap"])
def test_records_carry_the_stop(stop):
    rec = run_single(FAST_SPEC, seed=1)
    assert rec.stop == "converged"
    hit = dataclasses.replace(rec, stop=stop, converged=stop == "converged")
    [back] = csv_rows(records_to_csv([hit]))
    assert back["stop"] == stop
    assert back["converged"] == ("true" if stop == "converged" else "false")
    assert json.loads(records_to_json([hit]))[0]["stop"] == stop


def test_run_single_records_an_mgcg_breakdown(monkeypatch):
    # A zero correction gives p^T A p = 0: MGCG stops with a breakdown.
    monkeypatch.setattr(krylov, "v_cycle", lambda h, r, cycle, ws: 0.0 * r)
    rec = run_single(dataclasses.replace(FAST_SPEC, solver="mgcg"), seed=1)
    assert rec.stop == "breakdown" and not rec.converged


def test_run_single_rejects_an_unknown_cycle_before_setup(monkeypatch):
    def no_setup(spec):
        raise AssertionError("set-up ran before the cycle was checked")

    monkeypatch.setattr(presets, "build_problem", no_setup)
    with pytest.raises(ValueError, match="unknown cycle 'bogus'"):
        run_single(dataclasses.replace(FAST_SPEC, cycle="bogus"), 1)


def test_json_emission_parses():
    rec = run_single(FAST_SPEC, seed=1)
    data = json.loads(records_to_json([rec]))
    assert data[0]["p"] == 4 and data[0]["seed"] == 1


def test_json_emits_nonfinite_rates_as_null():
    rec = dataclasses.replace(run_single(FAST_SPEC, seed=1), rbar=math.inf)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(records_to_json([rec]), parse_constant=reject)
    assert data[0]["rbar"] is None
    assert data[0]["p"] == 4


def test_preset_grid_shapes():
    assert len(preset_grid("table2")) == 28   # 4 orders x 7 methods
    assert len(preset_grid("table3")) == 28
    # Default table4 caps the mesh at 64^2 elements.
    t4 = preset_grid("table4")
    assert len(t4) == 28
    assert max(s.n_x for s in t4) == 64
    assert max(s.n_x for s in preset_grid("table4", full=True)) == 256
    t5 = preset_grid("table5")
    assert len(t5) == 32
    assert sorted({s.ar for s in t5}) == [1.0, 2.0, 4.0, 8.0]
    assert {s.solver for s in t5} == {"mg", "mgcg"}
    f3 = preset_grid("fig3-diffusion")
    assert len(f3) == 20
    assert sorted({s.nu_hat for s in f3})[-1] == pytest.approx(0.9)
    assert all(s.n_pre == 1 and s.n_post == 1 for s in f3)
    with pytest.raises(ValueError):
        preset_grid("table9")


def test_reference_rbar_lookup():
    spec = RunSpec(smoother="add", weight="w5", p=8, overlap_rule="fixed:1")
    assert reference_rbar("table2", spec) == pytest.approx(1.29)
    spec = RunSpec(smoother="mult", p=32, overlap_rule="floorp8")
    assert reference_rbar("table3", spec) == pytest.approx(1.56)
    spec = RunSpec(solver="mgcg", p=8, n_x=16, n_y=16, ar=8.0)
    assert reference_rbar("table5", spec) == pytest.approx(0.34)
    spec = RunSpec(nu_hat=0.5)
    assert reference_rbar("fig3-diffusion", spec) is None


def test_rbar_tolerance_floor_and_relative():
    assert rbar_tolerance(0.4) == pytest.approx(0.15)
    assert rbar_tolerance(2.0) == pytest.approx(0.30)


# ----------------------------------------------------------------------
# CLI

def test_cli_solve_emits_csv_and_exits_zero(capsys):
    rc = cli.main(["solve", "--p", "4", "--nel", "4", "--tol", "1e4",
                   "--max-cycles", "30", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "solver"
    assert row.split(",")[0] == "mg"


def test_cli_solve_defaults_are_runspec_and_solveconfig_defaults(capsys,
                                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_single", lambda spec, seed: calls.append(
        (spec, seed)) or run_single(FAST_SPEC, seed))
    assert cli.main(["solve", "--p", "4"]) == 0
    capsys.readouterr()
    assert calls == [(RunSpec(p=4), krylov.SolveConfig().seed)]


def test_cli_solve_flags_store_into_the_runspec_fields(capsys, monkeypatch):
    # Every flag set to a value other than its default hands run_single
    # the spec built directly, so a flag stored under a wrong name fails.
    calls = []
    monkeypatch.setattr(cli, "run_single", lambda spec, seed: calls.append(
        (spec, seed)) or run_single(FAST_SPEC, seed))
    want = RunSpec(solver="mgcg", smoother="mult", weight="w3", p=16, n_x=6,
                   n_y=5, ar=2.5, overlap_rule="ceilp2", n_pre=2, n_post=3,
                   cycle="var", tol=1e6, max_cycles=17, nu_hat=0.3)
    assert all(getattr(want, f.name) != getattr(RunSpec(), f.name)
               for f in dataclasses.fields(RunSpec))
    assert cli.main(["solve", "--solver", "mgcg", "--smoother", "mult",
                     "--weight", "w3", "--p", "16", "--nel", "6,5",
                     "--ar", "2.5", "--overlap", "ceilp2", "--pre", "2",
                     "--post", "3", "--cycle", "var", "--tol", "1e6",
                     "--max-cycles", "17", "--seed", "4", "--nu-hat", "0.3",
                     "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == [(want, 4)]


def test_cli_solve_nonconvergence_exit_code(capsys):
    rc = cli.main(["solve", "--p", "4", "--nel", "4", "--max-cycles", "1"])
    capsys.readouterr()
    assert rc == 2


def test_cli_solve_json_format(capsys):
    rc = cli.main(["solve", "--p", "4", "--nel", "4,4", "--tol", "1e4",
                   "--max-cycles", "30", "--cycle", "var", "--format", "json"])
    [rec] = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rec["converged"] is True and rec["stop"] == "converged"
    assert rec["coarse_cg_exhausted"] == 0
    assert rec["tol"] == 1e4 and rec["max_cycles"] == 30
    assert rec["cycle"] == "var"


def test_cli_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])                      # missing --p
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--name", "table9"])  # unknown preset
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_nel_with_three_counts_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--p", "2", "--nel", "4,4,4"])
    assert exc.value.code == 1
    assert "--nel expects nx or nx,ny" in capsys.readouterr().err


def test_cli_bad_order_is_one_line_error(capsys):
    rc = cli.main(["solve", "--p", "3", "--nel", "4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert "power of two" in err


def test_cli_extreme_aspect_ratio_is_one_line_error(capsys):
    # At ar = 1e40 and beyond the p=1 operator's factors overflow float32
    # when the hierarchy casts them, before any solve; the error names the
    # level and ends the run with exit 1, with no numpy warning.
    for ar in ("1e40", "1e200"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["solve", "--p", "4", "--nel", "4", "--ar", ar])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [
            "schwarzmg: error: multigrid level 0 of the p=4 hierarchy: "
            "operator factors exceed the float32 range"]


@pytest.mark.parametrize("nel", ["4,x", "x", "4,", "", "1.5"])
def test_cli_malformed_nel_names_the_option(capsys, nel):
    # A count that is not an integer is reported under --nel's own
    # message, after the usage line, not as a value of a private function.
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--p", "2", "--nel", nel])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.splitlines()[-1] == (
        "schwarzmg solve: error: argument --nel: --nel expects nx or nx,ny")


@pytest.mark.parametrize("args", [["--overlap", "bogus"], ["--tol", "1"],
                                  ["--p", "4", "--nel", "2",
                                   "--overlap", "fixed:2"],
                                  ["--tol", "nan"], ["--ar", "inf"],
                                  ["--ar", "nan"],
                                  ["--p", "4", "--nel", "8",
                                   "--overlap", "fixed:100"],
                                  ["--pre", "-1"], ["--post", "-1"],
                                  ["--pre", "0", "--post", "0"],
                                  ["--tol", "inf"],
                                  ["--p", "4", "--overlap", "fixed:-2"]])
def test_cli_bad_values_are_one_line_errors(capsys, args):
    rc = cli.main(["solve", "--p", "2", "--nel", "4", *args])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("schwarzmg: error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [["--tol", "1"], ["--max-cycles", "0"],
                                  ["--tol", "nan"], ["--seed", "-1"]])
def test_cli_bad_solve_settings_fail_before_setup(capsys, monkeypatch, args):
    def no_setup(spec):
        raise AssertionError("set-up ran before the solve settings were checked")

    monkeypatch.setattr(presets, "build_problem", no_setup)
    rc = cli.main(["solve", "--p", "32", "--nel", "64", *args])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("schwarzmg: error: ")


def test_cli_table_without_seeds_is_one_line_error(tmp_path, capsys,
                                                  monkeypatch):
    def no_run(spec, seed=0):
        raise AssertionError("a cell ran with an empty seed list")

    monkeypatch.setattr(presets, "run_single", no_run)
    out = tmp_path / "none.csv"
    rc = cli.main(["table", "--name", "table2", "--seeds", ",",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("schwarzmg: error: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["1,x", "a", "1.5", "1,2,"])
def test_cli_table_non_integer_seeds_is_one_line_error(seeds, tmp_path,
                                                       capsys, monkeypatch):
    def no_run(spec, seed=0):
        raise AssertionError("a cell ran with a malformed seed list")

    monkeypatch.setattr(presets, "run_single", no_run)
    out = tmp_path / "bad.csv"
    rc = cli.main(["table", "--name", "table2", "--seeds", seeds,
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("schwarzmg: error: --seeds expects comma-separated "
                   f"integers, got {seeds!r}\n")
    assert not out.exists()


def test_cli_table_full_for_another_preset_is_one_line_error(
        tmp_path, capsys, monkeypatch):
    def no_run(spec, seed=0):
        raise AssertionError("a cell ran with --full on table2")

    monkeypatch.setattr(presets, "run_single", no_run)
    out = tmp_path / "full.csv"
    rc = cli.main(["table", "--name", "table2", "--full", "--format", "json",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "schwarzmg: error: --full applies only to table4\n"
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_cli_table_negative_seed_is_one_line_error_before_any_cell(
        tmp_path, capsys, monkeypatch):
    def no_run(spec, seed=0):
        raise AssertionError("a cell ran before the seeds were checked")

    monkeypatch.setattr(presets, "run_single", no_run)
    out = tmp_path / "neg.csv"
    rc = cli.main(["table", "--name", "table2", "--seeds", "1,-1",
                   "--format", "json", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "schwarzmg: error: seed must be >= 0, got -1\n"
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_cli_table_unwritable_out_is_one_line_error_before_any_cell(
        tmp_path, capsys, monkeypatch):
    def no_run(spec, seed=0):
        raise AssertionError("a cell ran before the output was opened")

    monkeypatch.setattr(presets, "run_single", no_run)
    # A missing directory for the CSV; a directory in the JSON's place.
    (tmp_path / "x.json").mkdir()
    for fmt, out in (("csv", tmp_path / "missing" / "x.csv"),
                     ("json", tmp_path / "x.csv")):
        rc = cli.main(["table", "--name", "table2", "--seeds", "1",
                       "--format", fmt, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("schwarzmg: error: ")
        assert len(err.splitlines()) == 1


def test_cli_table_json_out_is_one_line_error_before_any_cell(
        tmp_path, capsys, monkeypatch):
    # The JSON goes beside the CSV at --out with a .json suffix, so an --out
    # ending in .json would name both outputs.
    def no_run(spec, seed=0):
        raise AssertionError("a cell ran before the output paths were checked")

    monkeypatch.setattr(presets, "run_single", no_run)
    out = tmp_path / "x.json"
    rc = cli.main(["table", "--name", "table2", "--seeds", "1",
                   "--format", "json", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"schwarzmg: error: --out {out} would be both the CSV "
                   "and the JSON\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_solve_deterministic_records(capsys):
    args = ["solve", "--p", "4", "--nel", "4", "--tol", "1e4",
            "--max-cycles", "30", "--seed", "3"]
    cli.main(args)
    first = capsys.readouterr().out
    cli.main(args)
    second = capsys.readouterr().out

    def strip_wallclock(text):
        head, row = text.strip().splitlines()
        idx = head.split(",").index("wallclock")
        cells = row.split(",")
        cells[idx] = ""
        return head, cells

    assert strip_wallclock(first) == strip_wallclock(second)


def test_cli_table_with_tiny_preset(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(presets, "preset_grid",
                        lambda name, full=False: [FAST_SPEC])
    out = tmp_path / "tiny.csv"
    rc = cli.main(["table", "--name", "table2", "--seeds", "1,2",
                   "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "wrote 2 records" in text
    assert "rbar=" in text
    rows = csv_rows(out.read_text())
    assert [r["seed"] for r in rows] == ["1", "2"]
    assert [r["coarse_cg_exhausted"] for r in rows] == ["0", "0"]


def test_cli_table_json_lands_next_to_csv_in_dotted_directory(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(presets, "preset_grid",
                        lambda name, full=False: [FAST_SPEC])
    out_dir = tmp_path / "runs.v2"
    out_dir.mkdir()
    rc = cli.main(["table", "--name", "table2", "--seeds", "1",
                   "--format", "json", "--out", str(out_dir / "table3")])
    capsys.readouterr()
    assert rc == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["table3", "table3.json"]
    assert not (tmp_path / "runs.json").exists()
    assert json.loads((out_dir / "table3.json").read_text())[0]["seed"] == 1


def test_cli_table_exits_two_when_a_cell_misses_its_published_rate(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(presets, "preset_grid",
                        lambda name, full=False: [FAST_SPEC, FAST_SPEC])
    monkeypatch.setattr(presets, "reference_rbar", lambda name, spec: 9.0)
    out = tmp_path / "tiny.csv"
    rc = cli.main(["table", "--name", "table2", "--seeds", "1",
                   "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 2
    # The CSV is written and every cell is reported before the exit.
    assert len(csv_rows(out.read_text())) == 2
    assert text.count("FAIL") == 2


def test_cli_table_exits_two_when_a_record_does_not_converge(
        tmp_path, capsys, monkeypatch):
    # fig3-diffusion has no published rates, so only convergence can fail it.
    stuck = dataclasses.replace(FAST_SPEC, tol=1e10, max_cycles=1)
    monkeypatch.setattr(presets, "preset_grid",
                        lambda name, full=False: [FAST_SPEC, stuck])
    out = tmp_path / "tiny.csv"
    rc = cli.main(["table", "--name", "fig3-diffusion", "--seeds", "1",
                   "--out", str(out)])
    capsys.readouterr()
    assert rc == 2
    rows = csv_rows(out.read_text())
    assert [r["converged"] for r in rows] == ["true", "false"]
