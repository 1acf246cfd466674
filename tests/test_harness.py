"""Tests for the benchmark presets, record serialization and the CLI."""

import dataclasses
import io
import json
import math

import pytest

from schwarzmg import cli, krylov, presets
from schwarzmg.presets import (RunSpec, preset_grid, read_csv,
                               records_to_json, reference_rbar,
                               rbar_tolerance, run_single, write_csv)

FAST_SPEC = RunSpec(solver="mg", smoother="add", weight="w5", p=4,
                    n_x=4, n_y=4, overlap_rule="fixed:1",
                    tol=1e4, max_cycles=30)


def records_to_csv(records):
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()


def test_run_single_record_fields():
    rec = run_single(FAST_SPEC, seed=1)
    assert rec.converged
    assert rec.solver == "mg" and rec.weight == "w5" and rec.seed == 1
    assert rec.rbar > 0 and rec.n10 > 0 and rec.omega1 > 0
    assert 0 < rec.cycles <= 30
    assert rec.nu_hat is None and rec.shift_s is None


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


def test_csv_round_trip_is_stable():
    recs = [run_single(FAST_SPEC, seed=s) for s in (1, 2)]
    text = records_to_csv(recs)
    parsed = read_csv(io.StringIO(text))
    assert len(parsed) == 2
    assert records_to_csv(parsed) == text
    assert text.splitlines()[0] == ",".join(presets.CSV_FIELDS)
    assert "\r" not in text


def test_records_carry_coarse_cap_hits():
    rec = run_single(FAST_SPEC, seed=1)
    assert rec.coarse_cg_exhausted == 0
    hit = dataclasses.replace(rec, coarse_cg_exhausted=7)
    [back] = read_csv(io.StringIO(records_to_csv([hit])))
    assert back.coarse_cg_exhausted == 7
    assert json.loads(records_to_json([hit]))[0]["coarse_cg_exhausted"] == 7


def test_records_carry_breakdown():
    rec = run_single(FAST_SPEC, seed=1)
    assert rec.breakdown is False
    hit = dataclasses.replace(rec, breakdown=True, converged=False)
    [back] = read_csv(io.StringIO(records_to_csv([hit])))
    assert back.breakdown is True and back.converged is False
    assert records_to_csv([back]) == records_to_csv([hit])
    assert json.loads(records_to_json([hit]))[0]["breakdown"] is True


def test_run_single_records_an_mgcg_breakdown(monkeypatch):
    # A zero correction gives p^T A p = 0: MGCG stops with a breakdown.
    monkeypatch.setattr(krylov, "v_cycle", lambda h, r, cycle: 0.0 * r)
    rec = run_single(dataclasses.replace(FAST_SPEC, solver="mgcg"), seed=1)
    assert rec.breakdown and not rec.converged


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


def test_cli_solve_nonconvergence_exit_code(capsys):
    rc = cli.main(["solve", "--p", "4", "--nel", "4", "--max-cycles", "1"])
    capsys.readouterr()
    assert rc == 2


def test_cli_solve_json_format(capsys):
    rc = cli.main(["solve", "--p", "4", "--nel", "4,4", "--tol", "1e4",
                   "--max-cycles", "30", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)[0]["converged"] is True
    assert json.loads(out)[0]["coarse_cg_exhausted"] == 0


def test_cli_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])                      # missing --p
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--name", "table9"])  # unknown preset
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_bad_order_is_one_line_error(capsys):
    rc = cli.main(["solve", "--p", "3", "--nel", "4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert "power of two" in err


@pytest.mark.parametrize("args", [["--overlap", "bogus"], ["--tol", "1"],
                                  ["--p", "4", "--nel", "2",
                                   "--overlap", "fixed:2"],
                                  ["--tol", "nan"], ["--ar", "inf"],
                                  ["--ar", "nan"],
                                  ["--nu-hat", "0.5", "--nu-shift", "nan"],
                                  ["--pre", "-1"], ["--post", "-1"],
                                  ["--tol", "inf"],
                                  ["--p", "4", "--overlap", "fixed:-2"]])
def test_cli_bad_values_are_one_line_errors(capsys, args):
    rc = cli.main(["solve", "--p", "2", "--nel", "4", *args])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("schwarzmg: error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [["--tol", "1"], ["--max-cycles", "0"],
                                  ["--tol", "nan"]])
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
    parsed = read_csv(io.StringIO(out.read_text()))
    assert [r.seed for r in parsed] == [1, 2]
    assert [r.coarse_cg_exhausted for r in parsed] == [0, 0]


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
    assert len(read_csv(io.StringIO(out.read_text()))) == 2
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
    records = read_csv(io.StringIO(out.read_text()))
    assert [r.converged for r in records] == [True, False]
