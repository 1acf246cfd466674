"""Tests for convergence-rate and work metrics."""

import math

import pytest

from schwarzmg.metrics import ConvergenceReport, cycle_cost


def _rate(residuals, stop="converged"):
    rep = ConvergenceReport(residuals, stop, 0.1)
    return rep.rbar, rep.n10


def test_convergence_rate_simple_histories():
    assert _rate([100.0, 1.0])[0] == pytest.approx(2.0)
    assert _rate([1.0, 0.1, 0.01])[0] == pytest.approx(1.0)
    # Only the endpoints enter the average rate.
    assert _rate([10.0, 123.0, 1.0])[0] == pytest.approx(0.5)
    # A breakdown after a reducing step keeps the rate of that step.
    assert _rate([1.0, 0.01], "breakdown")[0] == pytest.approx(2.0)


def test_convergence_rate_of_a_solve_that_did_not_reduce():
    # No reduction or a growth: a rate of 0 or below, and no n10.
    assert _rate([1.0, 1.0], "cap") == (0.0, -1)
    assert _rate([1.0, 10.0], "cap") == (pytest.approx(-1.0), -1)


@pytest.mark.parametrize("last", [math.inf, math.nan])
def test_convergence_rate_of_a_non_finite_solve(last):
    # An overflowed or NaN final norm is a divergence, never a NaN rate.
    rep = ConvergenceReport([1.0, 2.0, last], "non-finite", 0.1)
    assert rep.rbar == -math.inf and rep.n10 == -1
    assert rep.cycles == 2 and not rep.converged


def test_cycles_per_decade10():
    # n10 = ceil(10 / rbar) cycles for a 1e10 reduction at rate rbar.
    assert _rate([1.0, 10.0**-1.29], "cap")[1] == 8
    assert _rate([1.0, 1e-2], "cap")[1] == 5
    assert _rate([1.0, 10.0**-0.16], "cap")[1] == 63
    assert _rate([1.0, 0.0])[1] == 0


def test_cycle_cost_hand_computed():
    # p=8, one subdomain layer, one smoothing step, classical V-cycle:
    # bracket = 4 (1 + 2/9)^3 (4/3) + 2 (4/3).
    w_cyc, w_op, ratio = cycle_cost(8, 64, 1, 1)
    n_p = 9
    bracket = 4 * (1 + 2 / 9) ** 3 * (4 / 3) + 8 / 3
    assert w_op == pytest.approx(2 * n_p**3 * 64)
    assert w_cyc == pytest.approx(bracket * n_p**3 * 64)
    assert ratio == pytest.approx(bracket / 2)


def test_cycle_cost_variable_and_cg_terms():
    _, _, base = cycle_cost(8, 64, 1, 1)
    _, _, with_cg = cycle_cost(8, 64, 1, 1, with_cg=True)
    assert with_cg == pytest.approx(base + 1.0)
    _, _, var = cycle_cost(8, 64, 1, 1, variable=True)
    assert var > base


def test_convergence_report_rates():
    rep = ConvergenceReport([1e3, 1e1, 1e-1, 1e-3], "converged", 0.1)
    assert rep.cycles == 3 and rep.converged
    assert rep.rbar == pytest.approx(2.0)
    assert rep.n10 == 5
    assert rep.stop == "converged"


def test_convergence_report_exact_solve():
    rep = ConvergenceReport([1.0, 0.0], "converged", 0.1)
    assert math.isinf(rep.rbar)
    assert rep.n10 == 0
    rep = ConvergenceReport([0.0], "converged", 0.1)
    assert rep.cycles == 0
    assert math.isinf(rep.rbar)
    assert rep.n10 == 0


def test_convergence_report_of_a_solve_stopped_before_its_first_cycle():
    # A nonzero residual with no cycle taken was not reduced at all.
    rep = ConvergenceReport([1.0], "breakdown", 0.1)
    assert rep.cycles == 0 and not rep.converged
    assert rep.rbar == 0.0
    assert rep.n10 == -1
