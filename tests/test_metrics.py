"""Tests for convergence-rate and work metrics."""

import math

import pytest

from schwarzmg.metrics import (ConvergenceReport, convergence_rate,
                               cycle_cost, cycles_per_decade10,
                               work_per_decades)


def test_convergence_rate_simple_histories():
    assert convergence_rate([100.0, 1.0]) == pytest.approx(2.0)
    assert convergence_rate([1.0, 0.1, 0.01]) == pytest.approx(1.0)
    # Only the endpoints enter the average rate.
    assert convergence_rate([10.0, 123.0, 1.0]) == pytest.approx(0.5)
    # An overflowed final norm is a divergence, not a domain error.
    assert convergence_rate([1.0, 2.0, math.inf]) == -math.inf


def test_convergence_rate_validation():
    with pytest.raises(ValueError):
        convergence_rate([1.0])
    with pytest.raises(ValueError):
        convergence_rate([1.0, 0.0])


def test_cycles_per_decade10():
    assert cycles_per_decade10(1.29) == 8
    assert cycles_per_decade10(2.0) == 5
    assert cycles_per_decade10(0.16) == 63
    assert cycles_per_decade10(math.inf) == 0
    with pytest.raises(ValueError):
        cycles_per_decade10(0.0)


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


def test_work_per_decades():
    assert work_per_decades(10.0, 2.0, 6.0) == pytest.approx(30.0)
    assert work_per_decades(1.0, 1.25, 5.0) == pytest.approx(4.0)


def test_convergence_report_rates():
    rep = ConvergenceReport([1e3, 1e1, 1e-1, 1e-3], True, 0.1)
    assert rep.cycles == 3
    assert rep.rbar == pytest.approx(2.0)
    assert rep.n10 == 5
    assert not rep.breakdown


def test_convergence_report_exact_solve():
    rep = ConvergenceReport([1.0, 0.0], True, 0.1)
    assert math.isinf(rep.rbar)
    assert rep.n10 == 0
    rep = ConvergenceReport([0.0], True, 0.1)
    assert rep.cycles == 0
    assert math.isinf(rep.rbar)
    assert rep.n10 == 0


def test_convergence_report_of_a_solve_stopped_before_its_first_cycle():
    # A nonzero residual with no cycle taken was not reduced at all.
    rep = ConvergenceReport([1.0], False, 0.1, breakdown=True)
    assert rep.cycles == 0
    assert rep.rbar == 0.0
    assert rep.n10 == -1
