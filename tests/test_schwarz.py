"""Tests for subdomain weights, fast diagonalization and smoothers."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schwarzmg.basis import gll_basis
from schwarzmg.mesh import MeshConfig, layout_for, periodic_windows
from schwarzmg.operators import (DiffusionOperator, PoissonOperator,
                                 dense_diffusion_matrix, dense_poisson_matrix,
                                 diffusivity_field, poisson_benchmark)
from schwarzmg.schwarz import (AdditiveSchwarz, MultiplicativeSchwarz,
                               WeightKind, build_fast_diag, build_weight_1d,
                               restricted_1d, weight_value)

ALL_KINDS = list(WeightKind)


# ----------------------------------------------------------------------
# Shape and weight functions

def test_shape_function_endpoint_values():
    # Gradual profiles vanish at the subdomain boundary and reach 1 in the
    # single-coverage core; the arithmetic profile is 1/2 exactly at the
    # boundary.
    delta = 0.3
    edge = 1.0 + delta - 1e-3  # just inside the subdomain boundary
    for kind in ALL_KINDS:
        w = weight_value(kind, np.array([-edge, edge]), delta)
        if kind is WeightKind.ARITHMETIC:
            npt.assert_allclose(w, [0.5, 0.5], atol=1e-14)
        else:
            assert np.all(np.abs(w) < 0.05)
        npt.assert_allclose(weight_value(kind, 0.0, delta), 1.0, atol=1e-14)
        # Strictly outside, every profile vanishes.
        npt.assert_allclose(weight_value(kind, 2.0 + delta, delta), 0.0,
                            atol=1e-14)


def test_weight_pairs_sum_to_one_in_overlap():
    # Two neighboring subdomains overlap on [1 - delta, 1 + delta] in the
    # left one's coordinate; their weights are mirror images summing to 1.
    delta = 0.4
    xi = np.linspace(1.0 - delta, 1.0 + delta, 33)
    for kind in ALL_KINDS:
        left = weight_value(kind, xi, delta)
        right = weight_value(kind, xi - 2.0, delta)
        npt.assert_allclose(left + right, 1.0, atol=1e-13)


def test_weight_value_rejects_bad_delta():
    with pytest.raises(ValueError):
        weight_value(WeightKind.QUINTIC, 0.0, 0.0)


@pytest.mark.parametrize("p", [4, 8, 16])
@pytest.mark.parametrize("n_o", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_of_unity_on_periodic_line(p, n_o, kind):
    # Accumulating each subdomain's 1D weights onto the global periodic
    # line must give exactly 1 at every node.
    basis = gll_basis(p)
    w = build_weight_1d(kind, basis, n_o)
    n = 8
    total = np.zeros(p * n)
    offs = np.arange(-n_o, p + n_o + 1)
    for e in range(n):
        np.add.at(total, (e * p + offs) % (p * n), w)
    npt.assert_allclose(total, 1.0, atol=1e-13)


def test_weight_1d_is_symmetric_over_updated_nodes():
    # One weight per updated node (the owner's p + 1 plus n_o adopted on
    # each side), mirrored about the owner element's center.
    for kind in ALL_KINDS:
        for p, n_o in ((4, 1), (6, 2), (8, 3)):
            w = build_weight_1d(kind, gll_basis(p), n_o)
            assert w.shape == (p + 1 + 2 * n_o,)
            npt.assert_allclose(w, w[::-1], atol=1e-14, rtol=0)


# ----------------------------------------------------------------------
# Restricted subdomain problem and fast diagonalization

def _dense_subdomain_matrix(basis, dx, dy, n_o):
    L_x, m_x = restricted_1d(basis, dx, n_o)
    L_y, m_y = restricted_1d(basis, dy, n_o)
    return np.kron(np.diag(m_y), L_x) + np.kron(L_y, np.diag(m_x))


def test_restricted_1d_against_patch_assembly():
    # Independent re-assembly of the three-element patch, keeping the
    # updated rows/columns.
    basis = gll_basis(4)
    d, n_o = 0.5, 1
    L_s, m_s = restricted_1d(basis, d, n_o)
    q = 13
    L = np.zeros((q, q))
    m = np.zeros(q)
    for off in (0, 4, 8):
        idx = off + np.arange(5)
        L[np.ix_(idx, idx)] += (2.0 / d) * basis.stiff
        np.add.at(m, idx, (d / 2.0) * basis.weights)
    keep = np.arange(4 - n_o, 8 + n_o + 1)
    npt.assert_allclose(L_s, L[np.ix_(keep, keep)], atol=1e-14)
    npt.assert_allclose(m_s, m[keep], atol=1e-14)
    assert np.all(m_s > 0)
    with pytest.raises(ValueError):
        restricted_1d(basis, d, 4)


@pytest.mark.parametrize("p,n_o", [(2, 0), (4, 1), (8, 2)])
@pytest.mark.parametrize("dx,dy", [(0.25, 0.25), (1.0, 0.25)])
def test_fast_diag_inverts_subdomain_operator(p, n_o, dx, dy):
    basis = gll_basis(p)
    solver = build_fast_diag(basis, dx, dy, n_o)
    A_ss = _dense_subdomain_matrix(basis, dx, dy, n_o)
    m = p + 1 + 2 * n_o
    rng = np.random.default_rng(37)
    r = rng.standard_normal((m, m))
    x = solver.solve(r)
    npt.assert_allclose(A_ss @ x.ravel(), r.ravel(),
                        atol=1e-10 * np.abs(r).max())


# ----------------------------------------------------------------------
# Smoother sweeps against naive reference implementations

def _setup(p=4, n=4, n_o=1):
    mesh = MeshConfig(n, n)
    basis = gll_basis(p)
    layout = layout_for(mesh, p)
    op = PoissonOperator(basis, mesh)
    f, _ = poisson_benchmark(mesh, basis)
    rng = np.random.default_rng(43)
    u0 = rng.random((layout.N_y, layout.N_x))
    return mesh, basis, layout, op, f, u0


def _subdomain_windows(layout, n_o):
    """(iy, ix) node windows of every subdomain, lexicographic by (e_y, e_x)."""
    wy = periodic_windows(layout.p, layout.n_y, n_o)
    wx = periodic_windows(layout.p, layout.n_x, n_o)
    return [(iy, ix) for iy in wy for ix in wx]


def _naive_additive(basis, layout, mesh, op, u, f, n_it, kind, n_o,
                    nu_bar=None):
    A_ss = _dense_subdomain_matrix(basis, mesh.dx, mesh.dy, n_o)
    w = build_weight_1d(kind, basis, n_o)
    W = np.outer(w, w)
    m = layout.p + 1 + 2 * n_o
    for _ in range(n_it):
        r = f - op.apply(u)
        cors = []
        for k, (iy, ix) in enumerate(_subdomain_windows(layout, n_o)):
            cor = np.linalg.solve(A_ss, r[np.ix_(iy, ix)].ravel())
            if nu_bar is not None:
                cor /= nu_bar[divmod(k, layout.n_x)]
            cors.append((iy, ix, cor.reshape(m, m) * W))
        for iy, ix, cor in cors:
            np.add.at(u, np.ix_(iy, ix), cor)
    return u


def _ring_colours(n):
    """Non-neighbouring elements of a ring of n: even, odd, and on an odd
    ring the last element (a neighbour of element 0) alone."""
    last = [n - 1] if n % 2 else []
    return [c for c in ([e for e in range(n) if e % 2 == 0 and e not in last],
                        [e for e in range(n) if e % 2 == 1], last) if c]


def _naive_multiplicative(basis, layout, mesh, op, u, f, n_it, n_o,
                          first_sweep=0, nu_bar=None):
    # Reference implementation: colour by colour, lexicographic by
    # (y class, x class) and reversed on odd-numbered sweeps, with a full
    # residual per colour and a dense solve per subdomain of the colour.
    A_ss = _dense_subdomain_matrix(basis, mesh.dx, mesh.dy, n_o)
    m = layout.p + 1 + 2 * n_o
    wy = periodic_windows(layout.p, layout.n_y, n_o)
    wx = periodic_windows(layout.p, layout.n_x, n_o)
    colours = [[(e_y, e_x) for e_y in c_y for e_x in c_x]
               for c_y in _ring_colours(layout.n_y)
               for c_x in _ring_colours(layout.n_x)]
    for i in range(first_sweep, first_sweep + n_it):
        for colour in (colours if i % 2 == 0 else colours[::-1]):
            r = f - op.apply(u)
            for e_y, e_x in colour:
                iy, ix = wy[e_y], wx[e_x]
                cor = np.linalg.solve(A_ss, r[np.ix_(iy, ix)].ravel())
                if nu_bar is not None:
                    cor /= nu_bar[e_y, e_x]
                u[np.ix_(iy, ix)] += cor.reshape(m, m)
    return u


def _diffusion_setup(p, n_x, n_y, l_x=1.0, nu_hat=0.9):
    mesh = MeshConfig(n_x, n_y, l_x=l_x, l_y=1.0)
    basis = gll_basis(p)
    nu = diffusivity_field(mesh, basis, nu_hat)
    op = DiffusionOperator(basis, mesh, nu)
    return mesh, basis, layout_for(mesh, p), op, nu


# (p, n_x, n_y, l_x, n_o): 2x2 and 3x2 rings, where every multiplicative
# colour is one subdomain, unequal extents, n_o up to the alias limit
# p + 1 + 2 n_o <= p min(n_x, n_y) (and to p - 1), and p=16.
WINDOW_CASES = [(2, 2, 2, 2.0, 0), (2, 3, 3, 3.0, 1), (4, 2, 2, 2.0, 1),
                (4, 3, 2, 3.0, 0), (4, 3, 2, 1.5, 1), (4, 3, 3, 2.0, 3),
                (8, 2, 2, 2.0, 3), (8, 3, 2, 5.0, 2), (8, 2, 3, 0.5, 0),
                (16, 3, 3, 3.0, 2)]


def _window_case(problem, p, n_x, n_y, l_x):
    """(mesh, basis, layout, op, nu_bar) of one window case."""
    if problem == "poisson":
        mesh = MeshConfig(n_x, n_y, l_x=l_x, l_y=2.0)
        basis = gll_basis(p)
        return mesh, basis, layout_for(mesh, p), PoissonOperator(basis, mesh), None
    mesh, basis, layout, op, _ = _diffusion_setup(p, n_x, n_y, l_x)
    return mesh, basis, layout, op, op.element_mean_nu()


def _random_fields(layout):
    rng = np.random.default_rng(53)
    u0 = rng.standard_normal((layout.N_y, layout.N_x))
    return u0, rng.standard_normal(u0.shape)


KINDS = {"w5": WeightKind.QUINTIC, "wa": WeightKind.ARITHMETIC}
# The p=4 4x4 n_o=1 case of each problem under its historical id, then
# every window case.
ADDITIVE_CASES = (
    [pytest.param(kind, problem, (4, 4, 4, l_x, 1),
                  id=k if problem == "poisson" else f"{k}-{problem}")
     for problem, l_x in (("poisson", 2.0), ("diffusion", 1.0))
     for k, kind in KINDS.items()]
    + [pytest.param(kind, problem, case,
                    id=f"{k}-{problem}-" + "-".join(map(str, case)))
       for case in WINDOW_CASES for problem in ("poisson", "diffusion")
       for k, kind in KINDS.items()])


@pytest.mark.parametrize("kind,problem,case", ADDITIVE_CASES)
def test_additive_smoother_matches_naive(kind, problem, case):
    p, n_x, n_y, l_x, n_o = case
    mesh, basis, layout, op, nu_bar = _window_case(problem, p, n_x, n_y, l_x)
    u0, f = _random_fields(layout)
    sm = AdditiveSchwarz(op, n_o, kind)
    got = sm.smooth(op, u0.copy(), f, 2)
    want = _naive_additive(basis, layout, mesh, op, u0.copy(), f, 2, kind,
                           n_o, nu_bar=nu_bar)
    npt.assert_allclose(got, want, atol=1e-11, rtol=0)


def test_multiplicative_smoother_matches_naive():
    mesh, basis, layout, op, f, u0 = _setup()
    sm = MultiplicativeSchwarz(op, 1)
    got = sm.smooth(op, u0.copy(), f, 2)
    want = _naive_multiplicative(basis, layout, mesh, op, u0.copy(), f, 2, 1)
    npt.assert_allclose(got, want, atol=1e-11)


@pytest.mark.parametrize("problem", ["poisson", "diffusion"])
@pytest.mark.parametrize("p,n_x,n_y,l_x,n_o", WINDOW_CASES)
def test_multiplicative_window_residual_matches_full_residual(
        p, n_x, n_y, l_x, n_o, problem):
    mesh, basis, layout, op, nu_bar = _window_case(problem, p, n_x, n_y, l_x)
    u0, f = _random_fields(layout)
    sm = MultiplicativeSchwarz(op, n_o)
    got = sm.smooth(op, u0.copy(), f, 2)
    want = _naive_multiplicative(basis, layout, mesh, op, u0.copy(), f, 2,
                                 n_o, nu_bar=nu_bar)
    npt.assert_allclose(got, want, atol=1e-11, rtol=0)


# (p, n_x, n_y, l_x, n_o) beyond WINDOW_CASES: odd rings of 5 and 3
# elements (9 colours, one of them a lone element), and windows of one
# colour that overlap (2 n_o >= p, as ceilp8 gives at p_l = 2).
COLOUR_CASES = [(4, 5, 3, 3.0, 1), (2, 4, 4, 2.0, 1), (2, 5, 4, 3.0, 1),
                (4, 4, 6, 1.0, 2)]


@pytest.mark.parametrize("problem", ["poisson", "diffusion"])
@pytest.mark.parametrize("p,n_x,n_y,l_x,n_o", COLOUR_CASES)
def test_multiplicative_colour_sweep_matches_naive(p, n_x, n_y, l_x, n_o,
                                                   problem):
    mesh, basis, layout, op, nu_bar = _window_case(problem, p, n_x, n_y, l_x)
    u0, f = _random_fields(layout)
    sm = MultiplicativeSchwarz(op, n_o)
    for first in (0, 1):
        got = sm.smooth(op, u0.copy(), f, 2, first)
        want = _naive_multiplicative(basis, layout, mesh, op, u0.copy(), f, 2,
                                     n_o, first_sweep=first, nu_bar=nu_bar)
        npt.assert_allclose(got, want, atol=1e-11, rtol=0)


@pytest.mark.parametrize("problem", ["poisson", "diffusion"])
def test_multiplicative_smoother_from_none_equals_from_zeros(problem):
    mesh, basis, layout, op, _ = _window_case(problem, 16, 3, 3, 3.0)
    _, f = _random_fields(layout)
    sm = MultiplicativeSchwarz(op, 2)
    want = sm.smooth(op, layout.zeros(), f, 3)
    npt.assert_array_equal(sm.smooth(op, None, f, 3), want)


def test_two_multiplicative_sweeps_are_symmetric_for_diffusion():
    # Two consecutive sweeps (colours forward then reversed) on the error
    # equation give M with A M symmetric, with the 1 / mean(nu) local
    # scaling too.
    mesh, basis, layout, op, nu = _diffusion_setup(4, 3, 3)
    A = dense_diffusion_matrix(basis, mesh, nu)
    sm = MultiplicativeSchwarz(op, 1)
    f = layout.zeros()
    M = np.zeros((layout.size, layout.size))
    for i in range(layout.size):
        e = np.zeros(layout.size)
        e[i] = 1.0
        M[:, i] = sm.smooth(op, e.reshape(f.shape), f, 2).ravel()
    AM = A @ M
    assert np.abs(AM - AM.T).max() / np.abs(AM).max() < 1e-11


# ----------------------------------------------------------------------
# Symmetry on random problems, against the dense operator oracles

@st.composite
def _smoother_case(draw):
    """(p, n_x, n_y, n_o, aspect ratio, nu_hat) with windows that fit."""
    p = draw(st.sampled_from([2, 4]))
    n_x, n_y = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    n_o = draw(st.integers(0, p - 1))
    assume(p + 1 + 2 * n_o <= p * min(n_x, n_y))
    return (p, n_x, n_y, n_o, draw(st.floats(0.25, 4.0)),
            draw(st.sampled_from([None, 0.9])))


def _random_problem(p, n_x, n_y, ar, nu_hat):
    """(op, dense A) of Poisson or of the nu_hat diffusion problem."""
    mesh = MeshConfig(n_x, n_y, l_x=2.0 * ar, l_y=2.0)
    basis = gll_basis(p)
    if nu_hat is None:
        return PoissonOperator(basis, mesh), dense_poisson_matrix(basis, mesh)
    nu = diffusivity_field(mesh, basis, nu_hat)
    return (DiffusionOperator(basis, mesh, nu),
            dense_diffusion_matrix(basis, mesh, nu))


def _assert_symmetric(apply, x, y):
    """x . apply(y) == y . apply(x) to roundoff, for fields x and y."""
    ax, ay = apply(x), apply(y)
    gap = abs(np.vdot(x, ay) - np.vdot(y, ax))
    assert gap <= 1e-11 * np.linalg.norm(x) * np.linalg.norm(ay)


@settings(max_examples=30, deadline=None)
@given(_smoother_case(), st.integers(0, 2**32 - 1))
def test_additive_smoother_is_symmetric_but_for_its_weights(case, seed):
    # The weights multiply only the back transform, so no weighted sweep
    # is symmetric.  The arithmetic weight is 1 / multiplicity at every
    # node whichever subdomain updates it, so multiplicity times that
    # sweep is the unweighted sum of the local solves, which is.
    p, n_x, n_y, n_o, ar, nu_hat = case
    op, _ = _random_problem(p, n_x, n_y, ar, nu_hat)
    sm = AdditiveSchwarz(op, n_o, WeightKind.ARITHMETIC)
    count = [np.bincount(periodic_windows(p, n, n_o).ravel())
             for n in (n_y, n_x)]
    x, y = np.random.default_rng(seed).standard_normal((2, p * n_y, p * n_x))
    _assert_symmetric(
        lambda r: np.outer(*count) * sm.smooth(op, None, r, 1), x, y)


@settings(max_examples=30, deadline=None)
@given(_smoother_case(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example((4, 4, 4, 1, 1.5, None), 0, 1)
@example((4, 5, 3, 1, 0.75, 0.9), 1, 2)
def test_two_multiplicative_sweeps_are_symmetric(case, first, seed):
    # Two consecutive sweeps on the error equation give the error
    # propagation E with A E symmetric, whichever sweep comes first.
    p, n_x, n_y, n_o, ar, nu_hat = case
    op, A = _random_problem(p, n_x, n_y, ar, nu_hat)
    sm = MultiplicativeSchwarz(op, n_o)
    zero = op.layout.zeros()
    x, y = np.random.default_rng(seed).standard_normal((2, p * n_y, p * n_x))
    _assert_symmetric(
        lambda e: A @ sm.smooth(op, e.copy(), zero, 2, first).ravel(),
        x, y)


def test_multiplicative_sweeps_numbered_across_calls():
    # Sweep 0 then sweep 1, in two calls, are the forward and the reversed
    # colour sweep of one two-sweep call.
    mesh, basis, layout, op, f, u0 = _setup()
    sm = MultiplicativeSchwarz(op, 1)
    u = sm.smooth(op, u0.copy(), f, 1, 0)
    u = sm.smooth(op, u, f, 1, 1)
    npt.assert_array_equal(u, sm.smooth(op, u0.copy(), f, 2))
    want = _naive_multiplicative(basis, layout, mesh, op, u0.copy(), f, 2, 1)
    npt.assert_allclose(u, want, atol=1e-11)


@pytest.mark.parametrize("first", [1, 2, 5])
def test_multiplicative_first_sweep_sets_the_direction(first):
    # Odd-numbered sweeps visit the colours reversed, even-numbered ones
    # forward, and the smoother keeps nothing between calls.
    mesh, basis, layout, op, f, u0 = _setup()
    sm = MultiplicativeSchwarz(op, 1)
    got = sm.smooth(op, u0.copy(), f, 2, first)
    want = _naive_multiplicative(basis, layout, mesh, op, u0.copy(), f, 2, 1,
                                 first_sweep=first)
    npt.assert_allclose(got, want, atol=1e-11)
    npt.assert_array_equal(sm.smooth(op, u0.copy(), f, 2, first), got)
    npt.assert_array_equal(sm.smooth(op, u0.copy(), f, 2, first % 2), got)


def test_additive_smoother_ignores_the_sweep_number():
    mesh, basis, layout, op, f, u0 = _setup()
    sm = AdditiveSchwarz(op, 1, WeightKind.QUINTIC)
    npt.assert_array_equal(sm.smooth(op, u0.copy(), f, 2, 1),
                           sm.smooth(op, u0.copy(), f, 2))


@pytest.mark.parametrize("smoother_cls", [AdditiveSchwarz, MultiplicativeSchwarz])
def test_smoothers_reduce_residual(smoother_cls):
    mesh, basis, layout, op, f, u0 = _setup()
    if smoother_cls is AdditiveSchwarz:
        sm = smoother_cls(op, 1, WeightKind.QUINTIC)
    else:
        sm = smoother_cls(op, 1)
    r0 = np.linalg.norm(f - op.apply(u0))
    u = sm.smooth(op, u0.copy(), f, 3)
    assert np.linalg.norm(f - op.apply(u)) < r0


@pytest.mark.parametrize("smoother_cls", [AdditiveSchwarz, MultiplicativeSchwarz])
def test_smoothers_start_from_zero_without_applying_the_operator(smoother_cls):
    mesh, basis, layout, op, f, _ = _setup()
    if smoother_cls is AdditiveSchwarz:
        sm = smoother_cls(op, 1, WeightKind.QUINTIC)
    else:
        sm = smoother_cls(op, 1)
    want = sm.smooth(op, layout.zeros(), f, 2)
    apply, calls = op.apply, []
    op.apply = lambda u: calls.append(1) or apply(u)
    f_copy = f.copy()
    npt.assert_array_equal(sm.smooth(op, None, f, 2), want)
    assert np.array_equal(f, f_copy)
    # Every sweep step but the first needs A; the first takes f as its
    # residual.  An additive sweep is one step, a multiplicative sweep one
    # step per colour (4 on the 4x4 mesh).
    steps = 1 if smoother_cls is AdditiveSchwarz else 4
    assert len(calls) == 2 * steps - 1
    assert sm.smooth(op, None, f, 0) is None


def test_subdomain_window_alias_guard():
    # p=2 with one adopted layer needs 5 nodes per direction but a 2x2
    # mesh only has 4 unique ones.
    op = PoissonOperator(gll_basis(2), MeshConfig(2, 2))
    with pytest.raises(ValueError):
        AdditiveSchwarz(op, 1, WeightKind.QUINTIC)
    with pytest.raises(ValueError):
        MultiplicativeSchwarz(op, 1)
