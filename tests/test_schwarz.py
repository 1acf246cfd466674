"""Tests for subdomain weights, fast diagonalization and smoothers."""

import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schwarzmg import mesh as mesh_module
from schwarzmg.basis import gll_basis
from schwarzmg.mesh import (FieldLayout, MeshConfig, Pool, layout_for,
                            periodic_windows)
from schwarzmg.multigrid import OverlapRule, build_hierarchy
from schwarzmg.operators import (DiffusionOperator, PoissonOperator,
                                 dense_diffusion_matrix, dense_poisson_matrix,
                                 diffusivity_field, poisson_benchmark)
from schwarzmg.schwarz import (AdditiveSchwarz, MultiplicativeSchwarz,
                               WeightKind, _colour_classes, _colour_nodes,
                               _shape, build_fast_diag, build_weight_1d,
                               restricted_1d, weight_value)

ALL_KINDS = list(WeightKind)
# The kinds with a continuous profile: all but the arithmetic mean.
PROFILE_KINDS = [k for k in WeightKind if k is not WeightKind.ARITHMETIC]


# ----------------------------------------------------------------------
# Shape and weight functions

def test_shape_function_endpoint_values():
    # Gradual profiles vanish at the subdomain boundary and reach 1 in the
    # single-coverage core.
    delta = 0.3
    edge = 1.0 + delta - 1e-3  # just inside the subdomain boundary
    for kind in PROFILE_KINDS:
        w = weight_value(kind, np.array([-edge, edge]), delta)
        assert np.all(np.abs(w) < 0.05)
        npt.assert_allclose(weight_value(kind, 0.0, delta), 1.0, atol=1e-14)
        # Strictly outside, every profile vanishes.
        npt.assert_allclose(weight_value(kind, 2.0 + delta, delta), 0.0,
                            atol=1e-14)


# The published closed forms of each kind's shape on [-1, 1]; outside it
# every shape is sign(x).
CLOSED_FORMS = {
    WeightKind.LINEAR: lambda x: x,
    WeightKind.CUBIC: lambda x: (3 * x - x**3) / 2,
    WeightKind.QUINTIC: lambda x: (15 * x - 10 * x**3 + 3 * x**5) / 8,
    WeightKind.SEVENTH: lambda x: (35 * x - 35 * x**3 + 21 * x**5
                                   - 5 * x**7) / 16,
    WeightKind.TOPHAT: np.sign}


@pytest.mark.parametrize("kind", PROFILE_KINDS,
                         ids=[k.value for k in PROFILE_KINDS])
def test_shape_matches_the_published_closed_form(kind):
    x = np.linspace(-1.5, 1.5, 601)
    want = np.where(np.abs(x) <= 1.0, CLOSED_FORMS[kind](x), np.sign(x))
    npt.assert_allclose(_shape(kind, x), want, atol=1e-15, rtol=0)


def test_weight_pairs_sum_to_one_in_overlap():
    # Two neighboring subdomains overlap on [1 - delta, 1 + delta] in the
    # left one's coordinate; their weights are mirror images summing to 1.
    delta = 0.4
    xi = np.linspace(1.0 - delta, 1.0 + delta, 33)
    for kind in PROFILE_KINDS:
        left = weight_value(kind, xi, delta)
        right = weight_value(kind, xi - 2.0, delta)
        npt.assert_allclose(left + right, 1.0, atol=1e-13)


def test_weight_value_rejects_bad_delta():
    with pytest.raises(ValueError):
        weight_value(WeightKind.QUINTIC, 0.0, 0.0)


def test_arithmetic_weight_is_one_over_coverage_and_has_no_profile():
    # Subdomain e of a line updates the nodes e*p - n_o ... e*p + p + n_o;
    # the wa weight of each node of subdomain 0 is one over the number of
    # subdomains that update it, counted here on an open line.
    with pytest.raises(ValueError, match="wa has no profile"):
        weight_value(WeightKind.ARITHMETIC, 0.0, 0.5)
    for p in range(1, 33):
        for n_o in range(p):
            j = np.arange(-n_o, p + n_o + 1)
            count = sum((e * p - n_o <= j) & (j <= e * p + p + n_o)
                        for e in range(-2, 3))
            w = build_weight_1d(WeightKind.ARITHMETIC, gll_basis(p), n_o)
            npt.assert_array_equal(w, 1.0 / count)


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
    S_x, lam_x, S_y, lam_y = build_fast_diag(basis, dx, dy, n_o)
    A_ss = _dense_subdomain_matrix(basis, dx, dy, n_o)
    m = p + 1 + 2 * n_o
    rng = np.random.default_rng(37)
    r = rng.standard_normal((m, m))
    x = S_y @ ((S_y.T @ r @ S_x) / (lam_y[:, None] + lam_x)) @ S_x.T
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


# (p, n_x, n_y, l_x, n_o) beyond WINDOW_CASES: odd rings of 5 and 3
# elements (9 colours, one of them a lone element), and windows of one
# colour that overlap (2 n_o >= p, as ceilp8 gives at p_l = 2).
COLOUR_CASES = [(4, 5, 3, 3.0, 1), (2, 4, 4, 2.0, 1), (2, 5, 4, 3.0, 1),
                (4, 4, 6, 1.0, 2)]


# (id, problem, (p, n_x, n_y, l_x, n_o)) of both smoothers' oracle tests:
# the p=4 4x4 n_o=1 case of each problem, then every window and colour case.
SMOOTHER_CASES = (
    [("poisson", "poisson", (4, 4, 4, 2.0, 1)),
     ("diffusion", "diffusion", (4, 4, 4, 1.0, 1))]
    + [(f"{problem}-" + "-".join(map(str, case)), problem, case)
       for case in WINDOW_CASES + COLOUR_CASES
       for problem in ("poisson", "diffusion")])
KINDS = {"w5": WeightKind.QUINTIC, "wa": WeightKind.ARITHMETIC}
# The 4x4 Poisson case under its historical id, the bare weight kind.
ADDITIVE_CASES = [
    pytest.param(kind, problem, case,
                 id=k if cid == "poisson" else f"{k}-{cid}")
    for cid, problem, case in SMOOTHER_CASES for k, kind in KINDS.items()]


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


@pytest.mark.parametrize("first", [0, 1], ids=["first0", "first1"])
@pytest.mark.parametrize(
    "problem,case", [pytest.param(problem, case, id=cid)
                     for cid, problem, case in SMOOTHER_CASES])
def test_multiplicative_smoother_matches_naive(problem, case, first):
    p, n_x, n_y, l_x, n_o = case
    mesh, basis, layout, op, nu_bar = _window_case(problem, p, n_x, n_y, l_x)
    u0, f = _random_fields(layout)
    sm = MultiplicativeSchwarz(op, n_o)
    got = sm.smooth(op, u0.copy(), f, 2, first)
    want = _naive_multiplicative(basis, layout, mesh, op, u0.copy(), f, 2,
                                 n_o, first_sweep=first, nu_bar=nu_bar)
    npt.assert_allclose(got, want, atol=1e-11, rtol=0)


@pytest.mark.parametrize("problem", ["poisson", "diffusion"])
def test_multiplicative_smoother_from_none_equals_from_zeros(problem):
    mesh, basis, layout, op, _ = _window_case(problem, 16, 3, 3, 3.0)
    _, f = _random_fields(layout)
    sm = MultiplicativeSchwarz(op, 2)
    want = sm.smooth(op, np.zeros((layout.N_y, layout.N_x)), f, 3)
    npt.assert_array_equal(sm.smooth(op, None, f, 3), want)


def test_two_multiplicative_sweeps_are_symmetric_for_diffusion():
    # Two consecutive sweeps (colours forward then reversed) on the error
    # equation give M with A M symmetric, with the 1 / mean(nu) local
    # scaling too.
    mesh, basis, layout, op, nu = _diffusion_setup(4, 3, 3)
    A = dense_diffusion_matrix(basis, mesh, nu)
    sm = MultiplicativeSchwarz(op, 1)
    f = np.zeros((layout.N_y, layout.N_x))
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
    zero = np.zeros((op.layout.N_y, op.layout.N_x))
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
    want = sm.smooth(op, np.zeros((layout.N_y, layout.N_x)), f, 2)
    apply, calls = op.apply, []
    op.apply = lambda u, *rest, **kw: calls.append(1) or apply(u, *rest, **kw)
    f_copy = f.copy()
    npt.assert_array_equal(sm.smooth(op, None, f, 2), want)
    assert np.array_equal(f, f_copy)
    # Every sweep step but the first needs A; the first takes f as its
    # residual.  An additive sweep is one step, a multiplicative sweep one
    # step per colour (4 on the 4x4 mesh).
    steps = 1 if smoother_cls is AdditiveSchwarz else 4
    assert len(calls) == 2 * steps - 1
    assert sm.smooth(op, None, f, 0) is None


def test_multiplicative_sweep_rejects_a_field_it_cannot_update_in_place():
    # A multiplicative colour step adds onto a flat view of u; a strided u
    # has none, and its update would go to a copy.  (The additive step
    # adds with np.add, which updates a strided u in place.)
    mesh, basis, layout, op, f, u0 = _setup()
    sm = MultiplicativeSchwarz(op, 1)
    with pytest.raises(ValueError, match="C-contiguous"):
        sm.smooth(op, np.asfortranarray(u0), f, 1)


def test_additive_sweep_temporaries_stay_below_five_fields():
    # The back transforms fold their products without forming the
    # (n_y, m, n_x, m) windows, so one sweep from zero holds at most
    # 4.5 fields of temporaries (p=16 16x16 w5 ceilp8, m = 21); forming
    # the windows and copying their middle nodes out took 5.13.
    mesh, basis = MeshConfig(16, 16), gll_basis(16)
    op = PoissonOperator(basis, mesh)
    f, _ = poisson_benchmark(mesh, basis)
    sm = AdditiveSchwarz(op, 2, WeightKind.QUINTIC)
    tracemalloc.start()
    try:
        sm.smooth(op, None, f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * f.nbytes


@pytest.mark.parametrize("p, n_o", [(2, 0), (2, 1), (4, 0), (4, 1), (4, 2),
                                    (8, 0), (8, 1), (8, 2)])
def test_sweeps_on_slabbed_residuals_are_bitwise_the_one_slab_sweeps(
        monkeypatch, p, n_o):
    # A sweep takes its residuals from the operator's slab loop: with
    # slabs of two element rows on a 5x17 mesh (3 colour classes per
    # direction; the last slab holds one row), two sweeps of each smoother
    # and problem, from a field and from zero, are the one-slab sweeps bit
    # for bit, in float64 and float32.
    mesh, basis = MeshConfig(5, 17, l_x=1.5), gll_basis(p)
    nu = diffusivity_field(mesh, basis, 0.7)
    rng = np.random.default_rng(p + n_o)
    u, f = rng.standard_normal((2, 17 * p, 5 * p))
    for op in (PoissonOperator(basis, mesh), DiffusionOperator(basis, mesh, nu)):
        for sm in (AdditiveSchwarz(op, n_o, WeightKind.QUINTIC),
                   MultiplicativeSchwarz(op, n_o)):
            for dtype in (np.float64, np.float32):
                u_d, f_d = u.astype(dtype), f.astype(dtype)
                want = [sm.smooth(op, u_d.copy(), f_d, 2, 1),
                        sm.smooth(op, None, f_d, 2)]
                monkeypatch.setattr(mesh_module, "_SLAB_BYTES",
                                    2 * u_d.nbytes // 17)
                assert mesh_module._slab_elements(u_d, 17) == 2
                got = [sm.smooth(op, u_d.copy(), f_d, 2, 1),
                       sm.smooth(op, None, f_d, 2)]
                monkeypatch.undo()
                for g, w in zip(got, want):
                    assert g.dtype == dtype
                    npt.assert_array_equal(g, w)


def test_subdomain_window_alias_guard():
    # p=2 with one adopted layer needs 5 nodes per direction but a 2x2
    # mesh only has 4 unique ones.
    op = PoissonOperator(gll_basis(2), MeshConfig(2, 2))
    with pytest.raises(ValueError):
        AdditiveSchwarz(op, 1, WeightKind.QUINTIC)
    with pytest.raises(ValueError):
        MultiplicativeSchwarz(op, 1)
    # A hierarchy names the level it trips on: ceilp2 gives p=2 one layer.
    with pytest.raises(ValueError, match=r"^multigrid level 1 of the p=32 "
                       r"hierarchy: subdomain window \(5 nodes\) wraps onto "
                       r"itself on a 2x2 mesh at p=2"):
        build_hierarchy(MeshConfig(2, 2), 32, OverlapRule("ceilp2"))


# ----------------------------------------------------------------------
# The multiplicative colour step against element-by-element oracles

# (p, n_x, n_y, l_x, n_o): an even mesh (4 colours) and odd ones (6 and 9
# colours), with disjoint windows (2 n_o < p) and with windows of one
# colour that overlap (2 n_o >= p, as fixed:k with 2k >= p gives), among
# them a 3x4 mesh whose colours of one element are disjoint all the same.
STEP_CASES = [(4, 4, 4, 2.0, 1), (4, 5, 4, 3.0, 1), (4, 5, 3, 3.0, 1),
              (2, 4, 4, 2.0, 1), (4, 4, 5, 1.0, 2), (4, 5, 5, 2.0, 3),
              (8, 3, 4, 1.5, 4)]


def _step(sm, u, r, colour, factors, ws):
    """A colour step with the given factors, bound in the pool ws (or
    unpooled) under a key of its own, and made."""
    return Pool.of(ws).plan(object(), lambda pool: sm._step(
        pool, r, colour, factors), r, u)


def _colour_step_oracle(basis, mesh, layout, r, c_y, c_x, n_o, nu_bar):
    """The dense local solve on r of each window of colour (c_y, c_x),
    divided by the element's mean nu, np.add.at onto its nodes."""
    A_ss = _dense_subdomain_matrix(basis, mesh.dx, mesh.dy, n_o)
    m = layout.p + 1 + 2 * n_o
    wy = periodic_windows(layout.p, layout.n_y, n_o)
    wx = periodic_windows(layout.p, layout.n_x, n_o)
    out = np.zeros((layout.N_y, layout.N_x))
    for e_y in range(layout.n_y)[c_y]:
        for e_x in range(layout.n_x)[c_x]:
            win = np.ix_(wy[e_y], wx[e_x])
            cor = np.linalg.solve(A_ss, r[win].ravel()).reshape(m, m)
            np.add.at(out, win, cor if nu_bar is None else cor / nu_bar[e_y, e_x])
    return out


STEP_IDS = ["-".join(map(str, case)) for case in STEP_CASES]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("problem", ["poisson", "diffusion"])
@pytest.mark.parametrize("case", STEP_CASES, ids=STEP_IDS)
def test_colour_steps_match_local_solves(case, problem, dtype):
    # Every colour's step, from zero and from u, with one scratch pool
    # shared by the colours and without one, against the oracle, relative
    # to the largest entry: within 64 units of float32 roundoff, and in
    # float64 within the sweep oracles' 1e-11 (the dense solves' own
    # roundoff reaches 280 units at p=8).
    p, n_x, n_y, l_x, n_o = case
    mesh, basis, layout, op, nu_bar = _window_case(problem, p, n_x, n_y, l_x)
    sm = MultiplicativeSchwarz(op, n_o)
    assert len(sm._colours) == (len(_colour_classes(n_x))
                                * len(_colour_classes(n_y)))
    u0, r = (a.astype(dtype) for a in _random_fields(layout))
    factors = sm._factors[np.dtype(dtype)]
    tol = 1e-11 if dtype == np.float64 else 64 * np.finfo(np.float32).eps
    pool = Pool()
    for colour in sm._colours:
        cor = _colour_step_oracle(basis, mesh, layout, r.astype(np.float64),
                                  *colour[:2], n_o, nu_bar)
        for u, ws in itertools.product((None, u0), (None, pool)):
            want = cor if u is None else u + cor
            got = _step(sm, None if u is None else u.copy(), r, colour,
                        factors, ws)
            assert got.dtype == dtype
            npt.assert_allclose(got, want, rtol=0, atol=tol * np.abs(
                want).max())


@pytest.mark.parametrize("case", STEP_CASES, ids=STEP_IDS)
def test_colour_step_adds_integer_windows_exactly(case):
    # With unit factors a step adds the colour's windows of r onto u.  On
    # integer values every sum is exact, so both adds, the fancy-index +=
    # of disjoint windows and np.add.at of overlapping ones, equal the
    # np.add.at oracle bit for bit, in both precisions, from zero and
    # from u.
    p, n_x, n_y, l_x, n_o = case
    op = PoissonOperator(gll_basis(p), MeshConfig(n_x, n_y, l_x=l_x))
    sm = MultiplicativeSchwarz(op, n_o)
    m = p + 1 + 2 * n_o
    wy = periodic_windows(p, n_y, n_o)
    wx = periodic_windows(p, n_x, n_o)
    u0, r = np.random.default_rng(59).integers(-8, 9, (2, p * n_y, p * n_x))
    for dtype, (c_y, c_x, idx, disjoint), from_u in itertools.product(
            (np.float32, np.float64), sm._colours, (False, True)):
        eye = np.eye(m, dtype=dtype)
        factors = (eye, eye, eye, eye, np.ones((m, n_x * m), dtype), None)
        want = u0.copy() if from_u else np.zeros_like(u0)
        for e_y in range(n_y)[c_y]:
            for e_x in range(n_x)[c_x]:
                win = np.ix_(wy[e_y], wx[e_x])
                np.add.at(want, win, r[win])
        got = _step(sm, u0.astype(dtype) if from_u else None,
                    r.astype(dtype), (c_y, c_x, idx, disjoint), factors,
                    Pool())
        assert got.dtype == dtype
        npt.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(_smoother_case(), st.integers(0, 2**32 - 1))
def test_colour_step_from_zero_is_symmetric(case, seed):
    # A step from zero gathers the colour's windows, solves each locally
    # (a symmetric map) and adds the windows back, the gather's adjoint:
    # so x . step(y) = y . step(x), colour by colour.
    p, n_x, n_y, n_o, ar, nu_hat = case
    op, _ = _random_problem(p, n_x, n_y, ar, nu_hat)
    sm = MultiplicativeSchwarz(op, n_o)
    factors = sm._factors[np.dtype(np.float64)]
    x, y = np.random.default_rng(seed).standard_normal((2, p * n_y, p * n_x))
    for colour in sm._colours:
        _assert_symmetric(lambda r: _step(sm, None, r, colour, factors, None),
                          x, y)


def test_colour_window_disjointness_rule_agrees_with_an_index_count():
    # The rule (2 n_o < p, or one element in each class of the colour)
    # against a count of each colour's node indices, on every pair of
    # rings n = 2 ... 9, for p in {2, 4, 8, 16} and every n_o whose window
    # does not wrap.  A fancy-index += onto windows that meet would drop
    # adds silently, so the rule must never call them disjoint.
    for p in (2, 4, 8, 16):
        for n_y, n_x in itertools.product(range(2, 10), repeat=2):
            lay = FieldLayout(p, n_x, n_y)
            for n_o in range(min(p, (p * min(n_x, n_y) - p + 1) // 2)):
                for c_y, c_x in itertools.product(_colour_classes(n_y),
                                                  _colour_classes(n_x)):
                    idx, disjoint = _colour_nodes(
                        lay, n_o, periodic_windows(p, n_y, n_o)[c_y],
                        periodic_windows(p, n_x, n_o)[c_x])
                    assert disjoint == (np.bincount(idx.ravel()).max() == 1)


def test_multiplicative_sweep_temporaries_stay_below_six_fields():
    # A colour step gathers only its colour's windows (0.47 of a field at
    # p=8 n_o=1, m = 11) and adds them onto u in place, so one sweep from
    # zero (p=8 16x16 diffusion, the mult-diffusion top level) holds at
    # most 6 fields of temporaries, u among them.  It measures 5.58, a
    # margin of 7.5%; the whole-field folds of each step took 7.27.
    mesh, basis = MeshConfig(16, 16), gll_basis(8)
    op = DiffusionOperator(basis, mesh, diffusivity_field(mesh, basis, 0.9))
    f, _ = poisson_benchmark(mesh, basis)
    sm = MultiplicativeSchwarz(op, 1)
    tracemalloc.start()
    try:
        sm.smooth(op, None, f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * f.nbytes


def test_a_warm_colour_step_allocates_no_colour_block():
    # The step adds its windows onto u through a pool view of u's window
    # nodes: once bound, it allocates less than a tenth of one colour's
    # windows, where the fancy-index += took a whole one. numpy's ufunc
    # buffer for a broadcast scale takes up to 8192 entries whatever the
    # size, so the colour here (p=8 64x64, n_o = 1: 123904 entries) is
    # large enough for a tenth of it to tell the two apart.
    mesh, basis = MeshConfig(64, 64), gll_basis(8)
    op = DiffusionOperator(basis, mesh, diffusivity_field(mesh, basis, 0.9))
    sm = MultiplicativeSchwarz(op, 1)
    u, r = _random_fields(op.layout)
    factors, colour = sm._factors[r.dtype], sm._colours[0]
    pool = Pool()

    def run():
        pool.plan(0, lambda pool: sm._step(pool, r, colour, factors), r, u)
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * colour[2].size * u.itemsize


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_colour_step_add_is_bitwise_the_fancy_index_add(dtype):
    # Taking u's window nodes, adding the windows and writing them back is
    # the fancy-index += bit for bit: the same add on every node, on every
    # colour, from u and from zero (whose result is the windows alone).
    mesh, basis = MeshConfig(5, 4), gll_basis(8)
    op = DiffusionOperator(basis, mesh, diffusivity_field(mesh, basis, 0.9))
    sm = MultiplicativeSchwarz(op, 1)
    u0, r = (a.astype(dtype) for a in _random_fields(op.layout))
    factors = sm._factors[np.dtype(dtype)]
    for colour in sm._colours:
        idx, disjoint = colour[2:]
        assert disjoint
        blocks = _step(sm, None, r, colour, factors, Pool()).reshape(-1)[idx]
        want = u0.copy()
        want.reshape(-1)[idx] += blocks
        npt.assert_array_equal(_step(sm, u0.copy(), r, colour, factors,
                                     Pool()), want)
