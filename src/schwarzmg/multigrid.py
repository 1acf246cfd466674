"""Polynomial multigrid: hierarchy, transfers, V-cycle, the iteration loop.

Levels carry orders p_l = 2^l from 1 up to the target order p (which must
be a power of two). Transfers apply the embedded interpolation matrix
element by element, one direction at a time (sum factorization);
restriction is their exact algebraic transpose. ``coarse_solve`` solves
the p = 1 problem, and ``iterate`` is the one loop of both the coarse CG
and ``krylov.solve``. The precision policy is ``krylov``'s.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .basis import Basis1D, gll_basis, interp_matrix
from .mesh import (MeshConfig, Pool, Precisions, fold_product,
                   product, split_factor, take)
from .operators import (DiffusionOperator, PoissonOperator,
                        dense_diffusion_matrix, diffusivity_field, project_mean)
from .schwarz import AdditiveSchwarz, MultiplicativeSchwarz, SchwarzSmoother, WeightKind

log = logging.getLogger(__name__)

# The most p = 1 nodes whose diffusion problem is solved by a dense XX^T
# factor. With one BLAS thread (nu_hat = 0.9) the factor of the assembled
# matrix takes 0.10 ms at 64 nodes, 1.1 at 256, 6.2 at 512 and 43 at 1024
# (a general inverse 0.09, 3.0, 22 and 92); the whole build, assembly
# included, 0.2, 2.0-2.8, 9.4-12 and 49-60 ms; and a solve with it 11, 29,
# 104-130 and 600 us. One CG coarse solve of a float32 right side takes
# 1.0-1.7 ms at each size. A solve makes at least 5 coarse solves (6 at
# p = 4 to 8 on 16x16), so the factor pays for itself within one solve up
# to 256 nodes; at 512 nodes it would take about 8.
_DENSE_COARSE_NODES = 256
# The coarse CG's relative tolerance (``coarse_solve``).
_COARSE_TOL = 1e-12

__all__ = ["OverlapRule", "MultigridHierarchy",
           "build_hierarchy", "prolongate", "restrict_residual",
           "iterate", "coarse_solve", "v_cycle"]


@dataclass(frozen=True)
class OverlapRule:
    """Per-level overlap-layer count: fixed, floor(p/8), ceil(p/8) or ceil(p/2).

    ``floorp8`` (the Table 3 rule) gives n_o = max(1, floor(p_l/8)) for
    p_l >= 4 and n_o = 0 at p_l = 2.  Below p_l = 8 this is an
    interpretation inferred from the published Table 3 rates, not a rule
    stated in the available text: with floor(p_l/8) = 0 at p_l = 4 every
    additive weight gives the same p=4 rate (0.31), while the published
    p=4 row ranges from 0.31 to 0.98 by weight; with one layer at p_l = 4
    all 28 Table 3 cells reproduce.  The p_l = 2 exception rests on the
    same rates: one layer there too (plain max(1, floor(p_l/8))) leaves
    5 of the 28 cells outside tolerance at seed 1 (w5, w7, wt and mult
    at p=4, mult at p=16).

    The multiplicative smoother takes n_o = 0 at p_l = 2 under every rule
    (``layers(p_l, "mult")``).  This too is an interpretation inferred from
    the published rates, not a rule stated in the available text: with
    the rule's one layer at p_l = 2, 11 of the 25 published
    multiplicative cells of Tables 2 and 4 fall outside tolerance at seed
    1 (table2 p=4 reads 1.95 against a published 1.01); with none there,
    table2 p=4 reads 1.02, table4 p=16 8x8 1.44 (published 1.44) and
    16x16 1.56 (1.42), and 8 cells remain outside.
    """

    name: str          # "fixed" | "floorp8" | "ceilp8" | "ceilp2"
    k: int = 0         # layer count for the fixed rule

    def __post_init__(self):
        if self.name not in ("fixed", "floorp8", "ceilp8", "ceilp2"):
            raise ValueError(f"unknown overlap rule {self.name!r}")
        if self.k < 0:
            raise ValueError(f"overlap layer count must be >= 0, got {self.k}")

    def layers(self, p_l: int, smoother: str = "add") -> int:
        """Overlap layers of the level of order ``p_l`` under ``smoother``."""
        if p_l == 2 and smoother == "mult":
            return 0
        if self.name == "fixed":
            n_o = self.k
        elif self.name == "floorp8":
            n_o = max(1, p_l // 8) if p_l >= 4 else 0
        elif self.name == "ceilp8":
            n_o = -(-p_l // 8)
        else:  # ceilp2
            n_o = -(-p_l // 2)
        return min(n_o, p_l - 1)

    @classmethod
    def parse(cls, text: str) -> "OverlapRule":
        name, _, count = text.partition(":")
        if name == "fixed" and count.removeprefix("-").isdecimal():
            return cls("fixed", int(count))
        if text in ("floorp8", "ceilp8", "ceilp2"):
            return cls(text)
        raise ValueError(f"unknown overlap rule {text!r}")


@dataclass(eq=False)
class Level:
    l: int
    basis: Basis1D
    op: PoissonOperator | DiffusionOperator
    smoother: SchwarzSmoother | None
    n_pre: int
    n_post: int
    # The element interpolation block J[:-1] from level l-1 to l, shape
    # (p_l, p_{l-1} + 1) (the last fine node belongs to the next element),
    # and the restriction's folded factors, J[:-1] split per direction by
    # ``split_factor`` (x: t @ J[:-1], y: J[:-1]^T @ t), in both precisions
    # for the transfers to pick by their field's dtype.
    transfers: Precisions | None = None

    @property
    def px(self) -> np.ndarray | None:
        """The float64 J[:-1] in x, and as ``py`` in y; None at p = 1.
        Only bench/layers.py reads them (ROADMAP item 1b deletes them)."""
        return (None if self.transfers is None
                else self.transfers[np.dtype(np.float64)][0])

    py = px


class MultigridHierarchy:
    def __init__(self, mesh: MeshConfig, levels: list[Level]):
        self.mesh = mesh
        self.levels = levels
        # The coarse CG's preconditioner s * L+(s * r) (``coarse_solve``):
        # the nodal scale s and the eigenvalues of L on the rfft2 grid, the
        # constant mode inf. L is m_y (x) L_x + L_y (x) m_x with the 1D mass
        # m = d per node and the stiffness (1/d) circ(-1, 2, -1), so its
        # symbol is (dy/dx)(2 - 2 cos tx) + (dx/dy)(2 - 2 cos ty).
        lv0 = levels[0]
        self.coarse_scale = (1.0 if lv0.op.nu is None
                             else 1.0 / np.sqrt(lv0.op.nu))
        tx = 2.0 * np.pi * np.fft.rfftfreq(lv0.op.layout.N_x)
        ty = 2.0 * np.pi * np.fft.fftfreq(lv0.op.layout.N_y)[:, None]
        self.coarse_symbol = (mesh.dy / mesh.dx * (2.0 - 2.0 * np.cos(tx))
                              + mesh.dx / mesh.dy * (2.0 - 2.0 * np.cos(ty)))
        self.coarse_symbol[0, 0] = np.inf
        self.coarse_cg_exhausted = 0

    @functools.cached_property
    def coarse_factor(self) -> np.ndarray | None:
        """The float64 upper-triangular X = L^-T, L the Cholesky factor of
        A + c 11^T, c = mean(diag A) / n, for a diffusion p = 1 level of at
        most ``_DENSE_COARSE_NODES`` nodes; None otherwise (``coarse_solve``
        says why).

        The constant mode, A's null space, becomes an eigenvector of
        eigenvalue mean(diag A), so X X^T times a mean-free b is A+ b.
        L^-1 is built in blocks of 32 rows, each from the rows above it:
        numpy has no triangular inverse, and its general one costs as much
        as inverting A. X depends on the hierarchy only and is built on
        first use.
        """
        lv0 = self.levels[0]
        if lv0.op.nu is None or lv0.op.layout.size > _DENSE_COARSE_NODES:
            return None
        A = dense_diffusion_matrix(lv0.basis, self.mesh, lv0.op.nu)
        A += np.mean(np.diag(A)) / len(A)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise ValueError("p=1 coarse level: diffusion matrix is not "
                             "positive definite") from None
        del A  # at most two n x n arrays live at once, as for inv(A)
        X = np.zeros_like(L)
        for i in range(0, len(L), 32):
            j = slice(i, i + 32)
            X[j, j] = np.linalg.inv(L[j, j])
            X[j, :i] = -X[j, j] @ (L[j, :i] @ X[:i, :i])
        return X.T

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def top(self) -> Level:
        return self.levels[-1]


def build_hierarchy(mesh: MeshConfig, p: int, rule: OverlapRule,
                    smoother: str = "add",
                    weight: WeightKind | str = WeightKind.QUINTIC,
                    n_pre: int = 1, n_post: int = 0, variable: bool = False,
                    nu_hat: float | None = None) -> MultigridHierarchy:
    """Construct all levels, smoothers and transfer operators.

    ``nu_hat = None`` builds the Poisson hierarchy; otherwise every level
    discretizes the variable-diffusion operator with the diffusivity
    sampled at its own GLL nodes.
    """
    if p < 2 or (p & (p - 1)) != 0:
        raise ValueError(f"top-level order must be a power of two >= 2, got {p}")
    if smoother not in ("add", "mult"):
        raise ValueError(f"smoother must be 'add' or 'mult', got {smoother!r}")
    if n_pre < 0 or n_post < 0:
        raise ValueError(f"smoothing counts must be >= 0, got {n_pre}, {n_post}")
    if n_pre + n_post == 0:
        raise ValueError("a V-cycle needs at least one smoothing sweep "
                         "(n_pre + n_post >= 1)")
    if rule.name == "fixed" and rule.k > p - 1:
        # Only the levels below the top clamp the count (``layers``).
        raise ValueError(f"overlap fixed:{rule.k} exceeds p - 1 = {p - 1} "
                         f"layers at the top level")
    weight = WeightKind(weight)
    depth = p.bit_length() - 1
    levels: list[Level] = []
    for l in range(depth + 1):
        p_l = 1 << l
        basis = gll_basis(p_l)
        nu = None if nu_hat is None else diffusivity_field(mesh, basis, nu_hat)
        where = f"multigrid level {l} of the p={p} hierarchy"
        try:
            op = (PoissonOperator(basis, mesh) if nu is None
                  else DiffusionOperator(basis, mesh, nu))
        except ValueError as exc:
            raise ValueError(f"{where}: operator {exc}") from None
        if l == 0:
            levels.append(Level(l, basis, op, None, 0, 0))
            continue
        n_o = rule.layers(p_l, smoother)
        try:
            sm = (AdditiveSchwarz(op, n_o, weight) if smoother == "add"
                  else MultiplicativeSchwarz(op, n_o))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        factor = 2 ** (depth - l) if variable else 1
        J = interp_matrix(levels[l - 1].basis, basis)[:-1]
        levels.append(Level(l, basis, op, sm, n_pre * factor, n_post * factor,
                            Precisions(J, split_factor(J, 2, p_l // 2),
                                       split_factor(J.T, 1, p_l // 2))))
    return MultigridHierarchy(mesh, levels)


def prolongate(h: MultigridHierarchy, l: int, coarse: np.ndarray,
               ws=None) -> np.ndarray:
    """Interpolate a level l-1 field to level l, in the field's dtype; a
    plan bound in the scratch pool ``ws`` (``krylov``)."""
    if not 1 <= l <= h.depth:
        raise ValueError(f"level must be in [1, {h.depth}], got {l}")

    def bind(pool):
        J, _, _ = h.levels[l].transfers[coarse.dtype]
        op_c = h.levels[l - 1].op
        # x: every coarse element row window times J[:-1]^T, laid out as
        # fine rows (the gathered windows are contiguous, unlike
        # coarse[:, idx]).
        t = product(pool, take(pool, coarse, op_c._wx, 1), J.T)
        # y: the same on the element column windows.
        t = take(pool, t.reshape(coarse.shape[0], -1), op_c._wy, 0)
        return lambda coarse: (J @ t).reshape(-1, t.shape[2])
    return Pool.of(ws).plan((h.levels[l], prolongate), bind, coarse)


def restrict_residual(h: MultigridHierarchy, l: int, fine: np.ndarray,
                      ws=None) -> np.ndarray:
    """Transpose of prolongation: restrict a level l field to level l-1,
    in the field's dtype; a plan bound in the scratch pool ``ws``."""
    if not 1 <= l <= h.depth:
        raise ValueError(f"level must be in [1, {h.depth}], got {l}")
    mesh, p_f = h.mesh, h.levels[l].basis.p

    def bind(pool):
        _, rx, ry = h.levels[l].transfers[fine.dtype]
        # x: each fine element row block times J[:-1], folded into coarse
        # rows.
        t = fold_product(pool, blocks, rx, 2, mesh.n_x)
        # y: the same on the element column blocks.
        t = fold_product(pool, t.reshape(mesh.n_y, p_f, -1), ry, 1,
                         mesh.n_y, fresh=True)
        return lambda blocks: t.pop()
    blocks = fine.reshape(fine.shape[0], mesh.n_x, p_f)
    return Pool.of(ws).plan((h.levels[l], restrict_residual), bind, blocks)


def _fft_inverse(h: MultigridHierarchy, r: np.ndarray) -> np.ndarray:
    """Apply the coarse preconditioner s * L+(s * r)."""
    s = h.coarse_scale
    return s * np.fft.irfft2(np.fft.rfft2(s * r) / h.coarse_symbol, s=r.shape)


def iterate(apply, f: np.ndarray, precondition, u: np.ndarray, r: np.ndarray,
            rtol: float, cap: int, cg: bool = False):
    """Iterate on A u = f from ``u`` (updated in place) to a residual norm
    of at most ``rtol`` times the first one recorded.

    Step k takes z = precondition(r, k). Without ``cg`` it adds z to u;
    ``r`` is then only the array that every residual f - A u, the first
    included, is written into by ``apply(u, f, out=r)``, which computes it
    in u's dtype, stores it in r's and returns its norm.
    With ``cg`` r is f - A u, in u's dtype, and z the preconditioned
    residual of flexible CG (Notay, SIAM J. Sci. Comput. 22, 2000), whose
    Polak-Ribiere beta = z^T (r - r_old) / (z_old^T r_old) tolerates a
    non-symmetric or varying preconditioner. Returns (residual norms,
    stop), where stop is why it ended, checked in this order before every
    step: ``"non-finite"`` at an inf or NaN norm, ``"converged"`` once
    ||r|| <= rtol ||r_0||, ``"breakdown"`` after a CG step whose
    delta = z^T r, the next divisor, was 0 or not finite, and ``"cap"``
    after ``cap`` steps. A CG step that finds p^T A p <= 0 stops at once
    as a ``"breakdown"``, recording no norm.
    """
    res = [float(np.linalg.norm(r)) if cg else apply(u, f, out=r)[1]]
    r_max, p, broke = rtol * res[0], None, False
    while True:
        if not np.isfinite(res[-1]):
            return res, "non-finite"
        if res[-1] <= r_max:
            return res, "converged"
        if broke:
            return res, "breakdown"
        if len(res) > cap:
            return res, "cap"
        z = precondition(r, len(res) - 1)
        if not cg:
            u += z  # promoted inside the add, without a copy
            del z  # freed before the next correction allocates its fields
            res.append(apply(u, f, out=r)[1])
            continue
        z = z.astype(u.dtype, copy=False)
        p = z if p is None else z + (np.vdot(z, r - r_old) / delta) * p
        delta, r_old = np.vdot(z, r), r
        q = apply(p)
        pq = np.vdot(p, q)
        if pq <= 0.0:
            return res, "breakdown"
        alpha = delta / pq
        u += alpha * p
        r = r - alpha * q
        broke = not (np.isfinite(delta) and delta != 0.0)
        res.append(float(np.linalg.norm(r)))


def coarse_solve(h: MultigridHierarchy, f0: np.ndarray) -> np.ndarray:
    """Null-space-projected solve of the p = 1 problem, in float64.

    The problem is singular on the periodic mesh, so its right side is
    projected onto the complement of constants, b. A small diffusion
    problem is solved directly, as in the spectral-element multigrid of
    Lottes & Fischer (J. Sci. Comput. 24, 2005), whose coarse grid is
    solved by the XX^T method (Tufo & Fischer, J. Parallel Distrib.
    Comput. 61, 2001): with X = ``h.coarse_factor``, a dense triangular
    factor of the inverse, X (X^T b) is A+ b. Every other one is solved by
    ``iterate``'s CG from 0 to tol * ||b||, in at most 10 iterations per
    node, where tol is ``_COARSE_TOL`` or, if larger, 100 ulps of the
    dtype of ``f0`` (1.2e-5 for float32, whose result is rounded to
    float32 anyway: an inexact inner solve need only be as accurate as the
    inner precision). A CG that stops short logs its stop reason and
    counts in ``h.coarse_cg_exhausted``.

    The CG's preconditioner is s * L+(s * r) with s = 1/sqrt(nu) at the
    p = 1 nodes, the diagonal scaling of the variable-coefficient operator
    around a constant-coefficient fast solver (Concus & Golub, SIAM J.
    Numer. Anal. 10, 1973): exact for Poisson (s = 1), so its CG stops
    after one step, and close to the inverse where nu varies slowly. On
    the uniform periodic mesh the p = 1 Poisson operator L is diagonalized
    by the 2D FFT (Lynch, Rice & Thomas, Numer. Math. 6, 1964), with
    eigenvalues ``h.coarse_symbol`` written in closed form from its two
    circulant 1D factors, so L+ is cheap.

    The final projection removes the roundoff in the constant mode and the
    constant that a preconditioner scaled by a non-constant s lets in; the
    result has the dtype of ``f0``.
    """
    b = project_mean(f0.astype(np.float64, copy=False))
    if h.coarse_factor is not None:
        X = h.coarse_factor
        x = (X @ (X.T @ b.ravel())).reshape(b.shape)
    else:
        cap = 10 * b.size
        r_tol = max(_COARSE_TOL, 100 * float(np.finfo(f0.dtype).eps))
        x = np.zeros_like(b)
        res, stop = iterate(
            h.levels[0].op.apply, b, lambda r, _: _fft_inverse(h, r), x, b,
            r_tol, cap, cg=True)
        if stop != "converged":
            h.coarse_cg_exhausted += 1
            log.warning("coarse CG stopped (%s) after %d of %d iterations; "
                        "possible ill-conditioning", stop, len(res) - 1, cap)
    return project_mean(x).astype(f0.dtype, copy=False)


def v_cycle(h: MultigridHierarchy, r: np.ndarray, cycle: int = 0,
            ws=None) -> np.ndarray:
    """V-cycle number ``cycle`` on the residual equation A e = r.

    Returns a new correction e ~ A^{-1} r: descend smoothing and
    restricting, solve the coarse problem, ascend correcting and smoothing.
    Every level starts from e = 0, so its first sweep takes the level's
    right side as its residual. The sweeps are numbered consecutively in
    the order they run, through all levels, from ``cycle`` times the
    sweeps per cycle, so the multiplicative colour order follows from the
    cycle index alone. ``r`` is left unchanged, and the hierarchy keeps no
    field or other solve state between calls. Every level computes in the
    dtype of ``r`` except the coarse solve, which runs in float64. ``ws``
    is the scratch pool (``krylov``).
    """
    L = h.depth
    k = cycle * sum(lv.n_pre + lv.n_post for lv in h.levels)
    es, rs = [None] * (L + 1), [None] * L + [r]
    for l in range(L, 0, -1):
        lv = h.levels[l]
        if lv.n_pre:
            es[l] = lv.smoother.smooth(lv.op, None, rs[l], lv.n_pre, k, ws)
            k += lv.n_pre
        r_l = rs[l] if es[l] is None else lv.op.apply(es[l], rs[l], ws=ws)
        rs[l - 1] = restrict_residual(h, l, r_l, ws)
    es[0] = coarse_solve(h, rs[0])
    for l in range(1, L + 1):
        lv = h.levels[l]
        e = prolongate(h, l, es[l - 1], ws)
        es[l] = e if es[l] is None else np.add(es[l], e, out=e)
        if lv.n_post:
            es[l] = lv.smoother.smooth(lv.op, es[l], rs[l], lv.n_post, k, ws)
            k += lv.n_post
    return es[L]
