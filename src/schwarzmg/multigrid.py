"""Polynomial multigrid: level hierarchy, transfers, V-cycle, coarse solve.

Levels carry orders p_l = 2^l from 1 up to the target order p (which must
be a power of two). Transfers apply the embedded interpolation matrix
element by element, one direction at a time (sum factorization);
restriction is their exact algebraic transpose. The coarse (p = 1) problem
is singular on the periodic mesh and is solved by preconditioned CG with
the right side projected onto the complement of constants. On the uniform
periodic mesh the p = 1 Poisson operator is diagonalized by the 2D FFT
(Lynch, Rice & Thomas, Numer. Math. 6, 1964), so its pseudoinverse is the
preconditioner: exact for Poisson, scaled by the mean diffusivity for the
diffusion problem. V-cycle c numbers its smoothing sweeps consecutively
from c times the sweeps per cycle, through all levels in the order they
run, so the multiplicative colour order follows from the cycle
index alone and the hierarchy holds no solve state.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .basis import Basis1D, gll_basis, interp_matrix
from .mesh import MeshConfig, fold_windows, periodic_windows
from .operators import DiffusionOperator, PoissonOperator, diffusivity_field, project_mean
from .schwarz import AdditiveSchwarz, MultiplicativeSchwarz, WeightKind

log = logging.getLogger(__name__)

__all__ = ["OverlapRule", "MultigridHierarchy",
           "build_hierarchy", "prolongate", "restrict_residual",
           "coarse_solve", "v_cycle"]


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
    """

    name: str          # "fixed" | "floorp8" | "ceilp8" | "ceilp2"
    k: int = 0         # layer count for the fixed rule

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"overlap layer count must be >= 0, got {self.k}")

    def layers(self, p_l: int) -> int:
        if self.name == "fixed":
            n_o = self.k
        elif self.name == "floorp8":
            n_o = max(1, p_l // 8) if p_l >= 4 else 0
        elif self.name == "ceilp8":
            n_o = -(-p_l // 8)
        elif self.name == "ceilp2":
            n_o = -(-p_l // 2)
        else:
            raise ValueError(f"unknown overlap rule {self.name!r}")
        return min(n_o, p_l - 1)

    @classmethod
    def parse(cls, text: str) -> "OverlapRule":
        if text.startswith("fixed:"):
            return cls("fixed", int(text.split(":", 1)[1]))
        if text in ("floorp8", "ceilp8", "ceilp2"):
            return cls(text)
        raise ValueError(f"unknown overlap rule {text!r}")


@dataclass(eq=False)
class Level:
    l: int
    basis: Basis1D
    op: PoissonOperator | DiffusionOperator
    smoother: AdditiveSchwarz | MultiplicativeSchwarz | None
    n_pre: int
    n_post: int
    # Per-direction element interpolation block J[:-1] from level l-1 to l,
    # shape (p_l, p_{l-1} + 1); the last fine node belongs to the next element.
    px: np.ndarray | None = None
    py: np.ndarray | None = None


class MultigridHierarchy:
    def __init__(self, mesh: MeshConfig, levels: list[Level],
                 coarse_symbol: np.ndarray):
        self.mesh = mesh
        self.levels = levels
        # rfft2 eigenvalues of the coarse preconditioner's operator; the
        # constant mode is inf, so the preconditioner is mean-free.
        self.coarse_symbol = coarse_symbol
        self.coarse_tol = 1e-12  # relative residual at which coarse CG stops
        self.coarse_cg_exhausted = 0

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def top(self) -> Level:
        return self.levels[-1]


def _fft_symbol(op: PoissonOperator) -> np.ndarray:
    """Real rfft2 eigenvalues of a translation-invariant periodic operator.

    Such an operator is a circular convolution with its response to a unit
    impulse, so it acts as a pointwise product in Fourier space.
    """
    delta = op.layout.zeros()
    delta[0, 0] = 1.0
    symbol = np.fft.rfft2(op.apply(delta)).real
    symbol[0, 0] = np.inf
    return symbol


def build_hierarchy(mesh: MeshConfig, p: int, rule: OverlapRule,
                    smoother: str = "add",
                    weight: WeightKind = WeightKind.QUINTIC,
                    n_pre: int = 1, n_post: int = 0, variable: bool = False,
                    nu_hat: float | None = None,
                    nu_shift: float = 0.2) -> MultigridHierarchy:
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
    depth = p.bit_length() - 1
    levels: list[Level] = []
    for l in range(depth + 1):
        p_l = 1 << l
        basis = gll_basis(p_l)
        if nu_hat is None:
            op = PoissonOperator(basis, mesh)
        else:
            nu = diffusivity_field(mesh, basis, nu_hat, nu_shift)
            op = DiffusionOperator(basis, mesh, nu)
        if l == 0:
            levels.append(Level(l, basis, op, None, 0, 0))
            continue
        n_o = rule.layers(p_l)
        if smoother == "add":
            sm = AdditiveSchwarz(op, n_o, weight)
        else:
            sm = MultiplicativeSchwarz(op, n_o)
        factor = 2 ** (depth - l) if variable else 1
        J = interp_matrix(levels[l - 1].basis, basis)[:-1]
        levels.append(Level(l, basis, op, sm, n_pre * factor, n_post * factor,
                            J, J))
    lv0 = levels[0]
    if nu_hat is None:
        symbol = _fft_symbol(lv0.op)
    else:
        symbol = lv0.op.nu.mean() * _fft_symbol(PoissonOperator(lv0.basis, mesh))
    return MultigridHierarchy(mesh, levels, symbol)


def prolongate(h: MultigridHierarchy, l: int, coarse: np.ndarray) -> np.ndarray:
    """Interpolate a level l-1 field to level l."""
    if not 1 <= l <= h.depth:
        raise ValueError(f"level must be in [1, {h.depth}], got {l}")
    lv, mesh = h.levels[l], h.mesh
    p_c = lv.px.shape[1] - 1
    # x: every coarse element row window times J[:-1]^T, laid out as fine
    # rows (np.take returns the windows contiguous, unlike coarse[:, idx]).
    wx = np.take(coarse, periodic_windows(p_c, mesh.n_x), axis=1)
    t = (wx @ lv.px.T).reshape(coarse.shape[0], -1)
    # y: the same on the element column windows.
    wy = np.take(t, periodic_windows(p_c, mesh.n_y), axis=0)
    return (lv.py @ wy).reshape(-1, t.shape[1])


def restrict_residual(h: MultigridHierarchy, l: int, fine: np.ndarray) -> np.ndarray:
    """Transpose of prolongation: restrict a level l field to level l-1."""
    if not 1 <= l <= h.depth:
        raise ValueError(f"level must be in [1, {h.depth}], got {l}")
    lv, mesh = h.levels[l], h.mesh
    p_f, p_c = lv.px.shape[0], lv.px.shape[1] - 1
    # x: each fine element row block times J[:-1], folded into coarse rows.
    t = fold_windows(fine.reshape(fine.shape[0], mesh.n_x, p_f) @ lv.px, 2, p_c)
    # y: the same on the element column blocks.
    return fold_windows(lv.py.T @ t.reshape(mesh.n_y, p_f, -1), 1, p_c)


def _fft_inverse(symbol: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Apply the mean-free pseudoinverse of the operator with this symbol."""
    return np.fft.irfft2(np.fft.rfft2(r) / symbol, s=r.shape)


def coarse_solve(h: MultigridHierarchy, f0: np.ndarray) -> np.ndarray:
    """Null-space-projected, FFT-preconditioned CG solve of the p = 1 problem."""
    lv0 = h.levels[0]
    b = project_mean(f0)
    cap = 10 * b.size
    x = np.zeros_like(b)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x
    r = b.copy()
    z = p = _fft_inverse(h.coarse_symbol, r)
    rho = np.vdot(r, z)
    converged = False
    for _ in range(cap):
        q = lv0.op.apply(p)
        pq = np.vdot(p, q)
        if not (rho > 0.0 and pq > 0.0):
            break  # no descent direction is left: the residual is roundoff
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        converged = np.linalg.norm(r) <= h.coarse_tol * b_norm
        if converged:
            break
        z = _fft_inverse(h.coarse_symbol, r)
        rho_new = np.vdot(r, z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    if not converged:
        h.coarse_cg_exhausted += 1
        log.warning("coarse CG hit its iteration cap (%d) or broke down "
                    "short of its tolerance; possible ill-conditioning", cap)
    return project_mean(x)


def v_cycle(h: MultigridHierarchy, r: np.ndarray, cycle: int = 0) -> np.ndarray:
    """V-cycle number ``cycle`` on the residual equation A e = r.

    Returns a new correction e ~ A^{-1} r: descend smoothing and
    restricting, solve the coarse problem, ascend correcting and smoothing.
    Every level starts from e = 0, so its first sweep takes the level's
    right side as its residual. The sweeps are numbered in the order they
    run, from ``cycle`` times the sweeps per cycle, which sets the
    multiplicative colour order. ``r`` is left unchanged, and the
    hierarchy keeps no field between calls.
    """
    L = h.depth
    k = cycle * sum(lv.n_pre + lv.n_post for lv in h.levels)
    es, rs = [None] * (L + 1), [None] * L + [r]
    for l in range(L, 0, -1):
        lv = h.levels[l]
        if lv.n_pre:
            es[l] = lv.smoother.smooth(lv.op, None, rs[l], lv.n_pre, k)
            k += lv.n_pre
        r_l = rs[l] if es[l] is None else rs[l] - lv.op.apply(es[l])
        rs[l - 1] = restrict_residual(h, l, r_l)
    es[0] = coarse_solve(h, rs[0])
    for l in range(1, L + 1):
        lv = h.levels[l]
        e = prolongate(h, l, es[l - 1])
        es[l] = e if es[l] is None else es[l] + e
        if lv.n_post:
            es[l] = lv.smoother.smooth(lv.op, es[l], rs[l], lv.n_post, k)
            k += lv.n_post
    return es[L]
