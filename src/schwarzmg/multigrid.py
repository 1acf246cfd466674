"""Polynomial multigrid: level hierarchy, transfers, V-cycle, coarse solve.

Levels carry orders p_l = 2^l from 1 up to the target order p (which must
be a power of two). Transfers use the embedded interpolation operator per
direction; restriction is its exact algebraic transpose. The coarse
(p = 1) problem is singular on the periodic mesh and is solved by CG with
the right side projected onto the complement of constants.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .basis import Basis1D, gll_basis, interp_matrix
from .mesh import MeshConfig, periodic_windows
from .operators import DiffusionOperator, PoissonOperator, diffusivity_field, project_mean
from .schwarz import (AdditiveSchwarz, MultiplicativeSchwarz, SweepCounter,
                      WeightKind)

log = logging.getLogger(__name__)

__all__ = ["OverlapRule", "LevelConfig", "MultigridHierarchy",
           "build_hierarchy", "prolongate", "restrict_residual",
           "coarse_solve", "v_cycle"]


@dataclass(frozen=True)
class OverlapRule:
    """Per-level overlap-layer count: fixed, floor(p/8), ceil(p/8) or ceil(p/2)."""

    name: str          # "fixed" | "floorp8" | "ceilp8" | "ceilp2"
    k: int = 0         # layer count for the fixed rule

    def layers(self, p_l: int) -> int:
        if self.name == "fixed":
            n_o = self.k
        elif self.name == "floorp8":
            n_o = p_l // 8
        elif self.name == "ceilp8":
            n_o = -(-p_l // 8)
        elif self.name == "ceilp2":
            n_o = -(-p_l // 2)
        else:
            raise ValueError(f"unknown overlap rule {self.name!r}")
        return int(np.clip(n_o, 0, p_l - 1))

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
    n_o: int
    # Global per-direction prolongation matrices from level l-1 to l.
    px: np.ndarray | None = None
    py: np.ndarray | None = None


@dataclass(eq=False)
class LevelConfig:
    """Resolved smoothing parameters of one level (introspection helper)."""

    l: int
    p_l: int
    n_pre: int
    n_post: int
    n_o: int


class MultigridHierarchy:
    def __init__(self, mesh: MeshConfig, levels: list[Level],
                 coarse_tol: float = 1e-12,
                 sweep_counter: SweepCounter | None = None):
        self.mesh = mesh
        self.levels = levels
        self.coarse_tol = coarse_tol
        self.coarse_cg_exhausted = 0
        self.sweep_counter = sweep_counter

    def reset_smoothers(self):
        """Restart the multiplicative sweep parity (for reproducible solves)."""
        if self.sweep_counter is not None:
            self.sweep_counter.reset()

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def top(self) -> Level:
        return self.levels[-1]

    def level_configs(self) -> list[LevelConfig]:
        return [LevelConfig(lv.l, lv.basis.p, lv.n_pre, lv.n_post, lv.n_o)
                for lv in self.levels]


def _global_prolongation(j: np.ndarray, p_c: int, p_f: int, n: int) -> np.ndarray:
    """Periodic global 1D interpolation matrix from n*p_c to n*p_f nodes.

    Rows of fine nodes shared between elements are written consistently
    (interpolation of a continuous field is single-valued there).
    """
    P = np.zeros((p_f * n, p_c * n))
    rows = periodic_windows(p_f, n)[:, :, None]
    cols = periodic_windows(p_c, n)[:, None, :]
    P[rows, cols] = j
    return P


def build_hierarchy(mesh: MeshConfig, p: int, rule: OverlapRule,
                    smoother: str = "add",
                    weight: WeightKind = WeightKind.QUINTIC,
                    n_pre: int = 1, n_post: int = 0, variable: bool = False,
                    nu_hat: float | None = None, nu_shift: float = 0.2,
                    coarse_tol: float = 1e-12) -> MultigridHierarchy:
    """Construct all levels, smoothers and transfer operators.

    ``nu_hat = None`` builds the Poisson hierarchy; otherwise every level
    discretizes the variable-diffusion operator with the diffusivity
    sampled at its own GLL nodes.
    """
    if p < 2 or (p & (p - 1)) != 0:
        raise ValueError(f"top-level order must be a power of two >= 2, got {p}")
    if smoother not in ("add", "mult"):
        raise ValueError(f"smoother must be 'add' or 'mult', got {smoother!r}")
    depth = p.bit_length() - 1
    counter = SweepCounter() if smoother == "mult" else None
    levels: list[Level] = []
    for l in range(depth + 1):
        p_l = 1 << l
        basis = gll_basis(p_l)
        if nu_hat is None:
            op = PoissonOperator(basis, mesh)
            nu_bar = None
        else:
            nu = diffusivity_field(mesh, basis, nu_hat, nu_shift)
            op = DiffusionOperator(basis, mesh, nu)
            nu_bar = op.element_mean_nu()
        if l == 0:
            lv = Level(l, basis, op, None, 0, 0, 0)
        else:
            n_o = rule.layers(p_l)
            factor = 2 ** (depth - l) if variable else 1
            if smoother == "add":
                sm = AdditiveSchwarz(basis, op.layout, mesh.dx, mesh.dy, n_o,
                                     weight, nu_bar=nu_bar)
            else:
                sm = MultiplicativeSchwarz(basis, op.layout, mesh.dx, mesh.dy,
                                           n_o, nu_bar=nu_bar, counter=counter)
            lv = Level(l, basis, op, sm, n_pre * factor, n_post * factor, n_o)
        if l > 0:
            j = interp_matrix(levels[l - 1].basis, basis)
            lv.px = _global_prolongation(j, 1 << (l - 1), p_l, mesh.n_x)
            lv.py = _global_prolongation(j, 1 << (l - 1), p_l, mesh.n_y)
        levels.append(lv)
    return MultigridHierarchy(mesh, levels, coarse_tol=coarse_tol,
                              sweep_counter=counter)


def prolongate(h: MultigridHierarchy, l: int, coarse: np.ndarray) -> np.ndarray:
    """Interpolate a level l-1 field to level l."""
    if not 1 <= l <= h.depth:
        raise ValueError(f"level must be in [1, {h.depth}], got {l}")
    lv = h.levels[l]
    return lv.py @ coarse @ lv.px.T


def restrict_residual(h: MultigridHierarchy, l: int, fine: np.ndarray) -> np.ndarray:
    """Transpose of prolongation: restrict a level l field to level l-1."""
    if not 1 <= l <= h.depth:
        raise ValueError(f"level must be in [1, {h.depth}], got {l}")
    lv = h.levels[l]
    return lv.py.T @ fine @ lv.px


def _cg(apply_op, b: np.ndarray, tol_rel: float, max_iter: int):
    """Plain CG on fields; returns (x, iterations, converged)."""
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0, True
    p = r.copy()
    rho = np.vdot(r, r)
    for it in range(1, max_iter + 1):
        q = apply_op(p)
        alpha = rho / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= tol_rel * b_norm:
            return x, it, True
        rho_new = np.vdot(r, r)
        p = r + (rho_new / rho) * p
        rho = rho_new
    return x, max_iter, False


def coarse_solve(h: MultigridHierarchy, f0: np.ndarray) -> np.ndarray:
    """Null-space-projected CG solve of the singular p = 1 problem."""
    lv0 = h.levels[0]
    b = project_mean(f0)
    cap = 10 * b.size
    u0, _, converged = _cg(lv0.op.apply, b, h.coarse_tol, cap)
    if not converged:
        h.coarse_cg_exhausted += 1
        log.warning("coarse CG hit its iteration cap (%d); "
                    "possible ill-conditioning", cap)
    return project_mean(u0)


def v_cycle(h: MultigridHierarchy, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """One multigrid V-cycle: descend smoothing/restricting, coarse solve,
    ascend correcting/smoothing.

    Updates the caller's top-level ``u`` in place and returns it; ``f`` is
    left unchanged, and the hierarchy keeps no field between calls.
    """
    L = h.depth
    us, fs = [None] * L + [u], [None] * L + [f]
    for l in range(L, 0, -1):
        lv = h.levels[l]
        if l < L:
            us[l] = np.zeros_like(fs[l])
        if lv.n_pre:
            us[l] = lv.smoother.smooth(lv.op, us[l], fs[l], lv.n_pre)
        fs[l - 1] = restrict_residual(h, l, fs[l] - lv.op.apply(us[l]))
    us[0] = coarse_solve(h, fs[0])
    for l in range(1, L + 1):
        lv = h.levels[l]
        us[l] += prolongate(h, l, us[l - 1])
        if lv.n_post:
            us[l] = lv.smoother.smooth(lv.op, us[l], fs[l], lv.n_post)
    return us[L]
