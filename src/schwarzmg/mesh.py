"""Periodic Cartesian element grid and global coefficient storage.

The mesh is fully periodic and uniform, so element-local views are plain
index windows with modular wrap; no DOF indirection tables are needed.
Global coefficients live in a single dense (N_y, N_x) array, row-major by
y then x, with N_x = p * n_x unique nodes per direction. Every periodic
node index comes from ``periodic_windows``, and ``fold_windows`` sums
window values back onto the nodes, one direction at a time.
"""

from dataclasses import dataclass

import numpy as np

from .basis import Basis1D

__all__ = ["MeshConfig", "FieldLayout", "periodic_windows", "fold_windows"]


@dataclass(frozen=True)
class MeshConfig:
    """Element counts and extents of the periodic rectangular domain."""

    n_x: int
    n_y: int
    l_x: float = 2.0
    l_y: float = 2.0

    def __post_init__(self):
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError("need at least 2 elements per direction")
        if not (0.0 < self.l_x < np.inf and 0.0 < self.l_y < np.inf):
            raise ValueError("domain extents must be finite and positive")

    @property
    def dx(self) -> float:
        return self.l_x / self.n_x

    @property
    def dy(self) -> float:
        return self.l_y / self.n_y

    @property
    def aspect_ratio(self) -> float:
        return self.dx / self.dy

    @property
    def n_el(self) -> int:
        return self.n_x * self.n_y


@dataclass(frozen=True)
class FieldLayout:
    """Unique global node counts for one polynomial level of a mesh."""

    p: int
    n_x: int
    n_y: int

    @property
    def N_x(self) -> int:
        return self.p * self.n_x

    @property
    def N_y(self) -> int:
        return self.p * self.n_y

    @property
    def size(self) -> int:
        return self.N_x * self.N_y

    def zeros(self) -> np.ndarray:
        return np.zeros((self.N_y, self.N_x))


def layout_for(mesh: MeshConfig, p: int) -> FieldLayout:
    return FieldLayout(p=p, n_x=mesh.n_x, n_y=mesh.n_y)


def periodic_windows(p: int, n: int, n_o: int = 0) -> np.ndarray:
    """Global node indices of every element window on a periodic line.

    Row e holds the p + 1 + 2*n_o nodes e*p - n_o ... e*p + p + n_o,
    wrapped modulo the p*n unique nodes; this is the only place a
    periodic node index is computed.
    """
    return (np.arange(n)[:, None] * p + np.arange(-n_o, p + n_o + 1)) % (p * n)


def fold_windows(w: np.ndarray, axis: int, p: int, n_o: int = 0) -> np.ndarray:
    """Adjoint of ``np.take(x, periodic_windows(p, n, n_o), axis - 1)``.

    The n windows of p + 1 + 2*n_o nodes (0 <= n_o < p) on axes
    (axis - 1, axis) become one axis of n*p nodes: window e gives its
    middle p nodes to element e, its last n_o + 1 to the first nodes of
    element e + 1 and its first n_o to the last nodes of element e - 1.
    """
    n = w.shape[axis - 1]
    at = (slice(None),) * (axis - 1)
    out = w[at + (slice(None), slice(n_o, n_o + p))].copy()
    for s, src, dst in ((1, slice(n_o + p, None), slice(0, n_o + 1)),
                        (n - 1, slice(0, n_o), slice(p - n_o, p))):
        out[at + (slice(s, None), dst)] += w[at + (slice(0, n - s), src)]
        out[at + (slice(0, s), dst)] += w[at + (slice(n - s, None), src)]
    return out.reshape(w.shape[:axis - 1] + (n * p,) + w.shape[axis + 1:])


def all_element_windows(layout: FieldLayout, n_o: int = 0):
    """Broadcastable gather indices and flat scatter indices for every element.

    Returns (gy, gx, flat) where values[gy, gx] yields an array of shape
    (n_y, n_x, m, m) with m = p + 1 + 2*n_o, and ``flat`` are the raveled
    global indices for bincount-style scatter-add.
    """
    gy = periodic_windows(layout.p, layout.n_y, n_o)[:, None, :, None]
    gx = periodic_windows(layout.p, layout.n_x, n_o)[None, :, None, :]
    return gy, gx, np.ascontiguousarray(gy * layout.N_x + gx)


def scatter_blocks(flat: np.ndarray, blocks: np.ndarray, layout: FieldLayout,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Scatter-add per-element blocks into a global array via bincount."""
    acc = np.bincount(flat.ravel(), weights=blocks.ravel(),
                      minlength=layout.size).reshape(layout.N_y, layout.N_x)
    if out is None:
        return acc
    out += acc
    return out


def _global_mass(basis: Basis1D, n: int, d: float) -> np.ndarray:
    """Assembled periodic global 1D mass diagonal (the quadrature weights)."""
    idx = periodic_windows(basis.p, n)
    return np.bincount(idx.ravel(), weights=np.tile((d / 2.0) * basis.weights, n),
                       minlength=basis.p * n)


def _global_1d(basis: Basis1D, n: int, d: float):
    """Assembled periodic global 1D mass (diagonal) and stiffness matrices."""
    idx = periodic_windows(basis.p, n)
    N = basis.p * n
    stiff = np.zeros((N, N))
    np.add.at(stiff, (idx[:, :, None], idx[:, None, :]), (2.0 / d) * basis.stiff)
    return _global_mass(basis, n, d), stiff
