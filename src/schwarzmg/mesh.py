"""Periodic Cartesian element grid and global coefficient storage.

The mesh is fully periodic and uniform, so element-local views are plain
index windows with modular wrap; no DOF indirection tables are needed.
Global coefficients live in a single dense (N_y, N_x) array, row-major by
y then x, with N_x = p * n_x unique nodes per direction. Every periodic
node index comes from ``periodic_windows``. Every operator apply,
additive sweep and restriction ends in a window product, a factor times
gathered values, summed back onto the nodes one direction at a time;
``fold_product`` does that sum without forming the windows, from the
factor as split once by ``split_factor``. Every fold adds its edge
products one way, bit for bit as element by element, and its open line
serves only the operator apply's y pass, whose windows have n_o = 0.
``Precisions`` holds a kernel's factors in both precisions (the precision
policy is ``krylov``'s), and ``_slab_elements`` sizes the slabs of the
operator apply's loop (``operators._GlobalOperator.apply``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis1D

__all__ = ["MeshConfig", "FieldLayout", "periodic_windows", "split_factor",
           "fold_product", "Precisions", "scratch", "take", "product"]


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


# Bytes of field rows per slab: a quarter of a core's 2 MiB L2, so that
# the few slab-sized intermediates of a pass stay in it. A field of at
# most eight slabs (4 MiB) is one slab.
_SLAB_BYTES = 1 << 19


def _slab_elements(field: np.ndarray, n: int) -> int:
    """Element rows per slab of ``field``, a field of ``n`` element rows:
    all n when it is at most eight slabs, else as many as fill a slab,
    at least one."""
    if field.nbytes <= 8 * _SLAB_BYTES:
        return n
    return max(1, _SLAB_BYTES * n // field.nbytes)


def layout_for(mesh: MeshConfig, p: int) -> FieldLayout:
    return FieldLayout(p=p, n_x=mesh.n_x, n_y=mesh.n_y)


def periodic_windows(p: int, n: int, n_o: int = 0) -> np.ndarray:
    """Global node indices of every element window on a periodic line.

    Row e holds the p + 1 + 2*n_o nodes e*p - n_o ... e*p + p + n_o,
    wrapped modulo the p*n unique nodes; this is the only place a
    periodic node index is computed.
    """
    return (np.arange(n)[:, None] * p + np.arange(-n_o, p + n_o + 1)) % (p * n)


class Precisions(dict):
    """Factors (arrays, tuples of them or None) keyed by dtype, which a
    kernel picks by its field's: float64 as given and float32 cast on
    construction, a factor beyond its range being a ``ValueError``. No
    other dtype has factors, so a field of one fails at the lookup."""

    def __init__(self, *factors):
        def f32(a):
            return (tuple(map(f32, a)) if isinstance(a, tuple)
                    else None if a is None else a.astype(np.float32))
        try:
            with np.errstate(over="raise"):
                super().__init__({np.dtype(np.float64): factors,
                                  np.dtype(np.float32): f32(factors)})
        except FloatingPointError:
            raise ValueError("factors exceed the float32 range") from None


def scratch(ws: dict | None, role: str | None, shape: tuple,
            dtype) -> np.ndarray:
    """An empty array, fresh or, given the pool ``ws`` (``krylov``) and a
    role, a view of that role's buffer, grown to fit."""
    if ws is None or role is None:
        return np.empty(shape, dtype)
    n = np.dtype(dtype).itemsize * math.prod(shape)
    buf = ws.get(role)
    if buf is None or buf.size < n:
        buf = ws[role] = np.empty(n, np.uint8)
    return np.ndarray(shape, dtype, buf)


def take(ws: dict | None, a: np.ndarray, idx: np.ndarray,
         axis: int) -> np.ndarray:
    """``np.take(a, idx, axis)`` into the pool's ``"take"`` buffer; ``idx``
    is always in range, so ``"clip"`` only keeps ``out`` unbuffered."""
    shape = a.shape[:axis] + idx.shape + a.shape[axis + 1:]
    return a.take(idx, axis, scratch(ws, "take", shape, a.dtype), "clip")


def product(ws: dict | None, a: np.ndarray, b: np.ndarray,
            role: str = "prod") -> np.ndarray:
    """``a @ b`` (a or b 2-D) into the ``role`` buffer, which neither views."""
    shape = (a.shape[:-1] + b.shape[-1:] if b.ndim == 2
             else b.shape[:-2] + a.shape[:1] + b.shape[-1:])
    return np.matmul(a, b, scratch(ws, role, shape, np.result_type(a, b)))


def split_factor(F: np.ndarray, axis: int, p: int,
                 n_o: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Split a window factor for ``fold_product``, once per factor.

    F's window nodes are its columns for ``axis=2`` (products t @ F) and
    its rows for ``axis=1`` (products F @ t). Returns two contiguous
    blocks: the own nodes n_o ... n_o + p - 1, and the edge nodes, the
    last n_o + 1 then the first n_o.
    """
    if axis == 2:
        return tuple(b.T.copy() for b in split_factor(F.T, 1, p, n_o))
    return F[n_o:n_o + p].copy(), np.concatenate([F[n_o + p:], F[:n_o]]).copy()


def fold_product(t: np.ndarray, F: tuple[np.ndarray, np.ndarray], axis: int,
                 n: int, wrap: bool = True, ws: dict | None = None,
                 role: str | None = None) -> np.ndarray:
    """Fold of the n windows that are the products of t with the factor
    split by ``split_factor``.

    ``axis=2``: t is (..., n, k), the windows t @ F (..., n, m) and the
    result (..., n*p). ``axis=1``: t is (..., n, k, r), the windows
    F @ t (..., n, m, r) and the result (..., n*p, r). A window of
    m = p + 1 + 2*n_o nodes (0 <= n_o < p) gives its middle p nodes to
    its element e, its last n_o + 1 to the first nodes of element e + 1
    and its first n_o to the last nodes of element e - 1; this is the
    adjoint of ``np.take(x, periodic_windows(p, n, n_o), axis - 1)``. The
    own-node product is written straight into the result, and only the
    edge-node product is added onto the neighbours, first onto e + 1 and
    then onto e - 1, each move as one ``np.add`` per wrap part on views
    (..., node, element, r), in order "C" for ``axis=2``, which keeps the
    n elements innermost, and "K" for ``axis=1``, which keeps the r
    columns innermost. Every node gets the same adds in the same order
    as element by element, so the result is bitwise the same. The result
    has the dtype ``np.result_type`` of t and the factor, so float32
    operands give a float32 fold.

    Given the scratch pool ``ws``, the edge block is its ``"edge"`` buffer
    and the own block, the result's, its ``role`` buffer or else fresh.

    ``wrap=False`` serves only the operator apply's y pass: it folds
    n_o = 0 windows as a stretch of an open line, the wrap part of the
    e + 1 move landing on a trailing element slot, into the n*p + 1 nodes
    up to the first of element n. With n_o > 0 it is a ``ValueError``.
    """
    slot = 0 if wrap else 1  # the open line's trailing element slot
    lead, r = (t.shape[:-2], 1) if axis == 2 else (t.shape[:-3], t.shape[-1])
    blocks = []
    for f, extra, b in zip(F, (slot, 0), (role, "edge")):
        m = f.shape[1] if axis == 2 else len(f)
        w = scratch(ws, b, lead + (n + extra, m, r), np.result_type(t, f))
        o = w[..., :n, :, :]
        if axis == 2:
            np.matmul(t, f, out=o[..., 0])
        else:
            np.matmul(f, t, out=o)
        blocks.append(w)
    own, edge = blocks  # (..., n + slot, p, r) and (..., n, 2 n_o + 1, r)
    p, n_o = own.shape[-2], edge.shape[-2] // 2
    if n_o and not wrap:
        raise ValueError("an open-line fold takes only n_o = 0 windows")
    own[..., n:, :, :] = 0  # the trailing slot; empty when wrapping
    # Each move of edge nodes src onto own nodes dst, a shift of s
    # elements: onto element e + 1 (s = 1) and, when n_o > 0, onto
    # element e - 1 (s = n - 1). The wrap part lands on elements
    # 0 ... s - 1, or on an open line on the trailing slot.
    moves = [(1, slice(0, n_o + 1), slice(0, n_o + 1)),
             (n - 1, slice(n_o + 1, None), slice(p - n_o, p))]
    ov, ev = (w.swapaxes(-2, -3) for w in blocks)  # (..., node, element, r)
    for s, src, dst in moves[:1 + (n_o > 0)]:
        for d, e in ((ov[..., dst, s:n, :], ev[..., src, :n - s, :]),
                     (ov[..., dst, n * slot:n * slot + s, :],
                      ev[..., src, n - s:, :])):
            np.add(d, e, out=d, order="C" if axis == 2 else "K")
    out = own.reshape(own.shape[:-3] + (-1, own.shape[-1]))
    out = out[..., :n * p + slot, :]
    return out[..., 0] if axis == 2 else out


def scatter_blocks(flat: np.ndarray, blocks: np.ndarray,
                   layout: FieldLayout) -> np.ndarray:
    """Scatter-add blocks onto the nodes at raveled indices ``flat``; no
    solver path calls it (bench/layers.py wraps it by name)."""
    out = np.zeros(layout.size)
    np.add.at(out, flat.ravel(), blocks.ravel())
    return out.reshape(layout.N_y, layout.N_x)


def _global_mass(basis: Basis1D, n: int, d: float) -> np.ndarray:
    """Assembled periodic global 1D mass diagonal (the quadrature weights):
    per element its first p weights, the shared node 0 adding the last."""
    w = (d / 2.0) * basis.weights
    own = w[:-1].copy()
    own[0] += w[-1]
    return np.tile(own, n)


def _global_1d(basis: Basis1D, n: int, d: float):
    """Assembled periodic global 1D mass (diagonal) and stiffness matrices."""
    idx = periodic_windows(basis.p, n)
    N = basis.p * n
    stiff = np.zeros((N, N))
    np.add.at(stiff, (idx[:, :, None], idx[:, None, :]), (2.0 / d) * basis.stiff)
    return _global_mass(basis, n, d), stiff
