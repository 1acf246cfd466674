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
policy is ``krylov``'s), ``_slab_elements`` sizes the slabs of the
operator apply's loop (``operators._GlobalOperator.apply``), and
``take``, ``product`` and ``fold_product`` bind in a ``Pool``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis1D

__all__ = ["MeshConfig", "FieldLayout", "periodic_windows", "split_factor",
           "fold_product", "Precisions", "Pool", "take", "product"]


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


class Pool(dict):
    """A solve's scratch pool (``krylov``): a byte buffer per role, and in
    ``plans`` the kernels bound on them. A step writes its named role or
    the first of ``"take"`` and ``"prod"`` it does not read (each step
    reads the one before). An eager pool makes each step as it is bound,
    on fresh arrays, and keeps nothing: one unpooled call."""

    def __init__(self, eager: bool = False):
        super().__init__()
        self.plans, self.eager = {}, eager

    @staticmethod
    def of(ws: "Pool | None") -> "Pool":
        return Pool(eager=True) if ws is None else ws

    def view(self, shape: tuple, dtype, *reads, role=None) -> np.ndarray:
        """A view of a role's buffer, grown to fit, that shares no memory
        with ``reads``, the arrays of the step that writes it."""
        if self.eager:
            return np.empty(shape, dtype)
        if role is None:
            role = "prod" if "take" in self and any(
                np.may_share_memory(self["take"], a) for a in reads) else "take"
        n = np.dtype(dtype).itemsize * math.prod(shape)
        if len(self.get(role, b"")) < n:
            grown = role in self  # plans, and this bind, view the old one
            self[role] = np.empty(n, np.uint8)
            if grown:
                self.plans.clear()
                raise _Regrow
        out = np.ndarray(shape, dtype, self[role])
        if any(np.may_share_memory(out, a) for a in reads):
            raise ValueError("a bound kernel would write the buffer it reads")
        return out

    def bound(self, step, *args):
        """Makes ``step(*args)`` now, if eager; else adds it to the plan
        being bound."""
        if self.eager:
            return step(*args)
        self.steps.append((step, args))

    def plan(self, key, bind, x, *rest):
        """Runs the kernel bound under ``key`` on the input x: its steps,
        in which a first argument that is the bind's x is each call's,
        then finish(x, *rest), ``finish = bind(self)``, which it returns.
        A bind that outgrows a buffer frees it and every plan, and binds
        again on a buffer of the size it asked for."""
        run = self.plans.get(key)
        while run is None:
            self.steps = []
            try:
                finish = bind(self)
            except _Regrow:
                continue
            if self.eager:
                return finish(x, *rest)
            steps = [(step, args[1:], True) if args[0] is x else
                     (step, args, False) for step, args in self.steps]
            self.steps = []  # which held this bind's input

            def run(x, *rest):
                for step, args, reads in steps:
                    step(x, *args) if reads else step(*args)
                return finish(x, *rest)
            self.plans[key] = run
        return run(x, *rest)


class _Regrow(Exception):
    """A bind outgrew the buffer of a role (``Pool.plan``)."""


def take(pool, a: np.ndarray, idx: np.ndarray, axis) -> np.ndarray:
    """Binds ``np.take(a, idx, axis)`` (``axis=None``: of a flattened) into
    a pool view, which it returns; ``idx`` is always in range, so
    ``"clip"`` only keeps the view unbuffered."""
    shape = (idx.shape if axis is None
             else a.shape[:axis] + idx.shape + a.shape[axis + 1:])
    out = pool.view(shape, a.dtype, a)
    pool.bound(np.ndarray.take, a, idx, axis, out, "clip")
    return out


def product(pool, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Binds ``a @ b`` (a or b 2-D) into a pool view, which it returns."""
    shape = (a.shape[:-1] + b.shape[-1:] if b.ndim == 2
             else b.shape[:-2] + a.shape[:1] + b.shape[-1:])
    out = pool.view(shape, np.result_type(a, b), a, b)
    pool.bound(np.matmul, a, b, out)
    return out


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


def fold_product(pool, t: np.ndarray, F: tuple[np.ndarray, np.ndarray],
                 axis: int, n: int, wrap: bool = True, role=None,
                 fresh: bool = False):
    """Binds the fold of the n windows that are the products of t with the
    factor split by ``split_factor`` into a pool view, of ``role`` if
    given, and returns it; or, if ``fresh``, returns a list onto which each
    call appends its fold in a fresh array, for the kernel to pop.

    ``axis=2``: t is (..., n, k), the windows t @ F (..., n, m) and the
    result (..., n*p). ``axis=1``: t is (..., n, k, r), the windows
    F @ t (..., n, m, r) and the result (..., n*p, r). A window of
    m = p + 1 + 2*n_o nodes (0 <= n_o < p) gives its middle p nodes to
    its element e, its last n_o + 1 to the first nodes of element e + 1
    and its first n_o to the last nodes of element e - 1; this is the
    adjoint of ``np.take(x, periodic_windows(p, n, n_o), axis - 1)``. The
    own-node product is written straight into the result, and only the
    edge-node product, in the ``"edge"`` buffer, is added onto the
    neighbours, first onto e + 1 and then onto e - 1, each move as one
    ``np.add`` per wrap part on views (..., node, element, r), in order
    "C" for ``axis=2``, which keeps the n elements innermost, and "K" for
    ``axis=1``, which keeps the r columns innermost. Every node gets the
    same adds in the same order as element by element, so the result is
    bitwise the same. The result has the dtype ``np.result_type`` of t
    and the factor, so float32 operands give a float32 fold.

    ``wrap=False`` serves only the operator apply's y pass: it folds
    n_o = 0 windows as a stretch of an open line, the wrap part of the
    e + 1 move landing on a trailing element slot, into the n*p + 1 nodes
    up to the first of element n. With n_o > 0 it is a ``ValueError``.
    """
    slot = 0 if wrap else 1  # the open line's trailing element slot
    lead, r = (t.shape[:-2], 1) if axis == 2 else (t.shape[:-3], t.shape[-1])
    dtype = np.result_type(t, F[0])
    shape = lead + (n + slot, F[0].shape[axis - 1], r)  # own (..., n, m, r)
    edge = pool.view(lead + (n, F[1].shape[axis - 1], r), dtype, t,
                     role="edge")
    p, n_o = shape[-2], edge.shape[-2] // 2
    if n_o and not wrap:
        raise ValueError("an open-line fold takes only n_o = 0 windows")
    # Each move of edge nodes src onto own nodes dst, a shift of s
    # elements: onto element e + 1 (s = 1) and, when n_o > 0, onto
    # element e - 1 (s = n - 1). The wrap part lands on elements
    # 0 ... s - 1, or on an open line on the trailing slot.
    moves = [(1, slice(0, n_o + 1), slice(0, n_o + 1)),
             (n - 1, slice(n_o + 1, None), slice(p - n_o, p))][:1 + (n_o > 0)]
    ev = edge.swapaxes(-2, -3)  # (..., node, element, r)
    dsts, srcs = zip(*[pair for s, src, dst in moves for pair in (
        ((..., dst, slice(s, n), slice(None)), ev[..., src, :n - s, :]),
        ((..., dst, slice(n * slot, n * slot + s), slice(None)),
         ev[..., src, n - s:, :]))])
    gemm = (..., slice(0, n), slice(None), 0 if axis == 2 else slice(None))
    edge_out, order = edge[gemm], "C" if axis == 2 else "K"
    # The result: own's nodes up to n*p + slot, (..., node[, r]).
    flat = lead + ((n + slot) * p,) + ((r,) if axis == 1 else ())
    head = (..., slice(0, n * p + slot)) + ((slice(None),) if axis == 1 else ())

    def views(own):  # the own block's out, trailing slot and add targets
        ov, tail = own.swapaxes(-2, -3), own[..., n:, :, :] if slot else None
        return own[gemm], tail, [ov[d] for d in dsts]

    def step(t, own_out, tail, adds):
        for f, o in zip(F, (own_out, edge_out)):
            np.matmul(*((t, f) if axis == 2 else (f, t)), out=o)
        if slot:
            tail.fill(0)
        for d, e in zip(adds, srcs):
            np.add(d, e, out=d, order=order)

    if fresh:
        made = []

        def fold(t):
            own = np.empty(shape, dtype)
            step(t, *views(own))
            made.append(own.reshape(flat)[head])
        pool.bound(fold, t)
        return made
    own = pool.view(shape, dtype, t, role=role)
    pool.bound(step, t, *views(own))
    return own.reshape(flat)[head]


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
