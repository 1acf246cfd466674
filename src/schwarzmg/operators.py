"""Matrix-free global operators for the Poisson and variable-diffusion problems.

The Poisson operator realizes A = M_y (x) L_x + L_y (x) M_x assembled over
the periodic element grid, applied as one 1D pass per direction (the
gathered windows times the element stiffness, folded onto the nodes by
``fold_product``, times the assembled mass). The diffusion operator
realizes the weak-form Galerkin discretization of -div(nu grad u) with
GLL-collocated quadrature, applied the same way, with nu w times the
assembled weight of the other direction between the derivative and the
test derivative, the test derivative being the folded factor. Both run
the slab loop of ``_GlobalOperator.apply``, in the dtype of their field
(the precision policy is ``krylov``'s).

The manufactured right sides allocate only the fields they return and
weight their loads by the two assembled 1D masses in place, the y mass
(a column) and then the x mass (a row): a source is evaluated slab by
slab of element rows (``mesh._slab_elements``) into one field, and the
Poisson load weights its sampled u; every value is the whole-field
formula's.

The dense assembly routines share nothing with the sum-factorized apply
but the periodic window indices, so they are the apply tests' independent
oracles; ``dense_diffusion_matrix`` also builds the small diffusion coarse
matrix that ``MultigridHierarchy`` inverts once.
"""

import numpy as np

from .basis import Basis1D
# Only for bench/layers.py, which wraps ``operators.scatter_blocks`` by name.
from .mesh import (FieldLayout, MeshConfig, Pool, Precisions, _global_1d,
                   _global_mass, _slab_elements, fold_product,
                   layout_for, periodic_windows, product, scatter_blocks,
                   split_factor, take)

__all__ = ["PoissonOperator", "DiffusionOperator", "manufactured_rhs_diffusion",
           "nodal_coordinates", "project_mean", "load_vector",
           "dense_poisson_matrix", "dense_diffusion_matrix"]


def _check_layout(layout: FieldLayout, u: np.ndarray):
    if u.shape != (layout.N_y, layout.N_x):
        raise ValueError(f"field shape {u.shape} does not match layout "
                         f"({layout.N_y}, {layout.N_x})")


class _GlobalOperator:
    """What both operators share on one polynomial level: the basis, the
    mesh, the field layout, the nodal nu (None for Poisson: unit
    diffusivity; the only stored diffusivity), the element window tables,
    the element kernel and the slab loop of ``apply``. Each operator
    binds ``_x_pass``, its x pass on the node rows u, to the windows and
    factor to fold, and ``_y_pass``, the fold of its y pass on a run of
    element rows; ``_masses`` finishes the folds (by default as they are)."""

    def __init__(self, basis: Basis1D, mesh: MeshConfig,
                 nu: np.ndarray | None = None):
        self.basis = basis
        self.mesh = mesh
        self.layout = layout_for(mesh, basis.p)
        self.nu = nu
        self._wx = periodic_windows(basis.p, mesh.n_x)
        self._wy = periodic_windows(basis.p, mesh.n_y)

    def apply(self, u: np.ndarray, f: np.ndarray | None = None,
              out: np.ndarray | None = None, ws=None):
        """A u, or the residual f - A u when ``f`` is given, in u's dtype.

        On a large field the loop takes one slab of element rows at a time
        (loop tiling for locality; Wolf & Lam, PLDI 1991), so that every
        intermediate of a pass stays in a core's cache; ``_slab_elements``
        sizes the slab from the field's bytes. Per slab it runs the x pass
        on its node rows, the y pass on its element windows (n_o = 0),
        folded on an open line (``fold_product`` with ``wrap=False``), and
        their sum (subtracted from f), finishing the slabs in order. The
        fold's last row, the slab's last edge, is carried onto the next
        slab's first row. The first slab's carry, the edge of element row
        n - 1, comes from a fold of that one row before the loop; a field
        of one slab adds its own fold's last row onto row 0. Every node
        gets the same operations in the same order for any slab size, so
        the result does not depend on it. A field of one slab runs the
        plan ``_slab`` bound in the scratch pool ``ws`` (``krylov``); a
        slab's carry outlives its fold, so a field of more slabs binds each
        slab afresh.

        Given ``out``, each slab of the result is rounded into it, whose
        dtype may be coarser than u's, then squared in place while in
        cache; it returns (out, norm), the norm of the result as computed,
        from per-element-row sums added in row order, so it too does not
        depend on the slab size. An entry beyond out's range is stored as
        inf, silently: the norm tells.
        """
        _check_layout(self.layout, u)
        n = self.mesh.n_y
        k = _slab_elements(u, n)
        pool = Pool.of(ws if k == n else None)
        sums = None if out is None else np.empty(n)  # squares per row
        # The result's field, or None where it is the x pass's fresh array.
        into = None if out is not None or k == n else np.empty_like(u)
        carry = self._y_pass(pool, u, slice(n - 1, n))[-1] if k < n else None
        for e0 in range(0, n, k):
            es = slice(e0, min(e0 + k, n))
            carry, o = pool.plan((self, u.dtype, out is None), lambda pool: (
                self._slab(pool, u, es, out is None)), u, f, into, out, carry,
                sums)
        if out is not None:
            return out, float(np.sqrt(sums.sum()))
        return o if into is None else into

    def _slab(self, pool, u, es, fresh):
        """Binds the apply on the element rows ``es`` of fields like u, its x
        fold fresh or in ``"own"``: finish(u, f, into, out, carry, sums)."""
        p = self.basis.p
        rows = slice(es.start * p, es.stop * p)
        # No name holds the x windows: unpooled, they are freed here.
        x = fold_product(pool, *self._x_pass(
            pool, u if rows == slice(0, len(u)) else u[rows], rows), 2,
            self.mesh.n_x, role="own", fresh=fresh)
        y = self._y_pass(pool, u, es)
        y0, last, y = y[0], y[-1], y[:-1]
        x_mass, y_mass = self._masses(self._factors[u.dtype], rows)

        def finish(u, f, into, out, carry, sums):
            x_rows = x.pop() if fresh else x
            if x_mass is not None:
                np.multiply(x_rows, x_mass, out=x_rows)
            np.add(y0, last if carry is None else carry, out=y0)
            if y_mass is not None:
                np.multiply(y, y_mass, out=y)
            o = x_rows if into is None else into[rows]
            np.add(x_rows, y, out=o)
            if f is not None:
                np.subtract(f[rows], o, out=o)
            if out is not None:
                with np.errstate(over="ignore"):
                    out[rows] = o
                    np.multiply(o, o, out=o)
                sums[es] = o.reshape(-1, p * o.shape[1]).sum(axis=1)
            return last, o
        return finish

    def _masses(self, F, rows):
        """The scales of the x fold on ``rows`` and the y fold, or None."""
        return None, None

    def _nu_w(self, e_x, e_y) -> np.ndarray:
        """nu (w (x) w) on the (y, x) block(s) of element(s) (e_y, e_x),
        whose indices may be broadcastable arrays."""
        w2 = np.outer(self.basis.weights, self.basis.weights)
        if self.nu is None:
            return w2
        return self.nu[self._wy[e_y][..., :, None],
                       self._wx[e_x][..., None, :]] * w2

    def element_kernel(self, blocks: np.ndarray, e_x=0, e_y=0) -> np.ndarray:
        """Weak-form element operator of -div(nu grad u) on the (y, x)
        block(s) u of element(s) (e_y, e_x), whose indices may be
        broadcastable arrays over a batch of blocks:
        A_e u = c_x (nu_w * (u D^T)) D + c_y D^T (nu_w * (D u)), with D the
        1D derivative matrix, nu_w = nu (w (x) w), c_x = dy/dx and
        c_y = dx/dy (the 2/d derivative and test gradient times the
        (dx/2)(dy/2) quadrature). No solver path calls it (bench/layers.py
        wraps it by name); ROADMAP item 1b deletes it."""
        d, nu_w, mesh = self.basis.diff, self._nu_w(e_x, e_y), self.mesh
        return (mesh.dy / mesh.dx * ((nu_w * (blocks @ d.T)) @ d)
                + mesh.dx / mesh.dy * (d.T @ (nu_w * (d @ blocks))))


class PoissonOperator(_GlobalOperator):
    """Global Poisson operator on one polynomial level of a periodic mesh."""

    def __init__(self, basis: Basis1D, mesh: MeshConfig):
        super().__init__(basis, mesh)
        # The x and y folded stiffness, and the assembled x and y mass.
        self._factors = Precisions(
            split_factor((2.0 / mesh.dx) * basis.stiff.T, 2, basis.p),
            split_factor((2.0 / mesh.dy) * basis.stiff, 1, basis.p),
            _global_mass(basis, mesh.n_x, mesh.dx),
            _global_mass(basis, mesh.n_y, mesh.dy)[:, None])

    def _x_pass(self, pool, u, rows):
        return take(pool, u, self._wx, 1), self._factors[u.dtype][0]

    def _y_pass(self, pool, u, es):
        t = take(pool, u, self._wy[es], 0)
        return fold_product(pool, t, self._factors[u.dtype][1], 1,
                            es.stop - es.start, wrap=False)

    def _masses(self, F, rows):
        return F[3][rows], F[2]


class DiffusionOperator(_GlobalOperator):
    """Weak-form Galerkin operator for -div(nu grad u), nu sampled nodally."""

    def __init__(self, basis: Basis1D, mesh: MeshConfig, nu: np.ndarray):
        super().__init__(basis, mesh, nu)
        _check_layout(self.layout, nu)
        if np.any(nu <= 0.0):
            raise ValueError("diffusivity must be positive at every node")
        # Per direction, nu w on the windows times the other direction's
        # assembled mass and (2/d)^2 (d/2) for the derivative, test gradient
        # and quadrature along it: shapes (N_y, n_x, p+1), (n_y, p+1, N_x);
        # with the derivative matrix and its x and y folded factors.
        w = basis.weights
        self._factors = Precisions(
            basis.diff,
            (2.0 / mesh.dx) * np.take(nu, self._wx, 1) * w
            * _global_mass(basis, mesh.n_y, mesh.dy)[:, None, None],
            (2.0 / mesh.dy) * np.take(nu, self._wy, 0) * w[:, None]
            * _global_mass(basis, mesh.n_x, mesh.dx),
            split_factor(basis.diff, 2, basis.p),
            split_factor(basis.diff.T, 1, basis.p))

    def _x_pass(self, pool, u, rows):
        d, fx, _, fold_x, _ = self._factors[u.dtype]
        t = product(pool, take(pool, u, self._wx, 1), d.T)
        pool.bound(np.multiply, t, fx[rows], t)
        return t, fold_x

    def _y_pass(self, pool, u, es):
        d, _, fy, _, fold_y = self._factors[u.dtype]
        t = product(pool, d, take(pool, u, self._wy[es], 0))
        pool.bound(np.multiply, t, fy[es], t)
        return fold_product(pool, t, fold_y, 1, es.stop - es.start,
                            wrap=False)

    def element_mean_nu(self) -> np.ndarray:
        """Quadrature-weighted mean of nu over each element, shape (n_y, n_x)."""
        e_y, e_x = np.ogrid[:self.mesh.n_y, :self.mesh.n_x]
        return self._nu_w(e_x, e_y).sum(axis=(2, 3)) / 4.0


# ----------------------------------------------------------------------
# Right-hand sides and coordinates


def nodal_coordinates(mesh: MeshConfig, basis: Basis1D):
    """Global node coordinates (X, Y), (1, N_x) and (N_y, 1): a sparse grid."""
    t = (basis.nodes[:-1] + 1) / 2
    x = (np.arange(mesh.n_x)[:, None] + t).ravel() * mesh.dx
    y = (np.arange(mesh.n_y)[:, None] + t).ravel() * mesh.dy
    return np.meshgrid(x, y, sparse=True)


def project_mean(f: np.ndarray) -> np.ndarray:
    """Remove the constant component (Euclidean mean) from a field."""
    return f - f.mean()


def load_vector(mesh: MeshConfig, basis: Basis1D, source) -> np.ndarray:
    """Quadrature-weighted Galerkin load for an analytic source g(x, y),
    evaluated slab by slab into the one field returned, times the
    assembled y mass of the slab's rows and then the x mass."""
    X, Y = nodal_coordinates(mesh, basis)
    m_y = _global_mass(basis, mesh.n_y, mesh.dy)[:, None]
    f = np.empty((len(Y), X.shape[1]))
    k = _slab_elements(f, mesh.n_y) * basis.p
    for rows in (slice(r, r + k) for r in range(0, len(f), k)):
        np.multiply(source(X, Y[rows]), m_y[rows], out=f[rows])
    f *= _global_mass(basis, mesh.n_x, mesh.dx)
    return f


def poisson_benchmark(mesh: MeshConfig, basis: Basis1D):
    """Standard test problem u = sin(pi x) sin(pi y): returns (f, u_samples),
    f the null-space-projected load for the analytic source -lap(u)."""
    X, Y = nodal_coordinates(mesh, basis)
    # Sampled whole: slab by slab, through load_vector, was slower at p=32.
    u = np.sin(np.pi * X) * np.sin(np.pi * Y)
    f = 2.0 * np.pi**2 * u
    f *= _global_mass(basis, mesh.n_y, mesh.dy)[:, None]
    f *= _global_mass(basis, mesh.n_x, mesh.dx)
    f -= f.mean()
    return f, u


# The diffusivity's shift s: every variable-diffusion problem is the one
# manufactured problem with s = 0.2.
NU_SHIFT = 0.2


def _nu(x, y, nu_hat: float):
    """nu = 1 + nu_hat sin(2 pi (x - s)) sin(2 pi (y - s)), s = ``NU_SHIFT``."""
    return (1.0 + nu_hat * np.sin(2 * np.pi * (x - NU_SHIFT))
            * np.sin(2 * np.pi * (y - NU_SHIFT)))


def diffusivity_field(mesh: MeshConfig, basis: Basis1D,
                      nu_hat: float) -> np.ndarray:
    """The diffusivity ``_nu`` at the level nodes."""
    if not 0.0 <= nu_hat < 1.0:
        raise ValueError(f"diffusivity amplitude must be in [0, 1), got {nu_hat}")
    return _nu(*nodal_coordinates(mesh, basis), nu_hat)


def manufactured_rhs_diffusion(mesh: MeshConfig, basis: Basis1D, nu_hat: float):
    """Variable-diffusion test problem with u = sin(2 pi x) sin(2 pi y) and
    the diffusivity ``_nu``.

    Returns (f, u_samples); f is the quadrature-weighted, mean-projected
    load for the analytic source f = -(nu lap u + grad nu . grad u).
    """
    two_pi = 2.0 * np.pi
    s = NU_SHIFT

    def source(x, y):
        u = np.sin(two_pi * x) * np.sin(two_pi * y)
        ux = two_pi * np.cos(two_pi * x) * np.sin(two_pi * y)
        uy = two_pi * np.sin(two_pi * x) * np.cos(two_pi * y)
        lap_u = -2.0 * two_pi**2 * u
        nx = two_pi * nu_hat * np.cos(two_pi * (x - s)) * np.sin(two_pi * (y - s))
        ny = two_pi * nu_hat * np.sin(two_pi * (x - s)) * np.cos(two_pi * (y - s))
        return -(_nu(x, y, nu_hat) * lap_u + nx * ux + ny * uy)

    f = load_vector(mesh, basis, source)
    f -= f.mean()
    X, Y = nodal_coordinates(mesh, basis)
    return f, np.sin(two_pi * X) * np.sin(two_pi * Y)


# ----------------------------------------------------------------------
# Dense assembly


def dense_poisson_matrix(basis: Basis1D, mesh: MeshConfig) -> np.ndarray:
    """A = kron(M_y, L_x) + kron(L_y, M_x) from assembled global 1D matrices."""
    mx, lx = _global_1d(basis, mesh.n_x, mesh.dx)
    my, ly = _global_1d(basis, mesh.n_y, mesh.dy)
    return np.kron(np.diag(my), lx) + np.kron(ly, np.diag(mx))


def dense_diffusion_matrix(basis: Basis1D, mesh: MeshConfig,
                           nu: np.ndarray) -> np.ndarray:
    """Element-by-element dense assembly of the variable-diffusion operator."""
    layout = layout_for(mesh, basis.p)
    iy = periodic_windows(basis.p, mesh.n_y)[:, None, :, None]
    ix = periodic_windows(basis.p, mesh.n_x)[None, :, None, :]
    m2 = (basis.p + 1) ** 2
    eye = np.eye(basis.p + 1)
    gx = np.kron(eye, basis.diff)   # d/dxi on vec(y slow, x fast)
    gy = np.kron(basis.diff, eye)
    # Quadrature weight times nu, per element and local node.
    wnu = (np.outer(basis.weights, basis.weights).ravel()
           * nu[iy, ix].reshape(-1, m2))[:, :, None]
    cx = mesh.dy / mesh.dx
    cy = mesh.dx / mesh.dy
    k = cx * gx.T @ (wnu * gx) + cy * gy.T @ (wnu * gy)
    idx = (iy * layout.N_x + ix).reshape(-1, m2)
    A = np.zeros((layout.size, layout.size))
    np.add.at(A, (idx[:, :, None], idx[:, None, :]), k)
    return A
