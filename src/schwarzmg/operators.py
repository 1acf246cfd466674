"""Matrix-free global operators for the Poisson and variable-diffusion problems.

The Poisson operator realizes A = M_y (x) L_x + L_y (x) M_x assembled over
the periodic element grid, applied as one 1D pass per direction (element
stiffness on the gathered windows, folded onto the nodes, times the
assembled mass). The diffusion operator realizes the weak-form Galerkin
discretization of -div(nu grad u) with GLL-collocated quadrature; it
applies element kernels by sum factorization and scatter-adds the blocks.
Both operators expose their element operator as one ``WeakForm`` (for
Poisson, nu = 1), which the multiplicative Schwarz sweep works from.

Dense assembly routines are included as independent test oracles.
"""

from dataclasses import dataclass

import numpy as np

from .basis import Basis1D
from .mesh import (FieldLayout, MeshConfig, _global_1d, _global_mass,
                   all_element_windows, fold_windows, layout_for,
                   periodic_windows, scatter_blocks)

__all__ = ["WeakForm", "PoissonOperator", "DiffusionOperator", "manufactured_rhs_poisson",
           "manufactured_rhs_diffusion", "nodal_coordinates", "project_mean",
           "load_vector", "dense_poisson_matrix", "dense_diffusion_matrix"]


def _check_layout(layout: FieldLayout, u: np.ndarray):
    if u.shape != (layout.N_y, layout.N_x):
        raise ValueError(f"field shape {u.shape} does not match layout "
                         f"({layout.N_y}, {layout.N_x})")


@dataclass(frozen=True, eq=False)
class WeakForm:
    """Element operator of -div(nu grad u) in weak form, GLL-collocated.

    On a (y, x) element block u, A_e u = c_x (nu_w * (u D^T)) D
    + c_y D^T (nu_w * (D u)), with D the 1D derivative matrix, nu_w the
    element's nu times the quadrature weights w (x) w, shape
    (n_y, n_x, p+1, p+1) over all elements, c_x = dy/dx and c_y = dx/dy
    (the (2/d) derivative, (dx/2)(dy/2) quadrature and (2/d) test-gradient
    scalings combined).
    """

    nu_w: np.ndarray
    c_x: float
    c_y: float
    diff: np.ndarray

    @classmethod
    def build(cls, basis: Basis1D, mesh: MeshConfig,
              nu_blocks: np.ndarray | None = None) -> "WeakForm":
        """Factors for the per-element nodal diffusivity blocks
        ``nu_blocks``; None is nu = 1 (Poisson)."""
        w2 = np.outer(basis.weights, basis.weights)
        if nu_blocks is None:
            nu_w = np.broadcast_to(w2, (mesh.n_y, mesh.n_x) + w2.shape)
        else:
            nu_w = nu_blocks * w2
        return cls(nu_w, mesh.dy / mesh.dx, mesh.dx / mesh.dy, basis.diff)

    def kernel(self, blocks: np.ndarray, nu_w: np.ndarray) -> np.ndarray:
        """A_e on a batch of element blocks with their ``nu_w`` factors."""
        d = self.diff
        return (self.c_x * ((nu_w * (blocks @ d.T)) @ d)
                + self.c_y * (d.T @ (nu_w * (d @ blocks))))


class PoissonOperator:
    """Global Poisson operator on one polynomial level of a periodic mesh."""

    def __init__(self, basis: Basis1D, mesh: MeshConfig):
        self.basis = basis
        self.mesh = mesh
        self.layout = layout_for(mesh, basis.p)
        # Scaled 1D element matrices: masses stay diagonal.
        self.mass_x = (mesh.dx / 2.0) * basis.weights
        self.mass_y = (mesh.dy / 2.0) * basis.weights
        self.stiff_x = (2.0 / mesh.dx) * basis.stiff
        self.stiff_y = (2.0 / mesh.dy) * basis.stiff
        self._wx = periodic_windows(basis.p, mesh.n_x)
        self._wy = periodic_windows(basis.p, mesh.n_y)
        self._global_mass_x = _global_mass(basis, mesh.n_x, mesh.dx)
        self._global_mass_y = _global_mass(basis, mesh.n_y, mesh.dy)[:, None]
        self.weak_form = WeakForm.build(basis, mesh)

    def element_kernel(self, block: np.ndarray, e_x=0, e_y=0):
        """Element operator on a (y, x) block or a (..., p+1, p+1) batch."""
        return self.weak_form.kernel(block, self.weak_form.nu_w[e_y, e_x])

    def apply(self, u: np.ndarray) -> np.ndarray:
        _check_layout(self.layout, u)
        p = self.basis.p
        out = fold_windows(np.take(u, self._wx, 1) @ self.stiff_x.T, 2, p)
        out *= self._global_mass_y
        ly = fold_windows(self.stiff_y @ np.take(u, self._wy, 0), 1, p)
        ly *= self._global_mass_x
        out += ly
        return out


class DiffusionOperator:
    """Weak-form Galerkin operator for -div(nu grad u), nu sampled nodally."""

    def __init__(self, basis: Basis1D, mesh: MeshConfig, nu: np.ndarray):
        self.basis = basis
        self.mesh = mesh
        self.layout = layout_for(mesh, basis.p)
        _check_layout(self.layout, nu)
        if np.any(nu <= 0.0):
            raise ValueError("diffusivity must be positive at every node")
        self.nu = nu
        self._gy, self._gx, self._flat = all_element_windows(self.layout)
        self.weak_form = WeakForm.build(basis, mesh, nu[self._gy, self._gx])

    def element_kernel(self, block: np.ndarray, e_x, e_y):
        """Element operator on the block(s) of element(s) (e_y, e_x); the
        indices may be broadcastable arrays over a batch of blocks."""
        return self.weak_form.kernel(block, self.weak_form.nu_w[e_y, e_x])

    def apply(self, u: np.ndarray) -> np.ndarray:
        _check_layout(self.layout, u)
        wf = self.weak_form
        return scatter_blocks(self._flat,
                              wf.kernel(u[self._gy, self._gx], wf.nu_w),
                              self.layout)

    def element_mean_nu(self) -> np.ndarray:
        """Quadrature-weighted mean of nu over each element, shape (n_y, n_x)."""
        return self.weak_form.nu_w.sum(axis=(2, 3)) / 4.0


# ----------------------------------------------------------------------
# Right-hand sides and coordinates


def nodal_coordinates(mesh: MeshConfig, basis: Basis1D):
    """Global node coordinates (X, Y), each of shape (N_y, N_x)."""
    t = (basis.nodes[:-1] + 1) / 2
    x = (np.arange(mesh.n_x)[:, None] + t).ravel() * mesh.dx
    y = (np.arange(mesh.n_y)[:, None] + t).ravel() * mesh.dy
    return np.meshgrid(x, y)


def _global_quadrature(mesh: MeshConfig, basis: Basis1D):
    """Assembled global quadrature weights as an (N_y, N_x) tensor."""
    return np.outer(_global_mass(basis, mesh.n_y, mesh.dy),
                    _global_mass(basis, mesh.n_x, mesh.dx))


def project_mean(f: np.ndarray) -> np.ndarray:
    """Remove the constant component (Euclidean mean) from a field."""
    return f - f.mean()


def load_vector(mesh: MeshConfig, basis: Basis1D, source) -> np.ndarray:
    """Quadrature-weighted Galerkin load for an analytic source g(x, y)."""
    X, Y = nodal_coordinates(mesh, basis)
    return _global_quadrature(mesh, basis) * source(X, Y)


def manufactured_rhs_poisson(mesh: MeshConfig, basis: Basis1D, source) -> np.ndarray:
    """Null-space-projected load vector for the analytic source -lap(u_exact)."""
    return project_mean(load_vector(mesh, basis, source))


def poisson_benchmark(mesh: MeshConfig, basis: Basis1D):
    """Standard test problem u = sin(pi x) sin(pi y): returns (f, u_samples)."""
    def u_exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def source(x, y):
        return 2.0 * np.pi**2 * u_exact(x, y)

    f = manufactured_rhs_poisson(mesh, basis, source)
    X, Y = nodal_coordinates(mesh, basis)
    return f, u_exact(X, Y)


def diffusivity_field(mesh: MeshConfig, basis: Basis1D, nu_hat: float,
                      s: float = 0.2) -> np.ndarray:
    """nu = 1 + nu_hat sin(2 pi (x - s)) sin(2 pi (y - s)) at the level nodes."""
    if not 0.0 <= nu_hat < 1.0:
        raise ValueError(f"diffusivity amplitude must be in [0, 1), got {nu_hat}")
    if not np.isfinite(s):
        raise ValueError(f"diffusivity shift must be finite, got {s}")
    X, Y = nodal_coordinates(mesh, basis)
    return 1.0 + nu_hat * np.sin(2 * np.pi * (X - s)) * np.sin(2 * np.pi * (Y - s))


def manufactured_rhs_diffusion(mesh: MeshConfig, basis: Basis1D, nu_hat: float,
                               s: float = 0.2):
    """Variable-diffusion test problem with u = sin(2 pi x) sin(2 pi y).

    Returns (f, nu, u_samples); f is the quadrature-weighted, mean-projected
    load for the analytic source f = -(nu lap u + grad nu . grad u).
    """
    nu = diffusivity_field(mesh, basis, nu_hat, s)
    two_pi = 2.0 * np.pi

    def source(x, y):
        u = np.sin(two_pi * x) * np.sin(two_pi * y)
        ux = two_pi * np.cos(two_pi * x) * np.sin(two_pi * y)
        uy = two_pi * np.sin(two_pi * x) * np.cos(two_pi * y)
        lap_u = -2.0 * two_pi**2 * u
        nu_v = 1.0 + nu_hat * np.sin(two_pi * (x - s)) * np.sin(two_pi * (y - s))
        nx = two_pi * nu_hat * np.cos(two_pi * (x - s)) * np.sin(two_pi * (y - s))
        ny = two_pi * nu_hat * np.sin(two_pi * (x - s)) * np.cos(two_pi * (y - s))
        return -(nu_v * lap_u + nx * ux + ny * uy)

    f = project_mean(load_vector(mesh, basis, source))
    X, Y = nodal_coordinates(mesh, basis)
    u_samples = np.sin(two_pi * X) * np.sin(two_pi * Y)
    return f, nu, u_samples


# ----------------------------------------------------------------------
# Dense assembly oracles (testing only; they share nothing with the
# sum-factorized apply path above but the periodic window indices)


def dense_poisson_matrix(basis: Basis1D, mesh: MeshConfig) -> np.ndarray:
    """A = kron(M_y, L_x) + kron(L_y, M_x) from assembled global 1D matrices."""
    mx, lx = _global_1d(basis, mesh.n_x, mesh.dx)
    my, ly = _global_1d(basis, mesh.n_y, mesh.dy)
    return np.kron(np.diag(my), lx) + np.kron(ly, np.diag(mx))


def dense_diffusion_matrix(basis: Basis1D, mesh: MeshConfig,
                           nu: np.ndarray) -> np.ndarray:
    """Element-by-element dense assembly of the variable-diffusion operator."""
    layout = layout_for(mesh, basis.p)
    iy, ix, flat = all_element_windows(layout)
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
    idx = flat.reshape(-1, m2)
    A = np.zeros((layout.size, layout.size))
    np.add.at(A, (idx[:, :, None], idx[:, None, :]), k)
    return A
