"""Spatial discretization: cell-centered Cartesian boxes and radial shells.

Every grid is cell-centered, so no node coincides with the coordinate
origin and the inverse-power potential is finite at every node without
regularization.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = [
    "Grid",
    "Field",
    "PotentialSpec",
    "GridError",
    "InvalidFieldError",
    "make_grid",
    "mass",
    "mass_fourier",
    "gradient_norm_sq",
    "weighted_norm",
    "h1_norm",
    "radius_weight",
    "spectral_gradient",
    "radial_derivative",
    "apply_laplacian",
    "boundary_shell_mass_fraction",
]

# surface measure of the unit sphere S^{d-1}; d=1 counts both half-lines
SURFACE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


class GridError(ValueError):
    """Invalid grid construction parameters."""


class InvalidFieldError(ValueError):
    """A field contains NaN/Inf values and must not be used further."""


class Grid:
    """Cell-centered spatial grid, Cartesian ([-L, L)^d) or radial ((0, r_max)).

    Immutable after construction; instances are shared freely between
    operations and workers.
    """

    def __init__(self, d, mode, n=0, L=0.0, n_r=0, r_max=0.0):
        if d not in (1, 2, 3):
            raise GridError(f"invalid-dimension: d={d} not in {{1,2,3}}")
        if mode not in ("cartesian", "radial"):
            raise GridError(f"unknown grid mode {mode!r}")
        self.d = int(d)
        self.mode = mode
        if mode == "cartesian":
            n = int(n)
            if n < 8:
                raise GridError(f"resolution-too-small: n={n} < 8")
            if n & (n - 1):
                raise GridError(f"n={n} must be a power of two")
            if L <= 0:
                raise GridError(f"box half-width L={L} must be positive")
            self.n = n
            self.L = float(L)
            self.dx = 2.0 * self.L / n
            # nodes at -L + (i + 1/2) dx; none at the origin
            self.axis = -self.L + (np.arange(n) + 0.5) * self.dx
            # wavenumbers (pi/L) * {-n/2, ..., n/2 - 1} in FFT order
            self.k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
            self.shape = (n,) * d
            self.cell_volume = self.dx**d
            self._k_sq = None
            self._r = None
        else:
            n_r = int(n_r)
            if n_r < 8:
                raise GridError(f"resolution-too-small: n_r={n_r} < 8")
            if r_max <= 0:
                raise GridError(f"r_max={r_max} must be positive")
            self.n_r = n_r
            self.r_max = float(r_max)
            self.dr = self.r_max / n_r
            self.r = (np.arange(n_r) + 0.5) * self.dr
            self.shape = (n_r,)
            # conservative flux form of u'' + (d-1)/r u' on cell faces j*dr;
            # zero flux through the origin, homogeneous Dirichlet at r_max
            faces = np.arange(n_r + 1) * self.dr
            a = faces ** (self.d - 1)
            a[0] = 0.0
            w = self.r ** (self.d - 1)
            self._face_coef = a
            self._node_weight = w
            self._lap_lower = a[1:-1] / (w[1:] * self.dr**2)
            self._lap_upper = a[1:-1] / (w[:-1] * self.dr**2)
            diag = -(a[:-1] + a[1:]) / (w * self.dr**2)
            diag[-1] = -(a[-2] + 2.0 * a[-1]) / (w[-1] * self.dr**2)
            self._lap_diag = diag

    # --- coordinates -------------------------------------------------

    def coords(self, axis):
        """Coordinate array along one axis, broadcastable to self.shape."""
        if self.mode != "cartesian":
            raise GridError("coords() is only defined for Cartesian grids")
        shape = [1] * self.d
        shape[axis] = self.n
        return self.axis.reshape(shape)

    def radius(self):
        """|x| sampled at every node (strictly positive by cell-centering)."""
        if self.mode == "radial":
            return self.r
        if self._r is None:
            r2 = np.zeros(self.shape)
            for ax in range(self.d):
                r2 = r2 + self.coords(ax) ** 2
            self._r = np.sqrt(r2)
        return self._r

    def k_squared(self):
        """|k|^2 multiplier array for the spectral Laplacian."""
        if self.mode != "cartesian":
            raise GridError("k_squared() is only defined for Cartesian grids")
        if self._k_sq is None:
            k2 = np.zeros(self.shape)
            for ax in range(self.d):
                shape = [1] * self.d
                shape[ax] = self.n
                k2 = k2 + self.k.reshape(shape) ** 2
            self._k_sq = k2
        return self._k_sq

    def factor_shifted_laplacian(self, z):
        """Solver b -> (I - z Lap)^(-1) b on a radial grid (z may be complex).

        The tridiagonal matrix is LU-factored once here (LAPACK ?gttrf);
        each call of the returned solver is one ?gttrs back-substitution.
        """
        lower = -z * self._lap_lower
        diag = 1.0 - z * self._lap_diag
        upper = -z * self._lap_upper
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (lower, diag, upper))
        *factors, info = gttrf(lower, diag, upper)
        if info != 0:
            raise np.linalg.LinAlgError(f"I - z Lap is singular for z={z!r}")
        return lambda b: gttrs(*factors, b)[0]

    def integrate(self, values):
        """Quadrature of a scalar sample: midpoint rule on the uniform grid."""
        if self.mode == "cartesian":
            return float(np.sum(values).real) * self.cell_volume
        w = SURFACE_MEASURE[self.d] * self._node_weight * self.dr
        return float(np.sum(values * w).real)

    def describe(self):
        if self.mode == "cartesian":
            return {"mode": "cartesian", "d": self.d, "n": self.n, "L": self.L}
        return {"mode": "radial", "d": self.d, "n_r": self.n_r, "r_max": self.r_max}

    def __repr__(self):
        p = self.describe()
        body = ", ".join(f"{k}={v}" for k, v in p.items())
        return f"Grid({body})"


def make_grid(d, n=None, L=None, mode="cartesian", n_r=None, r_max=None):
    """Construct a cell-centered grid; see Grid for the node layout."""
    if mode == "cartesian":
        return Grid(d, "cartesian", n=n, L=L)
    return Grid(d, "radial", n_r=n_r, r_max=r_max)


class Field:
    """Complex-valued wavefunction sample on a grid at a given time."""

    __slots__ = ("grid", "values", "time")

    def __init__(self, grid, values, time=0.0):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise InvalidFieldError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.values = values
        self.time = float(time)

    def copy(self):
        return Field(self.grid, self.values.copy(), self.time)

    def is_finite(self):
        return bool(np.all(np.isfinite(self.values.view(np.float64))))

    def require_finite(self):
        if not self.is_finite():
            raise InvalidFieldError(f"non-finite field values at t={self.time}")
        return self


class PotentialSpec:
    """Inverse-power potential V(x) = c * max(|x|, eps)^(-sigma).

    eps = 0 is the default and is safe on cell-centered grids; it exists
    only as an escape hatch for stress tests.
    """

    def __init__(self, c, sigma, epsilon_reg=0.0):
        if epsilon_reg < 0:
            raise ValueError("epsilon_reg must be >= 0")
        self.c = float(c)
        self.sigma = float(sigma)
        self.epsilon_reg = float(epsilon_reg)

    def sample(self, grid):
        """V on every node, including the coefficient c."""
        r = grid.radius()
        if self.epsilon_reg > 0.0:
            r = np.maximum(r, self.epsilon_reg)
        return self.c * r ** (-self.sigma)


def radius_weight(grid, power):
    """|x|^power sampled on the grid (finite for any power by cell-centering)."""
    return grid.radius() ** power


# --- integral functionals --------------------------------------------


def mass(f: Field) -> float:
    """M(f) = integral of |f|^2."""
    f.require_finite()
    return f.grid.integrate(np.abs(f.values) ** 2)


def mass_fourier(f: Field) -> float:
    """Mass evaluated from Fourier coefficients (Parseval); Cartesian only."""
    g = f.grid
    if g.mode != "cartesian":
        raise GridError("mass_fourier requires a Cartesian grid")
    fh = np.fft.fftn(f.values)
    return float(np.sum(np.abs(fh) ** 2)) * g.cell_volume / fh.size


def gradient_norm_sq(f: Field, outer="dirichlet") -> float:
    """||grad f||_L2^2.

    Cartesian grids use the spectral multiplier |k|^2; radial grids use
    face-centered differences whose sum equals <-Lap f, f> exactly when
    outer="dirichlet".  outer="open" drops the Dirichlet closure at r_max
    (for profiles that do not vanish there).
    """
    f.require_finite()
    g = f.grid
    if g.mode == "cartesian":
        fh = np.fft.fftn(f.values)
        return float(np.sum(g.k_squared() * np.abs(fh) ** 2)) * g.cell_volume / fh.size
    u = f.values
    a = g._face_coef
    diff = np.abs(u[1:] - u[:-1]) ** 2
    total = np.sum(a[1:-1] * diff) / g.dr
    if outer == "dirichlet":
        total += 2.0 * a[-1] * np.abs(u[-1]) ** 2 / g.dr
    return SURFACE_MEASURE[g.d] * float(total)


def weighted_norm(f: Field, weight) -> float:
    """Integral of weight(x) * |f(x)|^2 (weight: array or scalar)."""
    f.require_finite()
    return f.grid.integrate(weight * np.abs(f.values) ** 2)


def h1_norm(f: Field) -> float:
    """(mass + kinetic)^(1/2) in the flat metric."""
    return float(np.sqrt(mass(f) + gradient_norm_sq(f)))


def spectral_gradient(f: Field, axis):
    """Partial derivative along one axis via the Fourier multiplier ik."""
    g = f.grid
    if g.mode != "cartesian":
        raise GridError("spectral_gradient requires a Cartesian grid")
    shape = [1] * g.d
    shape[axis] = g.n
    ik = 1j * g.k.reshape(shape)
    return np.fft.ifft(ik * np.fft.fft(f.values, axis=axis), axis=axis)


def radial_derivative(f: Field):
    """Second-order du/dr on a radial grid (even at 0, Dirichlet at r_max)."""
    g = f.grid
    if g.mode != "radial":
        raise GridError("radial_derivative requires a radial grid")
    u = f.values
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2.0 * g.dr)
    out[0] = (u[1] - u[0]) / (2.0 * g.dr)      # even mirror ghost: u[-1] = u[0]
    out[-1] = (-u[-1] - u[-2]) / (2.0 * g.dr)  # Dirichlet ghost: u[n] = -u[n-1]
    return out


def apply_laplacian(f: Field):
    """Discrete Laplacian: spectral (Cartesian) or conservative stencil (radial)."""
    g = f.grid
    if g.mode == "cartesian":
        fh = np.fft.fftn(f.values)
        return np.fft.ifftn(-g.k_squared() * fh)
    u = f.values
    out = g._lap_diag * u
    out[1:] = out[1:] + g._lap_lower * u[:-1]
    out[:-1] = out[:-1] + g._lap_upper * u[1:]
    return out


def boundary_shell_mass_fraction(f: Field) -> float:
    """Mass fraction in the outer 10% shell (boundary reflection monitor)."""
    g = f.grid
    with np.errstate(all="ignore"):  # tolerate overflowing stress fields
        dens = np.abs(f.values) ** 2
        total = g.integrate(dens)
        if total == 0.0:
            return 0.0
        if g.mode == "radial":
            shell = dens * (g.r >= 0.9 * g.r_max)
        else:
            edge = np.zeros(g.shape, dtype=bool)
            for ax in range(g.d):
                edge = edge | (np.abs(g.coords(ax)) >= 0.9 * g.L)
            shell = dens * edge
        return g.integrate(shell) / total
