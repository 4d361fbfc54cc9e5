"""Spatial discretization: cell-centered Cartesian boxes and radial shells.

Every grid is cell-centered, so no node coincides with the coordinate
origin and the inverse-power potential is finite at every node without
regularization.

Each grid kind is one class that owns every operator of its
discretization (spectral on CartesianGrid, a conservative stencil on
RadialGrid), so callers never branch on the kind.

The free propagators act on the trailing axes that hold the grid's
shape, so a (K, *shape) stack of fields advances in one call, each row
bit-identical to the same call on that row alone.  CartesianGrid's
Laplacian and (1 - Lap)^(-1) do the same.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import get_lapack_funcs

from .weights import eval_localized_weight

__all__ = [
    "Grid",
    "CartesianGrid",
    "RadialGrid",
    "Field",
    "GridError",
    "InvalidFieldError",
    "mass",
    "mass_fourier",
    "gradient_norm_sq",
    "weighted_norm",
    "h1_norm",
    "radius_weight",
    "boundary_shell_mass_fraction",
]

# surface measure of the unit sphere S^{d-1}; d=1 counts both half-lines
SURFACE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


class GridError(ValueError):
    """Invalid grid construction parameters."""


class InvalidFieldError(ValueError):
    """A field contains NaN/Inf values and must not be used further."""


def _check_float_range(sizes, *powers):
    """GridError unless every (base, p) in powers has base ** p in the
    normal float range: the operators of a grid of these sizes form them."""
    for base, p in powers:
        try:
            value = base**p
        except OverflowError:
            value = math.inf
        if not np.finfo(float).tiny <= value < math.inf:
            raise GridError(f"{sizes}: {base:g}^{p} is outside the float range")


def _memoized(method):
    """Per-grid memo of method(*args), keyed by the method name and args.

    Threads may race to build one entry; setdefault keeps the first value
    stored, so every caller receives the same object.
    """

    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        value = self._memo.get(key)
        if value is None:
            value = method(self, *args)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            value = self._memo.setdefault(key, value)
        return value

    return cached


class Grid:
    """Cell-centered spatial grid; Grid(d, mode, ...) builds the mode's kind.

    Grid(d, "cartesian", n=..., L=...) returns a CartesianGrid and
    Grid(d, "radial", n_r=..., r_max=...) a RadialGrid.  Grids are
    immutable after construction (derived arrays are memoized read-only)
    and shared freely between operations and workers.

    Each kind states free_flow_composes: whether free_propagator(a) then
    free_propagator(b) equals free_propagator(a + b) up to roundoff, so
    that a stepper may merge adjacent half-steps.
    """

    mode = None

    def __new__(cls, d=None, mode=None, **sizes):
        # the kind's __init__ then receives the same arguments, mode included
        kind = _KINDS.get(mode or cls.mode)
        if kind is None or not issubclass(kind, cls):
            raise GridError(f"unknown grid mode {mode!r}")
        return super().__new__(kind)

    def __init__(self, d):
        if d not in (1, 2, 3):
            raise GridError(f"invalid-dimension: d={d} not in {{1,2,3}}")
        self.d = int(d)
        self._memo = {}

    @_memoized
    def radius_power(self, power, floor):
        """|x|^power on every node, with |x| floored at floor when floor > 0."""
        r = self.radius()
        if floor > 0.0:
            r = np.maximum(r, floor)
        return r**power

    def inv_one_minus_lap(self, rhs):
        """(1 - Lap)^(-1) rhs."""
        return self._elliptic_solver()(rhs)

    @_memoized
    def phi_weight(self, R):
        """Localized virial weight phi_R sampled on every node."""
        return eval_localized_weight(R, self).phi.reshape(self.shape)

    def __repr__(self):
        p = self.describe()
        body = ", ".join(f"{k}={v}" for k, v in p.items())
        return f"Grid({body})"


class CartesianGrid(Grid):
    """Box [-L, L)^d with n nodes per axis (a power of two); spectral operators."""

    mode = "cartesian"
    free_flow_composes = True  # e^{-i a k^2} e^{-i b k^2} = e^{-i (a + b) k^2}

    def __init__(self, d, mode=None, n=0, L=0.0):
        super().__init__(d)
        n = int(n)
        if n < 8:
            raise GridError(f"resolution-too-small: n={n} < 8")
        if n & (n - 1):
            raise GridError(f"n={n} must be a power of two")
        if not (0.0 < 2.0 * L / n and L < np.inf):  # dx must not underflow to 0
            raise GridError(f"box half-width L={L} must be finite and positive")
        self.n = n
        self.L = float(L)
        self.dx = 2.0 * self.L / n
        # dx^d weighs every quadrature; |k|^2 runs from (pi/L)^2 to d (pi/dx)^2
        _check_float_range(f"L={L}, n={n}", (self.dx, d), (np.pi / self.L, 2),
                           (d**0.5 * np.pi / self.dx, 2))
        # nodes at -L + (i + 1/2) dx; none at the origin
        self.axis = -self.L + (np.arange(n) + 0.5) * self.dx
        # wavenumbers (pi/L) * {-n/2, ..., n/2 - 1} in FFT order
        self.k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
        self.shape = (n,) * d
        self.cell_volume = self.dx**d
        k2_max = d * float(np.max(self.k**2))  # the largest entry of k_squared()
        # a max-norm residual involving the Laplacian cannot beat this
        self.residual_floor = 100.0 * np.finfo(float).eps * k2_max

    def _along(self, values, axis):
        shape = [1] * self.d
        shape[axis] = self.n
        return values.reshape(shape)

    def coords(self, axis):
        """Coordinate array along one axis, broadcastable to self.shape."""
        return self._along(self.axis, axis)

    @_memoized
    def radius(self):
        """|x| sampled at every node (strictly positive by cell-centering)."""
        r2 = np.zeros(self.shape)
        for ax in range(self.d):
            r2 = r2 + self.coords(ax) ** 2
        return np.sqrt(r2)

    @_memoized
    def unit_vector(self, axis):
        """Component x_axis / |x| of the radial unit vector."""
        return self.coords(axis) / self.radius()

    @_memoized
    def k_squared(self):
        """|k|^2 multiplier array for the spectral Laplacian."""
        k2 = np.zeros(self.shape)
        for ax in range(self.d):
            k2 = k2 + self._along(self.k, ax) ** 2
        return k2

    def integrate(self, values):
        """Quadrature of a scalar sample: midpoint rule on the uniform grid."""
        return float(np.sum(values).real) * self.cell_volume

    def _fourier_multiplier(self, mult):
        """u -> the multiplier mult applied over u's trailing d axes.

        A complex product's rounding depends on the order of its
        operands.  numpy evaluates one field's `mult * fftn(u)` as
        `fftn(u) * mult` once the spectrum reaches 256 KiB (it computes
        into the temporary), so the order is fixed per grid to match:
        stack rows and solo fields keep the bits solo runs always had.
        """
        axes = range(-1, -self.d - 1, -1)  # fftn's order, without its overhead
        spectrum_first = 16 * math.prod(self.shape) >= 256 * 1024

        def apply(u):
            for ax in axes:
                u = np.fft.fft(u, axis=ax)
            if spectrum_first:
                u *= mult
            else:
                np.multiply(mult, u, out=u)
            for ax in axes:
                u = np.fft.ifft(u, axis=ax)
            return u

        return apply

    def laplacian(self, u):
        """Spectral Laplacian: the Fourier multiplier -|k|^2."""
        return self._fourier_multiplier(-self.k_squared())(u)

    def free_propagator(self, tau):
        """Exact free flow exp(i tau Lap), as a map u -> u(tau)."""
        arg = tau * self.k_squared()
        return self._fourier_multiplier(np.cos(arg) - 1j * np.sin(arg))

    @_memoized
    def _elliptic_solver(self):
        return self._fourier_multiplier(1.0 / (1.0 + self.k_squared()))

    def grad_sq(self, u):
        """||grad u||_L2^2 from the spectral multiplier |k|^2."""
        uh = np.fft.fftn(u)
        k2_uh2 = self.k_squared() * np.abs(uh) ** 2
        return float(np.sum(k2_uh2)) * self.cell_volume / uh.size

    def radial_flux(self, u, weight):
        """int grad(a) . Im(conj(u) grad u) for a = |x| ("abs") or |x|^2."""
        total = 0.0
        for ax in range(self.d):
            ik = 1j * self._along(self.k, ax)
            du = np.fft.ifft(ik * np.fft.fft(u, axis=ax), axis=ax)
            flow = np.imag(np.conj(u) * du)
            da = self.unit_vector(ax) if weight == "abs" else 2.0 * self.coords(ax)
            total += self.integrate(da * flow)
        return total

    @_memoized
    def shell_mask(self):
        """Nodes with some |x_i| >= 0.9 L (the boundary reflection monitor)."""
        edge = np.zeros(self.shape, dtype=bool)
        for ax in range(self.d):
            edge = edge | (np.abs(self.coords(ax)) >= 0.9 * self.L)
        return edge

    def describe(self):
        return {"mode": self.mode, "d": self.d, "n": self.n, "L": self.L}


class RadialGrid(Grid):
    """Shells (0, r_max) in n_r cells; conservative flux-form stencil."""

    mode = "radial"
    free_flow_composes = False  # Crank-Nicolson: CN(h/2) CN(h/2) != CN(h)

    def __init__(self, d, mode=None, n_r=0, r_max=0.0):
        super().__init__(d)
        n_r = int(n_r)
        if n_r < 8:
            raise GridError(f"resolution-too-small: n_r={n_r} < 8")
        if not (0.0 < r_max / n_r and r_max < np.inf):  # dr must not underflow
            raise GridError(f"r_max={r_max} must be finite and positive")
        self.n_r = n_r
        self.r_max = float(r_max)
        self.dr = self.r_max / n_r
        # the stencil divides by r^(d-1) dr^2, between (dr/2)^(d+1) and r_max^(d+1)
        _check_float_range(f"r_max={r_max}, n_r={n_r}", (0.5 * self.dr, d + 1),
                           (self.r_max, d + 1))
        self.r = (np.arange(n_r) + 0.5) * self.dr
        self.shape = (n_r,)
        # conservative flux form of u'' + (d-1)/r u' on cell faces j*dr;
        # zero flux through the origin, homogeneous Dirichlet at r_max
        faces = np.arange(n_r + 1) * self.dr
        a = faces ** (self.d - 1)
        a[0] = 0.0
        w = self.r ** (self.d - 1)
        self._face_coef = a
        self._quad_weight = SURFACE_MEASURE[self.d] * w * self.dr
        # the three bands of the tridiagonal Laplacian
        self.lap_lower = a[1:-1] / (w[1:] * self.dr**2)
        self.lap_upper = a[1:-1] / (w[:-1] * self.dr**2)
        diag = -(a[:-1] + a[1:]) / (w * self.dr**2)
        diag[-1] = -(a[-2] + 2.0 * a[-1]) / (w[-1] * self.dr**2)
        self.lap_diag = diag
        # a max-norm residual involving the Laplacian cannot beat this
        self.residual_floor = 100.0 * np.finfo(float).eps / self.dr**2

    def radius(self):
        """|x| sampled at every node (strictly positive by cell-centering)."""
        return self.r

    def integrate(self, values):
        """Quadrature of a scalar sample: midpoint rule in r on the shells."""
        return float(np.sum(values * self._quad_weight).real)

    def laplacian(self, u):
        """Conservative three-point stencil."""
        out = self.lap_diag * u
        out[1:] = out[1:] + self.lap_lower * u[:-1]
        out[:-1] = out[:-1] + self.lap_upper * u[1:]
        return out

    def factor_shifted_laplacian(self, z):
        """Solver b -> (I - z Lap)^(-1) b (z may be complex).

        The tridiagonal matrix is LU-factored once here (LAPACK ?gttrf);
        each call of the returned solver is one ?gttrs back-substitution.
        """
        lower = -z * self.lap_lower
        diag = 1.0 - z * self.lap_diag
        upper = -z * self.lap_upper
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (lower, diag, upper))
        *factors, info = gttrf(lower, diag, upper)
        if info != 0:
            raise np.linalg.LinAlgError(f"I - z Lap is singular for z={z!r}")
        return lambda b: gttrs(*factors, b)[0]

    def free_propagator(self, tau):
        """Crank-Nicolson free flow in Cayley form u+ = 2 (I - zL)^(-1) u - u.

        z = i tau/2; unitary in the weighted inner product in which L is
        symmetric, and exactly inverted by the map for -tau.  A (K, n_r)
        stack is solved as K right-hand sides of one back-substitution.
        """
        solve = self.factor_shifted_laplacian(0.5j * tau)

        def step(u):
            out = solve(u.T).T
            out *= 2.0
            out -= u
            return out

        return step

    @_memoized
    def _elliptic_solver(self):
        solve = self.factor_shifted_laplacian(1.0)

        def solve_parts(rhs):
            # the factors are real: a complex rhs is solved part by part
            if np.iscomplexobj(rhs):
                return solve(rhs.real) + 1j * solve(rhs.imag)
            return solve(rhs)

        return solve_parts

    def grad_sq(self, u):
        """||grad u||_L2^2 from face differences; equals <-Lap u, u> exactly."""
        a = self._face_coef
        diff = np.abs(u[1:] - u[:-1]) ** 2
        total = np.sum(a[1:-1] * diff) / self.dr
        total += 2.0 * a[-1] * np.abs(u[-1]) ** 2 / self.dr
        return SURFACE_MEASURE[self.d] * float(total)

    def radial_flux(self, u, weight):
        """int a'(r) Im(conj(u) du/dr) for a = |x| ("abs") or |x|^2."""
        du = np.empty_like(u)  # second order, even at 0, Dirichlet at r_max
        du[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.dr)
        du[0] = (u[1] - u[0]) / (2.0 * self.dr)      # even mirror ghost: u[-1] = u[0]
        du[-1] = (-u[-1] - u[-2]) / (2.0 * self.dr)  # Dirichlet ghost: u[n] = -u[n-1]
        flow = np.imag(np.conj(u) * du)
        if weight != "abs":
            flow = 2.0 * self.r * flow
        return self.integrate(flow)

    @_memoized
    def shell_mask(self):
        """Nodes with r >= 0.9 r_max (the boundary reflection monitor)."""
        return self.r >= 0.9 * self.r_max

    def describe(self):
        return {"mode": self.mode, "d": self.d, "n_r": self.n_r, "r_max": self.r_max}


_KINDS = {kind.mode: kind for kind in (CartesianGrid, RadialGrid)}


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


def radius_weight(grid, power):
    """|x|^power sampled on the grid (finite for any power by cell-centering)."""
    return grid.radius_power(power, 0.0)


# --- integral functionals --------------------------------------------


def mass(f: Field) -> float:
    """M(f) = integral of |f|^2."""
    f.require_finite()
    return f.grid.integrate(np.abs(f.values) ** 2)


def mass_fourier(f: Field) -> float:
    """Mass evaluated from Fourier coefficients (Parseval); Cartesian only."""
    fh = np.fft.fftn(f.values)
    return float(np.sum(np.abs(fh) ** 2)) * f.grid.cell_volume / fh.size


def gradient_norm_sq(f: Field) -> float:
    """||grad f||_L2^2 under the grid's own gradient (see grad_sq)."""
    f.require_finite()
    return f.grid.grad_sq(f.values)


def weighted_norm(f: Field, weight) -> float:
    """Integral of weight(x) * |f(x)|^2 (weight: array or scalar)."""
    f.require_finite()
    return f.grid.integrate(weight * np.abs(f.values) ** 2)


def h1_norm(f: Field) -> float:
    """(mass + kinetic)^(1/2) in the flat metric."""
    return float(np.sqrt(mass(f) + gradient_norm_sq(f)))


def boundary_shell_mass_fraction(f: Field) -> float:
    """Mass fraction in the outer 10% shell (boundary reflection monitor)."""
    g = f.grid
    with np.errstate(all="ignore"):  # tolerate overflowing stress fields
        dens = np.abs(f.values) ** 2
        total = g.integrate(dens)
        if total == 0.0:
            return 0.0
        return g.integrate(dens * g.shell_mask()) / total
