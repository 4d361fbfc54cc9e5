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

import collections
import functools
import math

import numpy as np

from ._lapack import factor_tridiagonal
from .weights import chi, verify_bridge

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
    "boundary_shell_mass_fraction",
]

# surface measure of the unit sphere S^{d-1}; d=1 counts both half-lines
SURFACE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}

# the most nodes a grid may have: 256 MiB per complex field
MAX_NODES = 4096**2


def _real_dot(a, b):
    """Re sum(conj(a) b) over complex arrays of one shape, summed by
    numpy's einsum over their (re, im) floats: a BLAS dot splits a long
    sum across its threads, and its last bits with them."""
    a, b = (np.ascontiguousarray(x).view(np.float64).ravel() for x in (a, b))
    return float(np.einsum("i,i->", a, b))


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

    Arrays it stores, alone or as tuple members, are made read-only.
    Threads may race to build one entry; setdefault keeps the first value
    stored, so every caller receives the same object.
    """

    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        value = self._memo.get(key)
        if value is None:
            value = method(self, *args)
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            value = self._memo.setdefault(key, value)
        return value

    return cached


class Grid:
    """Cell-centered spatial grid; Grid(d, mode, ...) builds the mode's kind.

    Grid(d, "cartesian", n=..., L=...) returns a CartesianGrid and
    Grid(d, "radial", n_r=..., r_max=...) a RadialGrid.  A grid keeps only
    its checked parameters and shape: every array is memoized on first use,
    read-only, so grids are immutable and shared freely between workers.

    Each kind names its sizes and states free_flow_composes: whether
    free_propagator(a) then free_propagator(b) equals free_propagator(a + b)
    up to roundoff.  Where it does, a stepper runs A(dt/2) B(dt) A(dt/2) and
    merges adjacent free half-steps; where it does not, B(dt/2) A(dt)
    B(dt/2), one free-flow call per step, and merges the phase halves.
    """

    mode = None
    sizes = ()

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

    @classmethod
    def from_sizes(cls, d, mode, mapping):
        """Grid(d, mode, ...) with the mode's sizes read from mapping's keys."""
        sizes = getattr(_KINDS.get(mode), "sizes", ())  # an unknown mode raises below
        return cls(d, mode, **{name: mapping[name] for name in sizes})

    def describe(self):
        return {"mode": self.mode, "d": self.d, **{k: getattr(self, k) for k in self.sizes}}

    def sum_over_axes(self, term):
        """term(0) + term(1) + ... added to zeros in axis order, over the axes of shape."""
        total = np.zeros(self.shape)
        for ax in range(len(self.shape)):
            total = total + term(ax)
        return total

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
        """Localized virial weight phi_R = R^2 chi(|x|/R) sampled on every node."""
        if R <= 0:
            raise ValueError("scale R must be positive")
        verify_bridge()
        return R * R * chi(self.radius() / R)

    def __repr__(self):
        p = self.describe()
        body = ", ".join(f"{k}={v}" for k, v in p.items())
        return f"Grid({body})"


class CartesianGrid(Grid):
    """Box [-L, L)^d with n nodes per axis (a power of two); spectral operators."""

    mode = "cartesian"
    sizes = ("n", "L")
    free_flow_composes = True  # e^{-i a k^2} e^{-i b k^2} = e^{-i (a + b) k^2}

    def __init__(self, d, mode=None, n=0, L=0.0):
        super().__init__(d)
        n = int(n)
        if n < 8:
            raise GridError(f"resolution-too-small: n={n} < 8")
        if n & (n - 1):
            raise GridError(f"n={n} must be a power of two")
        if n**self.d > MAX_NODES:
            raise GridError(f"n={n}: {n**self.d} nodes in d={self.d} exceed {MAX_NODES}")
        if not (0.0 < 2.0 * L / n and L < np.inf):  # dx must not underflow to 0
            raise GridError(f"box half-width L={L} must be finite and positive")
        self.n = n
        self.L = float(L)
        self.dx = 2.0 * self.L / n
        # dx^d weighs every quadrature; |k|^2 runs from (pi/L)^2 to d (pi/dx)^2
        _check_float_range(f"L={L}, n={n}", (self.dx, d), (np.pi / self.L, 2),
                           (d**0.5 * np.pi / self.dx, 2))
        self.shape = (n,) * d
        self.cell_volume = self.dx**d
        k_max = 2.0 * np.pi * ((n // 2) * (1.0 / (n * self.dx)))  # |k[n // 2]|
        # no max-norm residual involving the Laplacian beats this; max |k|^2 = d k_max^2
        self.residual_floor = 100.0 * np.finfo(float).eps * (d * (k_max * k_max))

    @property
    @_memoized
    def axis(self):  # nodes -L + (i + 1/2) dx along one axis; none at the origin
        return -self.L + (np.arange(self.n) + 0.5) * self.dx

    @property
    @_memoized
    def k(self):  # wavenumbers (pi/L) * {-n/2, ..., n/2 - 1} in FFT order
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def _along(self, values, axis):
        shape = [1] * self.d
        shape[axis] = self.n
        return values.reshape(shape)

    @_memoized
    def coords(self, axis):
        """Coordinate array along one axis, broadcastable to self.shape."""
        return self._along(self.axis, axis)

    @_memoized
    def radius(self):
        """|x| sampled at every node (strictly positive by cell-centering)."""
        return np.sqrt(self.sum_over_axes(lambda ax: self.coords(ax) ** 2))

    @_memoized
    def unit_vector(self, axis):
        """Component x_axis / |x| of the radial unit vector."""
        return self.coords(axis) / self.radius()

    @_memoized
    def k_squared(self):
        """|k|^2 multiplier array for the spectral Laplacian."""
        return self.sum_over_axes(lambda ax: self._along(self.k, ax) ** 2)

    def integrate(self, values):
        """Quadrature of a scalar sample: midpoint rule on the uniform grid."""
        return float(np.sum(values).real) * self.cell_volume

    def _fourier_multiplier(self, mult):
        """u -> the multiplier mult applied over u's trailing d axes.

        A complex product's rounding depends on the order of its operands,
        so it has one order at every size, mult first: a field gets the bits
        of `ifftn(np.multiply(mult, fftn(u)))`, and so does each stack row.

        The returned map's on_spectrum(s) is its product alone: it
        multiplies the spectrum s = _fft(u) in place and returns it.
        """

        def on_spectrum(s):
            return np.multiply(mult, s, out=s)

        def apply(u):
            return self._ifft(on_spectrum(self._fft(u)))

        apply.on_spectrum = on_spectrum
        return apply

    # fftn's and ifftn's transforms over u's trailing d axes, one axis at a
    # time in their order: the same bits, without fftn's argument handling.
    # Only _fft's first axis allocates; _ifft transforms its argument in place
    def _fft(self, u):
        out = np.fft.fft(u, axis=-1)
        for ax in range(-2, -self.d - 1, -1):
            np.fft.fft(out, axis=ax, out=out)
        return out

    def _ifft(self, u):
        for ax in range(-1, -self.d - 1, -1):
            np.fft.ifft(u, axis=ax, out=u)
        return u

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

    def grad_sq_and_flux(self, u, weight="abs"):
        """(||grad u||^2, int grad(a) . Im(conj(u) grad u)) for a = |x| ("abs")
        or |x|^2, from one spectral derivative per axis, held one at a time.
        It takes -i du_j = ifft_j(k_j fft_j(u)), which has the bits of du_j
        times -i, so Im(conj(u) du_j) = Re(conj(u) (-i du_j)); the sums are
        _real_dot's, whatever the BLAS thread count."""
        kin = flux = 0.0
        for ax in range(self.d):
            du = np.fft.fft(u, axis=ax)
            du *= self._along(self.k, ax)
            np.fft.ifft(du, axis=ax, out=du)
            kin += _real_dot(du, du)
            du *= self.unit_vector(ax) if weight == "abs" else 2.0 * self.coords(ax)
            flux += _real_dot(u, du)
        return kin * self.cell_volume, flux * self.cell_volume

    @_memoized
    def shell_mask(self):
        """Nodes with some |x_i| >= 0.9 L (the boundary reflection monitor)."""
        return self.sum_over_axes(lambda ax: np.abs(self.coords(ax)) >= 0.9 * self.L) > 0

    def shell_mass_fraction(self, u):
        """Share of u's mass on shell_mask(): the uniform cell volume
        cancels, so both sums are plain sums of |u|^2."""
        shell = u[self.shell_mask()]
        total = _real_dot(u, u)
        return _real_dot(shell, shell) / total if total else 0.0


class RadialGrid(Grid):
    """Shells (0, r_max) in n_r cells; conservative flux-form stencil."""

    mode = "radial"
    sizes = ("n_r", "r_max")
    # Crank-Nicolson: CN(h/2) CN(h/2) != CN(h), so a step is B(dt/2) CN(dt) B(dt/2)
    free_flow_composes = False
    Stencil = collections.namedtuple("Stencil", "face_coef quad_weight lower diag upper")

    def __init__(self, d, mode=None, n_r=0, r_max=0.0):
        super().__init__(d)
        n_r = int(n_r)
        if n_r < 8:
            raise GridError(f"resolution-too-small: n_r={n_r} < 8")
        if n_r > MAX_NODES:
            raise GridError(f"n_r={n_r} exceeds {MAX_NODES} nodes")
        if not (0.0 < r_max / n_r and r_max < np.inf):  # dr must not underflow
            raise GridError(f"r_max={r_max} must be finite and positive")
        self.n_r = n_r
        self.r_max = float(r_max)
        self.dr = self.r_max / n_r
        # the stencil divides by r^(d-1) dr^2, between (dr/2)^(d+1) and r_max^(d+1)
        _check_float_range(f"r_max={r_max}, n_r={n_r}", (0.5 * self.dr, d + 1),
                           (self.r_max, d + 1))
        self.shape = (n_r,)
        # a max-norm residual involving the Laplacian cannot beat this
        self.residual_floor = 100.0 * np.finfo(float).eps / self.dr**2

    @_memoized
    def radius(self):
        """|x| sampled at every node (strictly positive by cell-centering)."""
        return (np.arange(self.n_r) + 0.5) * self.dr

    r = property(radius)

    def coords(self, axis):
        """r, the coordinate along the one axis of shape."""
        if axis != 0:
            raise IndexError(f"a radial grid has one axis, not axis {axis}")
        return self.r

    @_memoized
    def stencil(self):
        """Face coefficients r^(d-1), quadrature weights and Laplacian bands of
        the conservative flux form of u'' + (d-1)/r u' on cell faces j*dr, with
        zero flux through the origin and homogeneous Dirichlet at r_max."""
        a = (np.arange(self.n_r + 1) * self.dr) ** (self.d - 1)
        a[0] = 0.0
        w = self.r ** (self.d - 1)
        diag = -(a[:-1] + a[1:]) / (w * self.dr**2)
        diag[-1] = -(a[-2] + 2.0 * a[-1]) / (w[-1] * self.dr**2)
        return self.Stencil(a, SURFACE_MEASURE[self.d] * w * self.dr,
                            a[1:-1] / (w[1:] * self.dr**2), diag,
                            a[1:-1] / (w[:-1] * self.dr**2))

    def integrate(self, values):
        """Quadrature of a scalar sample: midpoint rule in r on the shells."""
        return float(np.sum(values * self.stencil().quad_weight).real)

    def laplacian(self, u):
        """Conservative three-point stencil."""
        s = self.stencil()
        out = s.diag * u
        out[1:] = out[1:] + s.lower * u[:-1]
        out[:-1] = out[:-1] + s.upper * u[1:]
        return out

    def factor_shifted_laplacian(self, z, scale=1.0):
        """Solver b -> (scale (I - z Lap))^(-1) b along b's last axis (z may
        be complex).

        The tridiagonal matrix is LU-factored once here (LAPACK ?gttrf, from
        the OpenBLAS numpy loads, or through scipy's Cython LAPACK where that
        is missing; one solver serves both).  For
        Re z >= 0 elimination needs no row swap, and where ?gttrf makes none
        (on every grid tried) each call of the returned solver is a
        unit-lower and a unit-upper bidiagonal sweep with a product by the
        reciprocal pivots between them (`_lapack`).  A power-of-two scale
        leaves the multipliers as they are and scales the pivots exactly, so
        the solve is exactly the unscaled one divided by scale.  LinAlgError
        if I - z Lap is singular.
        """
        s, z = self.stencil(), scale * z
        return factor_tridiagonal(-z * s.lower, scale - z * s.diag, -z * s.upper)

    def free_propagator(self, tau):
        """Crank-Nicolson free flow in Cayley form u+ = 2 (I - zL)^(-1) u - u.

        z = i tau/2; unitary in the weighted inner product in which L is
        symmetric, and exactly inverted by the map for -tau.  The factored
        matrix is (I - zL)/2, whose solve is 2 (I - zL)^(-1) u with no
        product by 2.  A (K, n_r) stack is solved row by row.
        """
        solve = self.factor_shifted_laplacian(0.5j * tau, 0.5)

        def step(u):
            out = solve(u)
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

    def grad_sq_and_flux(self, u, weight="abs"):
        """(||grad u||^2, int a'(r) Im(conj(u) du/dr)) for a = |x| ("abs") or
        |x|^2.  ||grad u||^2 comes from face differences and equals
        <-Lap u, u> exactly; du/dr is second order, even at 0, Dirichlet at r_max."""
        a = self.stencil().face_coef
        kin = np.sum(a[1:-1] * np.abs(u[1:] - u[:-1]) ** 2) / self.dr
        kin += 2.0 * a[-1] * np.abs(u[-1]) ** 2 / self.dr
        du = np.empty_like(u)
        du[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.dr)
        du[0] = (u[1] - u[0]) / (2.0 * self.dr)      # even mirror ghost: u[-1] = u[0]
        du[-1] = (-u[-1] - u[-2]) / (2.0 * self.dr)  # Dirichlet ghost: u[n] = -u[n-1]
        flow = np.imag(np.conj(u) * du)
        if weight != "abs":
            flow = 2.0 * self.r * flow
        return SURFACE_MEASURE[self.d] * float(kin), self.integrate(flow)

    @_memoized
    def shell_mask(self):
        """Nodes with r >= 0.9 r_max (the boundary reflection monitor)."""
        return self.r >= 0.9 * self.r_max

    def shell_mass_fraction(self, u):
        """Share of u's mass on shell_mask()."""
        dens = np.abs(u) ** 2
        total = self.integrate(dens)
        if total == 0.0:
            return 0.0
        return self.integrate(dens * self.shell_mask()) / total


_KINDS = {kind.mode: kind for kind in (CartesianGrid, RadialGrid)}


class Field:
    """Complex-valued wavefunction sample on a grid at a given time."""

    __slots__ = ("grid", "values", "time")

    def __init__(self, grid, values, time=0.0):
        values = np.ascontiguousarray(values, dtype=np.complex128)
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


# --- integral functionals --------------------------------------------


def mass(f: Field) -> float:
    """M(f) = integral of |f|^2."""
    f.require_finite()
    return f.grid.integrate(np.abs(f.values) ** 2)


def mass_fourier(f: Field) -> float:
    """Mass evaluated from Fourier coefficients (Parseval); Cartesian only."""
    fh = f.grid._fft(f.values)
    return float(np.sum(np.abs(fh) ** 2)) * f.grid.cell_volume / fh.size


def gradient_norm_sq(f: Field) -> float:
    """||grad f||_L2^2 under the grid's own gradient (see grad_sq_and_flux)."""
    f.require_finite()
    return f.grid.grad_sq_and_flux(f.values)[0]


def weighted_norm(f: Field, weight) -> float:
    """Integral of weight(x) * |f(x)|^2 (weight: array or scalar)."""
    f.require_finite()
    return f.grid.integrate(weight * np.abs(f.values) ** 2)


def h1_norm(f: Field) -> float:
    """(mass + kinetic)^(1/2) in the flat metric."""
    return float(np.sqrt(mass(f) + gradient_norm_sq(f)))


def boundary_shell_mass_fraction(f: Field) -> float:
    """Mass fraction in the outer 10% shell (boundary reflection monitor)."""
    with np.errstate(all="ignore"):  # tolerate overflowing stress fields
        return f.grid.shell_mass_fraction(f.values)
