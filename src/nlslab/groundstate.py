"""Ground-state profiles, sharp constants, and inequality oracles.

The focusing ground state solves  Lap Q - Q + |Q|^alpha Q = 0; it is
computed by Petviashvili-type spectral renormalization of the fixed point
Q = (1 - Lap)^(-1) |Q|^alpha Q.  The energy-critical bubble
W = (1 + |x|^2 / (d(d-2)))^(-(d-2)/2) is evaluated in closed form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass

import numpy as np

from .equation import above, at_least, declared, one_of
from .grid import (
    Field,
    Grid,
    RadialGrid,
    gradient_norm_sq,
    mass,
    weighted_norm,
)

__all__ = [
    "GroundState",
    "Bubble",
    "GroundStateError",
    "solve_ground_state",
    "sharp_gn_constant",
    "gn_constant_closed_form",
    "gn_inequality_oracle",
    "hardy_oracle",
    "make_bubble",
]


class GroundStateError(RuntimeError):
    """Solver failure: no convergence or inadmissible (d, alpha)."""


@dataclass
class GroundState:
    """Converged profile with its norms and the sharp GN constant.

    mass = ||Q||_2^2, kinetic = ||grad Q||_2^2, lp = ||Q||_{a+2}^{a+2};
    these, d and gn_constant are computed from the profile.  residual is
    the max-norm of Lap Q - Q + |Q|^alpha Q under the same discrete
    Laplacian the solver used.  monotone_residual reports the convergence
    diagnostic (residual decreasing after the burn-in).
    """

    field: Field
    d: int = dataclasses.field(init=False, metadata={"domain": one_of(1, 2, 3)})
    alpha: float = declared(MISSING, above(0.0))
    mass: float = dataclasses.field(init=False, metadata={"domain": above(0.0)})
    kinetic: float = dataclasses.field(init=False, metadata={"domain": above(0.0)})
    lp: float = dataclasses.field(init=False, metadata={"domain": above(0.0)})
    residual: float = declared(MISSING, at_least(0.0))
    gn_constant: float = dataclasses.field(init=False,
                                           metadata={"domain": at_least(0.0)})
    iterations: int = declared(MISSING, at_least(1))
    monotone_residual: bool = declared(MISSING, one_of(True, False))

    def __post_init__(self):
        q = self.field
        self.residual = float(self.residual)  # a read 0 is written back as 0.0
        self.d = q.grid.d
        self.mass, self.kinetic = mass(q), gradient_norm_sq(q)
        self.lp = q.grid.integrate(np.abs(q.values) ** (self.alpha + 2.0))
        # a flat profile has no sharp constant, and its kinetic is outside
        # the declared domain
        self.gn_constant = sharp_gn_constant(self) if self.kinetic > 0.0 else math.nan

    def pohozaev_errors(self):
        """Relative errors of M = c1 K and M = c2 P (scaling identities)."""
        d, a = self.d, self.alpha
        c1 = (4.0 - (d - 2) * a) / (d * a)
        c2 = (4.0 - (d - 2) * a) / (2.0 * (a + 2.0))
        return (
            abs(self.mass - c1 * self.kinetic) / self.mass,
            abs(self.mass - c2 * self.lp) / self.mass,
        )


# the revision of _petviashvili's iteration and stopping rule (2: the stop is
# relative to ||q||_2; 3: radial (1 - Lap)^(-1) solves by unit-bidiagonal
# sweeps, which move d >= 2 profiles at roundoff).  It is part of the
# artifacts' solver hash: raising it with any change that can move a profile
# makes saved profiles be solved again
SOLVER_REVISION = 3


def _petviashvili(grid, alpha, damping, tol, max_iter):
    r2 = grid.radius() ** 2
    q = np.exp(-r2 / 2.0)
    gamma = (alpha + 1.0) / alpha
    eff_tol = max(tol, grid.residual_floor)
    residuals = []
    monotone_failures = 0
    lap_q = grid.laplacian(q).real  # kept from each residual for the next iteration
    for it in range(1, max_iter + 1):
        nl = np.abs(q) ** alpha * q
        g = grid.inv_one_minus_lap(nl).real
        lin = grid.integrate(q * q) - grid.integrate(lap_q * q)
        nld = grid.integrate(nl * q)
        if not nld > 0.0:  # |q|^alpha underflowed: no rescaling exists
            break
        q_new = (lin / nld) ** gamma * g
        if damping != 1.0:
            q_new = q + damping * (q_new - q)
        change = math.sqrt(max(grid.integrate((q_new - q) ** 2), 0.0))
        q = q_new
        lap_q = grid.laplacian(q).real
        res = float(np.max(np.abs(lap_q - q + np.abs(q) ** alpha * q)))
        residuals.append(res)
        # diagnostic: past the burn-in the residual should fall until it
        # sits on the roundoff floor; repeated growth aborts the attempt
        if it > 20 and res > max(residuals[-2] * 1.5, eff_tol):
            monotone_failures += 1
            if monotone_failures > 5:
                break
        if res <= eff_tol and change <= 1e-12 * math.sqrt(grid.integrate(q * q)):
            return q, res, it, monotone_failures
        if not np.all(np.isfinite(q)):
            break
    return None, residuals[-1] if residuals else math.inf, max_iter, monotone_failures


def solve_ground_state(
    d,
    alpha,
    grid: Grid,
    tol=1e-10,
    max_iter=500,
) -> GroundState:
    """Compute the positive radial ground state on the given grid.

    Requires alpha < 4/(d-2) for d = 3 (any alpha > 0 for d = 1, 2).  The
    iteration rescales each step with the standard stabilized power
    gamma = (alpha+1)/alpha and falls back to a damped retry if the
    residual fails to decrease monotonically past the burn-in.  An attempt
    stops once the step change is at most 1e-12 of ||Q||_2 and the max-norm
    residual at most the effective tolerance, max(tol, roundoff floor of
    the discrete Laplacian), which on fine radial grids is eps/dr^2-limited.
    """
    if grid.d != d:
        raise GroundStateError(f"grid dimension {grid.d} does not match d={d}")
    if d >= 3 and alpha >= 4.0 / (d - 2):
        raise GroundStateError(
            f"invalid-regime: alpha={alpha} >= 4/(d-2) has no H^1 ground state"
        )
    if alpha <= 0:
        raise GroundStateError("invalid-regime: alpha must be positive")
    q, res, iters, fails = _petviashvili(grid, alpha, 1.0, tol, max_iter)
    if q is None:
        q, res, iters, fails = _petviashvili(grid, alpha, 0.5, tol, 2 * max_iter)
    if q is None:
        raise GroundStateError(
            f"no-convergence: residual {res:.3e} after damped retry"
        )
    gs = GroundState(Field(grid, q, time=0.0), float(alpha), res, iters, fails == 0)
    if not gs.kinetic > 0.0:  # the constant solution of a box too small for Q
        raise GroundStateError(f"no-convergence: flat profile on {grid.describe()}")
    return gs


def sharp_gn_constant(gs: GroundState) -> float:
    """C_GN from the extremizer ratio ||Q||_{a+2}^{a+2} / (K^{da/4} M^{(4-(d-2)a)/4})."""
    d, a = gs.d, gs.alpha
    return gs.lp / (
        gs.kinetic ** (d * a / 4.0) * gs.mass ** ((4.0 - (d - 2) * a) / 4.0)
    )


def gn_constant_closed_form(gs: GroundState) -> float:
    """C_GN from the ground-state norms via the scaling identities.

    Mass-critical (alpha = 4/d): (d+2)/d * ||Q||_2^{-4/d}.  Otherwise the
    power form 2(a+2)/(da) * (||grad Q|| ||Q||^beta)^{2 - da/2} with
    beta = (4-(d-2)a)/(da-4); algebraically this only uses the Pohozaev
    identities, so it is valid on both sides of the mass-critical line.
    """
    d, a = gs.d, gs.alpha
    if a == 4.0 / d:
        return (d + 2.0) / d * gs.mass ** (-2.0 / d)
    beta = (4.0 - (d - 2) * a) / (d * a - 4.0)
    prod = math.sqrt(gs.kinetic) * gs.mass ** (beta / 2.0)
    return 2.0 * (a + 2.0) / (d * a) * prod ** (2.0 - d * a / 2.0)


def gn_inequality_oracle(f: Field, gs: GroundState):
    """Evaluate both sides of the sharp Gagliardo-Nirenberg inequality.

    lhs = ||f||_{a+2}^{a+2}, rhs = C_GN ||grad f||^{da/2} ||f||^{(4-(d-2)a)/2};
    holds (within a relative 1e-9) is expected True for every H^1 field,
    with equality only at Q.
    """
    d, a = gs.d, gs.alpha
    lhs = f.grid.integrate(np.abs(f.values) ** (a + 2.0))
    k = gradient_norm_sq(f)
    m = mass(f)
    rhs = gs.gn_constant * k ** (d * a / 4.0) * m ** ((4.0 - (d - 2) * a) / 4.0)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-9)}


def hardy_oracle(f: Field):
    """Hardy inequality check ((d-2)/2)^2 ||f/|x|||_2^2 <= ||grad f||_2^2, d = 3."""
    if f.grid.d != 3:
        raise ValueError("wrong-dimension: the Hardy oracle requires d = 3")
    lhs = 0.25 * weighted_norm(f, f.grid.radius_power(-2.0, 0.0))
    rhs = gradient_norm_sq(f)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-9)}


@dataclass
class Bubble:
    """Energy-critical extremizer sampled on a radial grid (d = 3).

    W has infinite mass in d = 3, so only the kinetic and critical
    Lebesgue norms are stored.  Both carry a one-term analytic tail
    correction beyond r_max (W ~ sqrt(3)/r), and the doubling-based
    truncation estimates bound what the correction still misses.
    """

    field: Field
    kinetic: float          # ||grad W||_2^2
    critical_norm: float    # ||W||_{L^6}^6
    sobolev_constant: float  # C_SE = kinetic^(-2)
    energy: float           # E0(W) = kinetic/2 - critical_norm/6
    kinetic_truncation: float
    critical_truncation: float


def _bubble_norms(grid: Grid, values, r_cut):
    """Quadrature-on-[0, r_cut] plus analytic tails 12 pi / r and 36 pi / r^3."""
    n_cut = int(round(r_cut / grid.dr))
    r = grid.r[:n_cut]
    w = values[:n_cut]
    # open face-difference gradient: W does not vanish at the cut radius
    r2_faces = grid.stencil().face_coef[1:n_cut]  # r^2 at the faces j*dr, 0 < j < n_cut
    dw = (w[1:] - w[:-1]) / grid.dr
    kin = 4.0 * np.pi * float(np.sum(r2_faces * dw**2)) * grid.dr
    kin += 12.0 * np.pi / r_cut
    crit = 4.0 * np.pi * float(np.sum(r**2 * w**6)) * grid.dr
    crit += 36.0 * np.pi / r_cut**3
    return kin, crit


def make_bubble(grid: Grid) -> Bubble:
    """Sample W(x) = (1 + |x|^2/3)^(-1/2) on a d = 3 radial grid."""
    if grid.d != 3 or not isinstance(grid, RadialGrid):
        raise ValueError("make_bubble requires a d = 3 radial grid")
    values = (1.0 + grid.r**2 / 3.0) ** (-0.5)
    kin, crit = _bubble_norms(grid, values, grid.r_max)
    kin_half, crit_half = _bubble_norms(grid, values, grid.r_max / 2.0)
    return Bubble(
        field=Field(grid, values),
        kinetic=kin,
        critical_norm=crit,
        sobolev_constant=kin ** (-2.0),
        energy=0.5 * kin - crit / 6.0,
        kinetic_truncation=abs(kin - kin_half),
        critical_truncation=abs(crit - crit_half),
    )
