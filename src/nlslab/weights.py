"""Radial cutoff weights for localized virial estimates.

The generating profile zeta is

    zeta(r) = 2r                     on [0, 1]
    zeta(r) = 2[r - (r-1)^3]         on (1, 1 + 1/sqrt(3)]
    quintic Hermite bridge           on (1 + 1/sqrt(3), 2)
    zeta(r) = 0                      on [2, inf)

and chi(r) = int_0^r zeta.  The bridge matches value, first and second
derivative at both endpoints (zeta' = 0 at the left endpoint, all three
zero at the right), which makes zeta C^2 everywhere and strictly
decreasing across the bridge.  For a scale R > 0 the virial weight is
phi_R(x) = R^2 chi(|x|/R); it satisfies pointwise

    2 - phi_R'' >= 0,  2 - phi_R'/r >= 0,  2d - Lap phi_R >= 0,

and chi'' <= 2 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BRIDGE_LEFT",
    "BRIDGE_RIGHT",
    "BridgeConstructionError",
    "LocalizedWeights",
    "zeta",
    "zeta_prime",
    "chi",
    "eval_localized_weight",
    "check_positivity_condition",
    "verify_bridge",
]

BRIDGE_LEFT = 1.0 + 1.0 / np.sqrt(3.0)
BRIDGE_RIGHT = 2.0


class BridgeConstructionError(RuntimeError):
    """The bridge polynomial failed its monotonicity certificate."""


def _bridge_coefficients():
    # quintic p(s) on s in [0,1], s = (r - BRIDGE_LEFT) / h, matching
    # (value, d1, d2) of the cubic region at s=0 and (0, 0, 0) at s=1
    h = BRIDGE_RIGHT - BRIDGE_LEFT
    a = BRIDGE_LEFT
    za = 2.0 * (a - (a - 1.0) ** 3)
    d2za = -12.0 * (a - 1.0)
    m = np.zeros((6, 6))
    rhs = np.array([za, 0.0, d2za * h * h, 0.0, 0.0, 0.0])
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    m[2, 2] = 2.0
    for j in range(6):
        m[3, j] = 1.0
        m[4, j] = j
        m[5, j] = j * (j - 1)
    return np.linalg.solve(m, rhs), h


_BRIDGE_COEF, _BRIDGE_H = _bridge_coefficients()
# antiderivative coefficients of the bridge polynomial (for chi)
_BRIDGE_INT = _BRIDGE_COEF / (np.arange(6) + 1.0)

# chi at the left bridge endpoint and its constant plateau value
_CHI_AT_LEFT = BRIDGE_LEFT**2 - (BRIDGE_LEFT - 1.0) ** 4 / 2.0
_CHI_PLATEAU = _CHI_AT_LEFT + _BRIDGE_H * float(np.sum(_BRIDGE_INT))


def _poly(coef, s):
    out = np.zeros_like(s)
    for c in coef[::-1]:
        out = out * s + c
    return out


def _bridge_value(r, derivative=0):
    s = (r - BRIDGE_LEFT) / _BRIDGE_H
    c = _BRIDGE_COEF
    for _ in range(derivative):
        c = c[1:] * np.arange(1, len(c))
    return _poly(c, s) / _BRIDGE_H**derivative


def _regions(r):
    r = np.asarray(r, dtype=float)
    return (
        r,
        r <= 1.0,
        (r > 1.0) & (r <= BRIDGE_LEFT),
        (r > BRIDGE_LEFT) & (r < BRIDGE_RIGHT),
        r >= BRIDGE_RIGHT,
    )


def zeta(r):
    r, m1, m2, m3, _ = _regions(r)
    out = np.zeros_like(r)
    out[m1] = 2.0 * r[m1]
    out[m2] = 2.0 * (r[m2] - (r[m2] - 1.0) ** 3)
    out[m3] = _bridge_value(r[m3])
    return out


def zeta_prime(r):
    r, m1, m2, m3, _ = _regions(r)
    out = np.zeros_like(r)
    out[m1] = 2.0
    out[m2] = 2.0 * (1.0 - 3.0 * (r[m2] - 1.0) ** 2)
    out[m3] = _bridge_value(r[m3], 1)
    return out


def _zeta_second(r):
    r, m1, m2, m3, _ = _regions(r)
    out = np.zeros_like(r)
    out[m1] = 0.0
    out[m2] = -12.0 * (r[m2] - 1.0)
    out[m3] = _bridge_value(r[m3], 2)
    return out


def _zeta_third(r):
    r, m1, m2, m3, _ = _regions(r)
    out = np.zeros_like(r)
    out[m2] = -12.0
    out[m3] = _bridge_value(r[m3], 3)
    return out


def chi(r):
    r, m1, m2, m3, m4 = _regions(r)
    out = np.empty_like(r)
    out[m1] = r[m1] ** 2
    out[m2] = r[m2] ** 2 - (r[m2] - 1.0) ** 4 / 2.0
    s = (r[m3] - BRIDGE_LEFT) / _BRIDGE_H
    out[m3] = _CHI_AT_LEFT + _BRIDGE_H * s * _poly(_BRIDGE_INT, s)
    out[m4] = _CHI_PLATEAU
    return out


_BRIDGE_VERIFIED = False


def verify_bridge(samples=20001):
    """Certify zeta' < 0 strictly inside the bridge and chi'' <= 2 globally.

    Impossible to fail for the constructed quintic; checked anyway so a
    bad edit cannot silently break the weight inequalities.
    """
    global _BRIDGE_VERIFIED
    if _BRIDGE_VERIFIED:
        return
    inner = np.linspace(BRIDGE_LEFT, BRIDGE_RIGHT, samples)[1:-1]
    if not np.all(zeta_prime(inner) < 0.0):
        raise BridgeConstructionError("bridge-construction-failure: zeta' >= 0 inside")
    dense = np.linspace(0.0, 3.0, samples)
    if not np.all(zeta_prime(dense) <= 2.0 + 1e-12):
        raise BridgeConstructionError("bridge-construction-failure: chi'' > 2")
    _BRIDGE_VERIFIED = True


@dataclass
class LocalizedWeights:
    """phi_R and its derived weights sampled on a set of radii."""

    R: float
    d: int
    radii: np.ndarray
    phi: np.ndarray        # phi_R = R^2 chi(r/R)
    dphi: np.ndarray       # phi_R' = R zeta(r/R)
    d2phi: np.ndarray      # phi_R'' = zeta'(r/R)
    lap: np.ndarray        # Lap phi_R
    bilap: np.ndarray      # Lap^2 phi_R, O(R^-2)
    psi1: np.ndarray       # 2 - phi_R''
    psi2: np.ndarray       # 2d - Lap phi_R


def eval_localized_weight(R, radii_or_grid, d=None) -> LocalizedWeights:
    """Sample phi_R and companions at grid radii (or an explicit array)."""
    if R <= 0:
        raise ValueError("scale R must be positive")
    verify_bridge()
    if hasattr(radii_or_grid, "radius"):
        grid = radii_or_grid
        radii = np.ravel(grid.radius())
        d = grid.d
    else:
        radii = np.asarray(radii_or_grid, dtype=float).ravel()
        if d is None:
            raise ValueError("dimension d required with an explicit radius array")
    rho = radii / R
    z = zeta(rho)
    zp = zeta_prime(rho)
    z2 = _zeta_second(rho)
    z3 = _zeta_third(rho)
    phi = R * R * chi(rho)
    dphi = R * z
    d2phi = zp
    # radial Laplacian of phi_R as a function of rho alone
    core = rho <= 1.0
    zr = np.empty_like(rho)
    zr[core] = 2.0
    zr[~core] = z[~core] / rho[~core]
    lap = zp + (d - 1) * zr
    # Lap^2 phi_R = R^-2 [h'' + (d-1) h'/rho], h = zeta' + (d-1) zeta/rho
    hp = np.zeros_like(rho)
    hpp = np.zeros_like(rho)
    nc = ~core
    hp[nc] = z2[nc] + (d - 1) * (zp[nc] * rho[nc] - z[nc]) / rho[nc] ** 2
    hpp[nc] = z3[nc] + (d - 1) * (
        z2[nc] / rho[nc] - 2.0 * (zp[nc] * rho[nc] - z[nc]) / rho[nc] ** 3
    )
    bilap = np.zeros_like(rho)
    # a numpy scalar overflows to inf for a huge R, where a float raises
    bilap[nc] = (hpp[nc] + (d - 1) * hp[nc] / rho[nc]) / np.float64(R) ** 2
    return LocalizedWeights(
        R=float(R),
        d=int(d),
        radii=radii,
        phi=phi,
        dphi=dphi,
        d2phi=d2phi,
        lap=lap,
        bilap=bilap,
        psi1=2.0 - d2phi,
        psi2=2.0 * d - lap,
    )


def check_positivity_condition(weights: LocalizedWeights, epsilon, C) -> bool:
    """True iff psi1 - C eps psi2^(d/2) >= 0 at every sampled radius."""
    if epsilon < 0 or C <= 0:
        raise ValueError("need epsilon >= 0 and C > 0")
    expr = weights.psi1 - C * epsilon * weights.psi2 ** (weights.d / 2.0)
    return bool(np.all(expr >= 0.0))
