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

zeta is written once, as a table of these four polynomial pieces, each in
its own local variable.  zeta's derivatives and chi (integrated piece by
piece from chi's value at the piece's start) all come from that table,
and the bridge reads its left-end data off the cubic piece.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

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


def _bridge(cubic):
    # the quintic in s = (r - BRIDGE_LEFT) / h that takes zeta, zeta' and
    # zeta'' from the cubic piece at s = 0 and brings all three to 0 at s = 1
    h = BRIDGE_RIGHT - BRIDGE_LEFT
    powers = [Polynomial.basis(j) for j in range(6)]
    m = [[p.deriv(k)(s) for p in powers] for s in (0.0, 1.0) for k in range(3)]
    rhs = [cubic.deriv(k)(BRIDGE_LEFT) * h**k for k in range(3)] + [0.0] * 3
    return Polynomial(np.linalg.solve(m, rhs), [BRIDGE_LEFT, BRIDGE_RIGHT], [0.0, 1.0])


def _table():
    # row i: piece i's own variable s = off + scl r, and the coefficients in
    # s of chi, zeta, zeta', zeta'' and zeta''' there (column k is chi's k-th
    # derivative); chi starts each piece at the value the one before reached
    core = Polynomial([0.0, 2.0])
    cubic = Polynomial([2.0, 2.0, 0.0, -2.0], [1.0, 2.0], [0.0, 1.0])  # s = r - 1
    pieces = (core, cubic, _bridge(cubic), Polynomial([0.0]))
    rows, chi = [], Polynomial([0.0])
    for start, z in zip((0.0, 1.0, BRIDGE_LEFT, BRIDGE_RIGHT), pieces):
        chi = z.integ(k=chi(start), lbnd=start)
        columns = [chi] + [z.deriv(k) for k in range(4)]
        rows.append((z.mapparms(), [p.coef for p in columns]))
    return rows


_TABLE = _table()


def _chi_derivatives(r, orders):
    """chi's derivatives of the given orders at r (order 1 is zeta)."""
    r = np.asarray(r, dtype=float)
    # pieces [0, 1], (1, BRIDGE_LEFT], (BRIDGE_LEFT, 2) and [2, inf)
    piece = (r > 1.0).astype(int) + (r > BRIDGE_LEFT) + (r >= BRIDGE_RIGHT)
    outs = [np.empty_like(r) for _ in orders]
    for i, ((off, scl), coefs) in enumerate(_TABLE):
        at = piece == i
        s = off + scl * r[at]
        for out, k in zip(outs, orders):
            value = coefs[k][-1]  # Horner's rule, a scalar for a constant
            for c in coefs[k][-2::-1]:
                value = value * s + c
            out[at] = value
    return outs


def zeta(r):
    return _chi_derivatives(r, [1])[0]


def zeta_prime(r):
    return _chi_derivatives(r, [2])[0]


def chi(r):
    return _chi_derivatives(r, [0])[0]


@functools.cache
def verify_bridge():
    """Certify zeta' < 0 strictly inside the bridge and chi'' <= 2 globally.

    Impossible to fail for the constructed quintic; checked anyway so a
    bad edit cannot silently break the weight inequalities.
    """
    inner = np.linspace(BRIDGE_LEFT, BRIDGE_RIGHT, 20001)[1:-1]
    if not np.all(zeta_prime(inner) < 0.0):
        raise BridgeConstructionError("bridge-construction-failure: zeta' >= 0 inside")
    dense = np.linspace(0.0, 3.0, 20001)
    if not np.all(zeta_prime(dense) <= 2.0 + 1e-12):
        raise BridgeConstructionError("bridge-construction-failure: chi'' > 2")


@dataclass
class LocalizedWeights:
    """phi_R and its derived weights sampled on a set of radii."""

    R: float
    d: int
    phi: np.ndarray        # phi_R = R^2 chi(r/R)
    dphi: np.ndarray       # phi_R' = R zeta(r/R)
    d2phi: np.ndarray      # phi_R'' = zeta'(r/R)
    lap: np.ndarray        # Lap phi_R
    bilap: np.ndarray      # Lap^2 phi_R, O(R^-2)
    psi1: np.ndarray       # 2 - phi_R''
    psi2: np.ndarray       # 2d - Lap phi_R


def eval_localized_weight(R, radii, d) -> LocalizedWeights:
    """Sample phi_R and companions at the given radii in dimension d."""
    if R <= 0:
        raise ValueError("scale R must be positive")
    verify_bridge()
    radii = np.asarray(radii, dtype=float).ravel()
    rho = radii / R
    chi_rho, z, zp = _chi_derivatives(rho, range(3))
    # radial Laplacian of phi_R as a function of rho alone: zeta/rho = 2 on
    # the core rho <= 1, and the bilaplacian vanishes there
    outer = rho > 1.0
    ro = rho[outer]
    lap = np.full_like(rho, 2.0)
    lap[outer] = z[outer] / ro
    lap = zp + (d - 1) * lap
    # Lap^2 phi_R = R^-2 [h'' + (d-1) h'/rho], h = zeta' + (d-1) zeta/rho,
    # so zeta'' and zeta''' are needed outside the core only.  z[outer] is
    # gathered twice: holding it over these lines raises the peak memory.
    w = zp[outer] * ro - z[outer]
    z2o, z3o = _chi_derivatives(ro, (3, 4))
    hp = z2o + (d - 1) * w / ro ** 2
    hpp = z3o + (d - 1) * (z2o / ro - 2.0 * w / ro ** 3)
    bilap = np.zeros_like(rho)
    # a numpy scalar overflows to inf for a huge R, where a float raises
    bilap[outer] = (hpp + (d - 1) * hp / ro) / np.float64(R) ** 2
    return LocalizedWeights(
        R=float(R),
        d=int(d),
        phi=R * R * chi_rho,
        dphi=R * z,
        d2phi=zp,
        lap=lap,
        bilap=bilap,
        psi1=2.0 - zp,
        psi2=2.0 * d - lap,
    )


def check_positivity_condition(weights: LocalizedWeights, epsilon, C) -> bool:
    """True iff psi1 - C eps psi2^(d/2) >= 0 at every sampled radius."""
    if epsilon < 0 or C <= 0:
        raise ValueError("need epsilon >= 0 and C > 0")
    expr = weights.psi1 - C * epsilon * weights.psi2 ** (weights.d / 2.0)
    return bool(np.all(expr >= 0.0))
