"""Conserved quantities, virial/Morawetz functionals, and identity checks.

Everything here is a pure function of fields or of recorded time slices;
trajectory checks compare finite differences of recorded quantities
against the algebraic right-hand sides the identities prescribe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, fields

import numpy as np

from .equation import (
    EquationSpec,
    INTERCRITICAL,
    RegimeNotCoveredError,
    classify_criticality,
)
from .grid import (
    Field,
    InvalidFieldError,
    RadialGrid,
    gradient_norm_sq,
    mass,
    weighted_norm,
)

__all__ = [
    "ObservableRecord",
    "IdentityCheck",
    "record",
    "morawetz_action",
    "virial_rhs_forms",
    "virial_identity_check",
    "localized_virial_bound_check",
    "localized_virial_slack_ladder",
    "radial_sobolev_oracle",
    "RADIAL_SOBOLEV_CONSTANTS",
    "interaction_morawetz_l4",
    "scattering_cauchy_diagnostic",
]


@dataclass
class ObservableRecord:
    """One time slice of monitored quantities; one row of series.csv.

    nonlinear_term is signed (negative in the focusing case) so that
    energy = kinetic/2 + potential_term + nonlinear_term holds exactly.
    """

    t: float
    mass: float
    energy: float
    kinetic: float
    potential_term: float
    nonlinear_term: float
    virial: float
    virial_phi_r: dict = dataclass_field(default_factory=dict)
    morawetz_abs: float = 0.0
    l4_density: float = 0.0
    linfty: float = 0.0

    def columns(self):
        """(series.csv column, value) pairs in field order; virial_phi_r
        gives one virial_phiR_<R> column per scale R."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "virial_phi_r":
                yield from ((f"virial_phiR_{R:g}", v) for R, v in value.items())
            else:
                yield f.name, value


def record(u: Field, spec: EquationSpec, phi_r=(), epsilon_reg=0.0) -> ObservableRecord:
    """Evaluate every monitored functional on one field.

    Raises InvalidFieldError if any entry comes out non-finite (e.g. an
    overflowing density on a formally finite field).
    """
    u.require_finite()
    g = u.grid
    with np.errstate(all="ignore"):
        kin, flux = g.grad_sq_and_flux(u.values)  # while no density is held
        dens = np.abs(u.values)
        linfty = float(np.max(dens))
        dens **= 2
        dens_sq = dens * dens
        m = g.integrate(dens)
        r_pow = g.radius_power(-spec.sigma, epsilon_reg)  # shared with the stepper
        pot = 0.5 * spec.c * g.integrate(r_pow * dens)
        # alpha = 2 reuses dens * dens: libm pow is slow on subnormal tails
        lp_dens = dens_sq if spec.alpha == 2.0 else dens ** (0.5 * spec.alpha + 1.0)
        nl = spec.nonlinearity_sign * g.integrate(lp_dens) / (spec.alpha + 2.0)
        rec = ObservableRecord(
            t=u.time,
            mass=m,
            energy=0.5 * kin + pot + nl,
            kinetic=kin,
            potential_term=pot,
            nonlinear_term=nl,
            virial=g.integrate(g.radius_power(2, 0.0) * dens),
            morawetz_abs=2.0 * flux,
            l4_density=g.integrate(dens_sq),
            linfty=linfty,
        )
        for R in phi_r:
            rec.virial_phi_r[float(R)] = g.integrate(g.phi_weight(float(R)) * dens)
    if not all(math.isfinite(v) for _, v in rec.columns()):
        raise InvalidFieldError(f"non-finite observable at t={u.time}")
    return rec


def morawetz_action(u: Field, weight="abs") -> float:
    """M_a = 2 int grad(a) . Im(conj(u) grad u) for a = |x| or |x|^2.

    With a = |x|^2 this is d/dt ||x u||^2 along solutions.
    """
    u.require_finite()
    return 2.0 * u.grid.grad_sq_and_flux(u.values, weight)[1]


@dataclass
class IdentityCheck:
    """One checked identity, as summary.json lists it; passed is
    rel_error <= tol."""

    name: str
    rel_error: float
    tol: float
    passed: bool = dataclass_field(init=False)

    def __post_init__(self):
        # builtins, so that a check built from numpy scalars serializes
        self.rel_error = float(self.rel_error)
        self.passed = bool(self.rel_error <= self.tol)


def virial_rhs_forms(rec: ObservableRecord, spec: EquationSpec):
    """The three equivalent right-hand sides of the variance identity.

    Using the signed nonlinear term n (positive defocusing, negative
    focusing), all three are valid for either sign; for the defocusing
    equation they are the derived analogue of the focusing statement.
    """
    d, a, s = spec.d, spec.alpha, spec.sigma
    k, pot, n, e = rec.kinetic, rec.potential_term, rec.nonlinear_term, rec.energy
    f1 = 8.0 * k + 8.0 * s * pot + 4.0 * d * a * n
    f2 = 16.0 * e - 8.0 * (2.0 - s) * pot + 4.0 * (d * a - 4.0) * n
    f3 = 4.0 * d * a * e - 2.0 * (d * a - 4.0) * k - 4.0 * (d * a - 2.0 * s) * pot
    return f1, f2, f3


def _second_difference(records, value):
    """Second central difference of value(record) over uniformly strided
    records, and the interior records."""
    ts = np.array([r.t for r in records])
    dts = np.diff(ts)
    if len(dts) < 2:
        raise ValueError("insufficient-records: need at least 3 records")
    h = float(np.mean(dts))
    if np.max(np.abs(dts - h)) > 1e-9 * max(abs(h), 1e-30):
        raise ValueError("records are not uniformly strided in time")
    v = np.array([value(r) for r in records])
    return (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2, records[1:-1]


def _relative(deviation, scale):
    """deviation / scale; at scale 0 (a zero field), 0.0 for a zero
    deviation and +-inf otherwise."""
    if scale == 0.0:
        return math.copysign(math.inf, deviation) if deviation else 0.0
    return deviation / scale


def virial_identity_check(records, spec: EquationSpec, tol=1e-3) -> IdentityCheck:
    """Second central difference of ||x u||^2 against all three RHS forms.

    rel_error is the worst deviation over interior records and forms,
    normalized by the largest RHS magnitude.
    """
    d2v, interior = _second_difference(records, lambda r: r.virial)
    forms = np.array([virial_rhs_forms(r, spec) for r in interior])
    worst = float(np.max(np.abs(forms - d2v[:, None])))
    name = "virial-identity"
    if spec.sign == "defocusing":
        name += "-defocusing-analogue"
    return IdentityCheck(name, _relative(worst, float(np.max(np.abs(forms)))), tol)


def _localized_slack(outcome, spec, R):
    g = outcome.final_field.grid
    if not isinstance(g, RadialGrid) or g.d < 2:
        raise ValueError("not-radial: localized virial needs a radial d>=2 grid")
    if spec.sign != "focusing":
        raise ValueError("localized virial estimate applies to the focusing case")
    key = float(R)
    try:
        d2v, interior = _second_difference(outcome.records,
                                           lambda r: r.virial_phi_r[key])
    except KeyError:
        raise ValueError(f"records carry no localized virial for R={R}")
    f1 = np.array([virial_rhs_forms(r, spec)[0] for r in interior])
    return float(np.max(d2v - f1)), float(np.max(np.abs(f1)))


def localized_virial_bound_check(outcome, spec: EquationSpec, R,
                                 tol=1e-2) -> IdentityCheck:
    """One-sided check d^2/dt^2 V_phiR <= unlocalized RHS + slack(R).

    rel_error is the measured slack (worst signed exceedance) over the
    largest unlocalized RHS; a negative value means the localized second
    difference stayed below the unlocalized expression everywhere.  The
    remainder scale in R (and its epsilon structure for alpha < 4) is
    assessed by the ladder helper; no implicit constant is asserted.
    """
    slack, scale = _localized_slack(outcome, spec, R)
    return IdentityCheck(f"localized-virial-R{R:g}", _relative(slack, scale), tol)


def localized_virial_slack_ladder(outcome, spec: EquationSpec, r_list):
    """Measured slack per R plus per-doubling reduction factors."""
    slacks = {}
    for R in r_list:
        slack, _ = _localized_slack(outcome, spec, R)
        slacks[float(R)] = slack
    rs = sorted(slacks)
    factors = []
    for r_small, r_big in zip(rs[:-1], rs[1:]):
        denom = slacks[r_big]
        factors.append(slacks[r_small] / denom if denom != 0.0 else math.inf)
    return slacks, factors


# Frozen prefactors for the radial uniform-decay bound
# sup r^((d-1)/2) |f| <= C ||f||^(1/2) ||grad f||^(1/2).  Calibrated once
# on a reference family (Gaussians, exponentials, algebraic tails, and
# off-center cusp peaks, which attain ~1/sqrt(2 pi) in d = 2 and
# 1/(2 sqrt(pi)) in d = 3) and padded 20%.
RADIAL_SOBOLEV_CONSTANTS = {2: 0.48, 3: 0.34}


def radial_sobolev_oracle(f: Field):
    """Evaluate the radial uniform-decay inequality against the frozen C."""
    g = f.grid
    if not isinstance(g, RadialGrid) or g.d < 2:
        raise ValueError("not-radial: oracle requires a radial grid with d >= 2")
    lhs = float(np.max(g.r ** ((g.d - 1) / 2.0) * np.abs(f.values)))
    m = mass(f)
    k = gradient_norm_sq(f)
    product = (m * k) ** 0.25
    rhs = RADIAL_SOBOLEV_CONSTANTS[g.d] * product
    ratio = lhs / product if product > 0 else 0.0
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio, "holds": lhs <= rhs}


def interaction_morawetz_l4(records, spec: EquationSpec, horizons):
    """Space-time L^4 mass against the constant-free two-point Morawetz cap.

    For each horizon T: lhs = int_0^T int |u|^4, rhs_cap = ||u||_{Loo L2}^3
    ||grad u||_{Loo L2} over [0, T], their ratio, and the windowed lhs
    increment since the previous horizon.  Boundedness of the ratio and
    decay of the increments are what the global bound predicts at desk
    scale; no constant is asserted.
    """
    if spec.d != 3:
        raise ValueError("wrong-dimension: interaction Morawetz L4 needs d = 3")
    if spec.sign != "defocusing" or spec.c <= 0:
        raise ValueError("interaction Morawetz bound applies to defocusing c > 0")
    ts = np.array([r.t for r in records])
    l4 = np.array([r.l4_density for r in records])
    out = []
    prev_lhs = 0.0
    for T in horizons:
        sel = ts <= T * (1.0 + 1e-12)
        if np.count_nonzero(sel) < 2:
            raise ValueError(f"no records within horizon T={T}")
        lhs = float(np.trapezoid(l4[sel], ts[sel]))
        m_max = float(np.max([r.mass for r, s in zip(records, sel) if s]))
        k_max = float(np.max([r.kinetic for r, s in zip(records, sel) if s]))
        rhs_cap = m_max**1.5 * k_max**0.5
        out.append(
            {
                "T": float(T),
                "lhs": lhs,
                "rhs_cap": rhs_cap,
                "ratio": lhs / rhs_cap if rhs_cap > 0 else 0.0,
                "increment": lhs - prev_lhs,
            }
        )
        prev_lhs = lhs
    return out


def scattering_cauchy_diagnostic(checkpoints, spec: EquationSpec, dt):
    """Cauchy increments of the linear-flow pullbacks to t = 0.

    If the solution scatters, the pullbacks P(-t_k) u_k form a Cauchy
    sequence and the increments decrease toward zero (until boundary
    effects dominate).  The increment between consecutive checkpoints
    a, b is ||P(t_a - t_b) u_b - u_a||_E: one pullback over their
    interval, measured in the linear energy norm
    ||w||_E^2 = M(w) + ||grad w||^2 + c int |x|^(-sigma) |w|^2, which the
    linear flow conserves, so it equals the distance of the two
    pullbacks at t = 0.  For c > 0 and sigma < 2 the norm is equivalent
    to H^1 (Hardy), so it decides the same Cauchy property.
    """
    info = classify_criticality(spec)
    if spec.sign != "defocusing" or spec.d != 3 or info.regime != INTERCRITICAL:
        raise RegimeNotCoveredError(
            "scattering diagnostic covers defocusing intercritical d = 3 only"
        )
    from .evolve import evolve_linear

    checkpoints = sorted(checkpoints, key=lambda f: f.time)
    if len(checkpoints) < 2:
        raise ValueError("need at least two checkpoints")
    potential = spec.c * checkpoints[0].grid.radius_power(-spec.sigma, 0.0)
    increments = []
    for a, b in zip(checkpoints[:-1], checkpoints[1:]):
        pulled = evolve_linear(b, spec, a.time - b.time, dt)
        diff = Field(a.grid, pulled.values - a.values, a.time)
        increments.append(math.sqrt(
            mass(diff) + gradient_norm_sq(diff) + weighted_norm(diff, potential)))
    return increments
