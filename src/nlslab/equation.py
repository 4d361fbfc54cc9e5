"""Problem statement, criticality arithmetic, and static threshold tests.

The equation is  i u_t + Lap u - c|x|^(-sigma) u = sign |u|^alpha u  with
sign = +1 (defocusing) or -1 (focusing).  Threshold tests compare scale-
invariant quantities of the initial data against ground-state (or bubble)
quantities and return which branch of the global/blow-up dichotomy the
data falls on.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "check_domains",
    "declared",
    "Domain", "FINITE", "PATH", "one_of", "above", "at_least", "each",
    "EquationSpec",
    "CriticalityInfo",
    "ThresholdVerdict",
    "RegimeNotCoveredError",
    "MASS_SUBCRITICAL",
    "MASS_CRITICAL",
    "INTERCRITICAL",
    "ENERGY_CRITICAL",
    "ENERGY_SUPERCRITICAL",
    "GLOBAL_BRANCH",
    "BLOWUP_BRANCH",
    "NEITHER",
    "classify_criticality",
    "threshold_not_covered",
    "threshold_test",
    "glassey_delta_negative_energy",
    "negativity_margin",
]

MASS_SUBCRITICAL = "mass-subcritical"
MASS_CRITICAL = "mass-critical"
INTERCRITICAL = "intercritical"
ENERGY_CRITICAL = "energy-critical"
ENERGY_SUPERCRITICAL = "energy-supercritical"

GLOBAL_BRANCH = "global-branch"
BLOWUP_BRANCH = "blowup-branch"
NEITHER = "neither"


class RegimeNotCoveredError(ValueError):
    """The requested test has no defined branch in this regime."""


# -- the domain of a dataclass field, declared next to its default ----

Domain = collections.namedtuple("Domain", "text accepts")  # accepts(value) -> bool
FINITE = Domain("finite", lambda v: -math.inf < v < math.inf)
PATH = Domain("a path without NUL characters", lambda v: "\0" not in v)


def one_of(*values) -> Domain:
    return Domain("one of " + ", ".join(map(str, values)),
                  lambda v: any(type(v) is type(x) and v == x for x in values))


def above(lo) -> Domain:
    return Domain(f"finite and > {lo:g}", lambda v: lo < v < math.inf)


def at_least(lo) -> Domain:
    # an int bound marks an integer field: an int (not a bool), finite by type
    if isinstance(lo, int):
        return Domain(f">= {lo}", lambda v: type(v) is int and lo <= v)
    return Domain(f"finite and >= {lo:g}", lambda v: lo <= v < math.inf)


def each(domain: Domain, nonempty=False) -> Domain:
    """A tuple whose every element lies in domain."""
    text = ("non-empty, " if nonempty else "") + "each element " + domain.text
    return Domain(text, lambda vs: (len(vs) > 0 or not nonempty)
                  and all(domain.accepts(v) for v in vs))


def declared(default, domain: Domain | None = None, doc=""):
    """A dataclass field with this default and description whose values must
    lie in domain (None: checked elsewhere)."""
    return dataclasses.field(default=default, metadata={"domain": domain, "doc": doc})


class DomainError(ValueError):
    """A field value outside its declared domain."""

    def __init__(self, name, value, domain: Domain):
        super().__init__(f"{name} = {value!r} is outside its domain: {domain.text}")
        self.name, self.value, self.domain = name, value, domain


def check_domains(obj):
    """Raise DomainError for the first field of the dataclass obj whose value
    lies outside the domain declared in its metadata."""
    for f in dataclasses.fields(obj):
        domain, value = f.metadata.get("domain"), getattr(obj, f.name)
        if domain is not None and not domain.accepts(value):
            raise DomainError(f.name, value, domain)


@dataclass(frozen=True)
class EquationSpec:
    """Full problem statement: dimension, potential, nonlinearity, sign."""

    d: int = declared(1, one_of(1, 2, 3), "spatial dimension")
    c: float = declared(1.0, FINITE, "potential coefficient (c > 0 repulsive)")
    sigma: float = declared(0.5, doc="potential exponent, 0 < sigma < min(2, d)")
    alpha: float = declared(2.0, above(0.0), "nonlinearity power")
    sign: str = declared("defocusing", one_of("focusing", "defocusing"))
    epsilon_reg: float = declared(0.0, at_least(0.0), "floor of |x| in the potential")

    def __post_init__(self):
        check_domains(self)
        if not 0.0 < self.sigma < min(2.0, float(self.d)):
            raise ValueError(
                f"sigma={self.sigma} outside (0, min(2, d)) for d={self.d}"
            )
        if self.d == 3 and self.alpha == 4.0 / (self.d - 2) and self.sigma >= 1.5:
            # energy-critical d=3 statements require sigma < 3/2
            raise ValueError(
                f"energy-critical d=3 requires sigma < 3/2, got sigma={self.sigma}"
            )

    @property
    def nonlinearity_sign(self) -> float:
        return 1.0 if self.sign == "defocusing" else -1.0


@dataclass(frozen=True)
class CriticalityInfo:
    """Scaling exponents and regime label for a given (d, alpha)."""

    gamma_c: float
    beta_c: float  # +inf at mass-critical, never used arithmetically there
    regime: str
    # the radial intercritical blow-up statement carries an extra
    # assumption alpha <= 4; recorded here, sharpness unknown
    radial_blowup_alpha_ok: bool


def classify_criticality(spec: EquationSpec) -> CriticalityInfo:
    """Regime label plus gamma_c = d/2 - 2/alpha and beta_c = (1-gamma_c)/gamma_c.

    Boundaries sit exactly at alpha = 4/d (mass-critical) and, for d = 3,
    alpha = 4/(d-2) (energy-critical); comparisons are in floating point so
    data constructed as alpha=4/d lands exactly on the boundary.
    """
    d, alpha = spec.d, spec.alpha
    gamma_c = d / 2.0 - 2.0 / alpha
    mass_crit_alpha = 4.0 / d
    if alpha < mass_crit_alpha:
        regime = MASS_SUBCRITICAL
    elif alpha == mass_crit_alpha:
        regime = MASS_CRITICAL
    elif d <= 2 or alpha < 4.0 / (d - 2):
        regime = INTERCRITICAL
    elif alpha == 4.0 / (d - 2):
        regime = ENERGY_CRITICAL
    else:
        regime = ENERGY_SUPERCRITICAL
    if regime == MASS_CRITICAL:
        beta_c = math.inf
    elif gamma_c != 0.0:
        beta_c = (1.0 - gamma_c) / gamma_c
    else:
        beta_c = math.inf
    return CriticalityInfo(
        gamma_c=gamma_c,
        beta_c=beta_c,
        regime=regime,
        radial_blowup_alpha_ok=(alpha <= 4.0),
    )


@dataclass(frozen=True)
class ThresholdVerdict:
    """Outcome of the static dichotomy test.

    quantity_em / bound_em: the energy-side comparison. Intercritical:
    E(u0) M^beta vs the ground-state product; energy-critical: E(u0) vs
    the bubble energy; mass-critical: E(u0) vs 0 (blow-up side).
    quantity_gm / bound_gm: the gradient-side (mass-critical: L2-norm)
    comparison against the ground state / bubble.
    """

    regime: str
    quantity_em: float
    bound_em: float
    quantity_gm: float
    bound_gm: float
    verdict: str
    radial_blowup_alpha_ok: bool = True


def _power(x, p):
    """x ** p for x >= 0; inf where the float overflows."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x):
    return math.log(x) if x > 0.0 else -math.inf


def _log_mass_ratio(beta, mass, ground_state):
    """log (M / M_Q)^beta.  beta grows without bound as alpha approaches 4/d
    from above, where M^beta and M_Q^beta overflow a float but the log of
    their ratio does not."""
    return beta * (_log(mass) - _log(ground_state.mass))


def _energy_ratio(spec, beta, mass, energy, ground_state):
    """E M^beta / (E0(Q) M_Q^beta), formed in log space: overflow gives inf
    and underflow 0, which still order correctly against 1."""
    d, alpha = spec.d, spec.alpha
    e0_q = (d * alpha - 4.0) / (2.0 * d * alpha) * ground_state.kinetic
    log_ratio = _log(abs(energy)) - _log(e0_q)
    log_ratio += _log_mass_ratio(beta, mass, ground_state)
    return math.copysign(_exp(log_ratio), energy)


def threshold_not_covered(spec: EquationSpec) -> str | None:
    """Why threshold_test has no verdict for spec, or None when it has one."""
    if spec.c < 0:
        return "attractive potential (c < 0): outside the dichotomy classification"
    regime = classify_criticality(spec).regime
    if regime in (MASS_SUBCRITICAL, ENERGY_SUPERCRITICAL):
        return f"regime-not-covered: {regime}"
    if spec.sign == "defocusing":
        return "defocusing: the threshold dichotomy is a focusing statement"
    return None


def threshold_test(
    spec: EquationSpec,
    mass: float,
    energy: float,
    gradnorm: float,
    ground_state,
) -> ThresholdVerdict:
    """Classify initial data against the global/blow-up threshold conditions.

    mass = ||u0||_L2^2, energy = E(u0) (with the potential term), gradnorm
    = ||grad u0||_L2.  ground_state is a GroundState for the mass-critical
    and intercritical regimes and a Bubble for the energy-critical one.
    Comparisons within a relative rel_tol = 1e-9 of the bound return
    "neither" (the extremal object itself sits exactly on the boundary).
    Raises RegimeNotCoveredError where threshold_not_covered gives a reason.
    """
    reason = threshold_not_covered(spec)
    if reason is not None:
        raise RegimeNotCoveredError(reason)
    info = classify_criticality(spec)
    d, alpha, rel_tol = spec.d, spec.alpha, 1e-9

    if info.regime == MASS_CRITICAL:
        q_em, b_em = energy, 0.0
        q_gm, b_gm = math.sqrt(mass), math.sqrt(ground_state.mass)
        e_scale = abs(energy) + gradnorm**2 + 1e-300
        if q_gm < b_gm - rel_tol * b_gm:
            verdict = GLOBAL_BRANCH
        elif energy < -rel_tol * e_scale:
            verdict = BLOWUP_BRANCH
        else:
            verdict = NEITHER
    elif info.regime == INTERCRITICAL:
        beta = info.beta_c
        q_gm = gradnorm * _power(mass, beta / 2.0)
        b_gm = math.sqrt(ground_state.kinetic) * _power(ground_state.mass, beta / 2.0)
        q_em = energy * _power(mass, beta)
        # E0(Q) M^beta(Q) = (d alpha - 4)/(2 d alpha) (||grad Q|| ||Q||^beta)^2
        b_em = (d * alpha - 4.0) / (2.0 * d * alpha) * _power(b_gm, 2)
        # the verdict reads the ratios, which stay defined where the
        # products above overflow
        log_m = _log_mass_ratio(beta, mass, ground_state)
        ratio_gm = _exp(_log(gradnorm) - 0.5 * _log(ground_state.kinetic) + 0.5 * log_m)
        ratio_em = _energy_ratio(spec, beta, mass, energy, ground_state)
    else:  # energy-critical, ground_state is a Bubble
        q_em = energy
        b_em = ground_state.energy
        q_gm = gradnorm
        b_gm = math.sqrt(ground_state.kinetic)
        ratio_gm, ratio_em = q_gm / b_gm, q_em / b_em

    if info.regime != MASS_CRITICAL:
        # both bounds are positive: q < b (1 - rel_tol) reads ratio < 1 - rel_tol
        em_below = ratio_em < 1.0 - rel_tol
        gm_below = ratio_gm < 1.0 - rel_tol
        gm_above = ratio_gm > 1.0 + rel_tol
        if em_below and gm_below:
            verdict = GLOBAL_BRANCH
        elif em_below and gm_above:
            verdict = BLOWUP_BRANCH
        else:
            verdict = NEITHER
    return ThresholdVerdict(
        regime=info.regime,
        quantity_em=q_em,
        bound_em=b_em,
        quantity_gm=q_gm,
        bound_gm=b_gm,
        verdict=verdict,
        radial_blowup_alpha_ok=info.radial_blowup_alpha_ok,
    )


def glassey_delta_negative_energy(spec: EquationSpec, energy: float):
    """Convexity rate delta with d^2/dt^2 ||xu||^2 <= -delta for E(u0) < 0.

    Valid for the focusing equation with d*alpha >= 4 (mass-critical and
    above): the virial identity bounds the second derivative by
    4 d alpha E(u0).  Returns None when no such bound applies.
    """
    if spec.sign != "focusing" or energy >= 0 or spec.c < 0:
        return None
    if spec.d * spec.alpha < 4.0:
        return None
    return -4.0 * spec.d * spec.alpha * energy


def negativity_margin(spec: EquationSpec, mass: float, energy: float, ground_state):
    """Convexity rate delta for intercritical focusing data with E >= 0 on
    the blow-up branch: delta = 2(d alpha - 4) rho ||grad Q||^2 (M_Q/M_0)^beta
    with rho = 1 - E M^beta / (E0(Q) M_Q^beta).  None if not applicable."""
    if spec.sign != "focusing" or spec.c < 0:
        return None
    info = classify_criticality(spec)
    if info.regime != INTERCRITICAL:
        return None
    beta = info.beta_c
    d, alpha = spec.d, spec.alpha
    rho = 1.0 - _energy_ratio(spec, beta, mass, energy, ground_state)
    if rho <= 0:
        return None
    delta = (
        2.0
        * (d * alpha - 4.0)
        * rho
        * ground_state.kinetic
        * _power(ground_state.mass / mass, beta)
    )
    # near the mass-critical power (M_Q/M)^beta may over- or underflow
    return delta if 0.0 < delta < math.inf else None
