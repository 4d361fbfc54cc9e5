import math

import pytest

from nlslab.equation import (
    BLOWUP_BRANCH,
    ENERGY_CRITICAL,
    ENERGY_SUPERCRITICAL,
    GLOBAL_BRANCH,
    INTERCRITICAL,
    MASS_CRITICAL,
    MASS_SUBCRITICAL,
    NEITHER,
    DomainError,
    EquationSpec,
    RegimeNotCoveredError,
    at_least,
    classify_criticality,
    glassey_delta_negative_energy,
    negativity_margin,
    one_of,
    threshold_test,
)
from nlslab.evolve import EvolveConfig


def spec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="focusing"):
    return EquationSpec(d=d, c=c, sigma=sigma, alpha=alpha, sign=sign)


class FakeGroundState:
    def __init__(self, mass, kinetic, energy=None):
        self.mass = mass
        self.kinetic = kinetic
        if energy is not None:
            self.energy = energy


def test_classify_examples():
    info = classify_criticality(spec(d=3, alpha=4.0 / 3.0))
    assert info.gamma_c == 0.0
    assert info.regime == MASS_CRITICAL
    assert math.isinf(info.beta_c)

    info = classify_criticality(spec(d=3, alpha=4.0, sigma=1.0))
    assert info.gamma_c == 1.0
    assert info.regime == ENERGY_CRITICAL
    assert info.beta_c == 0.0

    info = classify_criticality(spec(d=3, alpha=2.0))
    assert info.gamma_c == 0.5
    assert info.beta_c == 1.0
    assert info.regime == INTERCRITICAL


def test_regime_boundaries_exact():
    for d in (1, 2, 3):
        at = classify_criticality(spec(d=d, alpha=4.0 / d, sigma=0.4))
        assert at.regime == MASS_CRITICAL
        below = classify_criticality(spec(d=d, alpha=4.0 / d - 1e-12, sigma=0.4))
        assert below.regime == MASS_SUBCRITICAL
        above = classify_criticality(spec(d=d, alpha=4.0 / d + 1e-12, sigma=0.4))
        assert above.regime == INTERCRITICAL
    assert classify_criticality(spec(d=3, alpha=4.1)).regime == ENERGY_SUPERCRITICAL


def beta_c_rational(d, alpha):
    """Equivalent form (4 - (d-2) alpha) / (d alpha - 4) of beta_c."""
    return (4.0 - (d - 2) * alpha) / (d * alpha - 4.0)


def test_beta_c_two_forms_agree():
    for d, alpha in [(1, 6.0), (1, 5.0), (2, 3.0), (3, 2.0), (3, 3.5), (1, 2.0)]:
        info = classify_criticality(spec(d=d, alpha=alpha))
        assert abs(info.beta_c - beta_c_rational(d, alpha)) <= 1e-13 * abs(info.beta_c)


def test_radial_blowup_alpha_flag():
    assert classify_criticality(spec(d=1, alpha=3.0)).radial_blowup_alpha_ok
    assert not classify_criticality(spec(d=1, alpha=5.0)).radial_blowup_alpha_ok


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(d=4)
    with pytest.raises(ValueError):
        spec(sigma=0.0)
    with pytest.raises(ValueError):
        spec(d=1, sigma=1.5)  # sigma >= min(2, d)
    with pytest.raises(ValueError):
        spec(alpha=-1.0)
    with pytest.raises(ValueError):
        spec(sign="mixed")
    with pytest.raises(ValueError):
        spec(d=3, alpha=4.0, sigma=1.7)  # energy-critical needs sigma < 3/2
    assert spec(d=3, alpha=4.0, sigma=1.0).sign == "focusing"


def test_integer_and_bool_domains_take_only_their_own_type():
    assert not at_least(1).accepts(37.0) and not at_least(1).accepts(True)
    assert at_least(1).accepts(37) and at_least(0.0).accepts(0)
    assert not one_of(True, False).accepts(1) and not one_of(1, 2, 3).accepts(3.0)
    for build in (lambda: EvolveConfig(record_stride=2.5),
                  lambda: EvolveConfig(max_steps=True), lambda: spec(d=3.0)):
        with pytest.raises(DomainError):
            build()


def test_attractive_flagged_and_rejected():
    s = spec(c=-1.0)
    assert s.c <= 0.0
    with pytest.raises(RegimeNotCoveredError):
        threshold_test(spec(d=1, alpha=6.0, c=-1.0), 1.0, 1.0, 1.0,
                       FakeGroundState(1.0, 1.0))


def test_threshold_regimes_not_covered():
    gs = FakeGroundState(1.0, 1.0)
    with pytest.raises(RegimeNotCoveredError):
        threshold_test(spec(d=1, alpha=2.0), 1.0, 1.0, 1.0, gs)  # mass-subcritical
    with pytest.raises(RegimeNotCoveredError):
        threshold_test(spec(d=3, alpha=5.0), 1.0, 1.0, 1.0, gs)  # supercritical


def test_threshold_mass_critical():
    gs = FakeGroundState(mass=4.0, kinetic=1.0)
    s = spec(d=1, alpha=4.0)
    small = threshold_test(s, mass=1.0, energy=0.5, gradnorm=1.0, ground_state=gs)
    assert small.verdict == GLOBAL_BRANCH
    neg = threshold_test(s, mass=9.0, energy=-1.0, gradnorm=3.0, ground_state=gs)
    assert neg.verdict == BLOWUP_BRANCH
    boundary = threshold_test(s, mass=4.0, energy=0.5, gradnorm=1.0, ground_state=gs)
    assert boundary.verdict == NEITHER


def test_threshold_intercritical_saturation_is_neither():
    # data with exactly the ground-state invariants sits on the boundary
    gs = FakeGroundState(mass=2.0, kinetic=6.0)
    s = spec(d=3, alpha=2.0)  # beta_c = 1
    b_gm = math.sqrt(gs.kinetic) * gs.mass**0.5
    b_em = (3 * 2.0 - 4.0) / (2 * 3 * 2.0) * b_gm**2
    v = threshold_test(
        s, mass=gs.mass, energy=b_em / gs.mass, gradnorm=math.sqrt(gs.kinetic),
        ground_state=gs,
    )
    assert v.verdict == NEITHER
    assert v.quantity_em == pytest.approx(v.bound_em, rel=1e-12)
    assert v.quantity_gm == pytest.approx(v.bound_gm, rel=1e-12)


def test_threshold_branches_mutually_exclusive():
    gs = FakeGroundState(mass=2.0, kinetic=6.0)
    s = spec(d=3, alpha=2.0)
    for m, e, gn in [(0.5, 0.2, 0.5), (0.5, -3.0, 9.0), (4.0, 9.0, 4.0),
                     (2.0, 0.1, 2.0)]:
        v = threshold_test(s, m, e, gn, gs)
        assert v.verdict in (GLOBAL_BRANCH, BLOWUP_BRANCH, NEITHER)


def test_threshold_energy_critical_uses_bubble():
    bubble = FakeGroundState(mass=0.0, kinetic=12.8)
    bubble.energy = 12.8 / 3.0
    s = spec(d=3, alpha=4.0, sigma=1.0)
    v = threshold_test(s, mass=5.0, energy=1.0, gradnorm=1.0, ground_state=bubble)
    assert v.verdict == GLOBAL_BRANCH
    v = threshold_test(s, mass=5.0, energy=1.0, gradnorm=5.0, ground_state=bubble)
    assert v.verdict == BLOWUP_BRANCH


def test_glassey_delta():
    assert glassey_delta_negative_energy(spec(d=1, alpha=4.0), -2.0) == pytest.approx(
        32.0 * 4.0 / 4.0
    )
    assert glassey_delta_negative_energy(spec(d=1, alpha=4.0), 1.0) is None
    assert glassey_delta_negative_energy(spec(d=1, alpha=2.0), -1.0) is None
    assert (
        glassey_delta_negative_energy(spec(d=1, alpha=4.0, sign="defocusing"), -1.0)
        is None
    )


def test_negativity_margin_positive_on_blowup_branch():
    gs = FakeGroundState(mass=2.0, kinetic=6.0)
    s = spec(d=3, alpha=2.0)
    delta = negativity_margin(s, mass=2.0, energy=0.05, ground_state=gs)
    assert delta is not None and delta > 0.0
    assert negativity_margin(s, mass=2.0, energy=100.0, ground_state=gs) is None


def test_threshold_just_above_the_mass_critical_power():
    # beta_c is about 4e7: every product M^beta overflows or underflows, but
    # the verdicts are those of the mass-critical test
    gs = FakeGroundState(mass=4.0, kinetic=1.0)
    s = spec(d=1, alpha=4.0000001)
    assert classify_criticality(s).beta_c > 1e7
    small = threshold_test(s, mass=1.0, energy=0.5, gradnorm=1.0, ground_state=gs)
    assert small.verdict == GLOBAL_BRANCH
    big = threshold_test(s, mass=9.0, energy=-1.0, gradnorm=3.0, ground_state=gs)
    assert big.verdict == BLOWUP_BRANCH
    assert math.isinf(big.quantity_gm) and math.isinf(big.bound_gm)
    assert negativity_margin(s, mass=9.0, energy=-1.0, ground_state=gs) is None
    assert negativity_margin(s, mass=9.0, energy=1e-300, ground_state=gs) is None
