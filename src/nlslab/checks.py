"""Fast self-contained invariant suite (backs the check subcommand).

Each check is deterministic given the seed and runs in well under a
second; together they cover the transform identities, the weight
inequalities, conservation, reversibility, and the closed-form oracles.
"""

from __future__ import annotations

import numpy as np

from .equation import EquationSpec, classify_criticality
from .evolve import EvolveConfig, SplitStepper, evolve, glassey_upper_bound
from .grid import Field, Grid, mass, mass_fourier
from .groundstate import solve_ground_state
from .weights import check_positivity_condition, eval_localized_weight, verify_bridge

__all__ = [
    "random_band_limited_field",
    "random_radial_field",
    "run_invariant_suite",
]


def random_band_limited_field(grid: Grid, seed, amplitude=1.0) -> Field:
    """Random smooth field from the modes with |k| <= max|k|/4 (Cartesian)."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    k2 = grid.k_squared()
    cutoff = 0.25**2 * float(np.max(k2))
    coef = np.where(k2 <= cutoff, coef, 0.0)
    values = np.fft.ifftn(coef)
    peak = float(np.max(np.abs(values)))
    if peak > 0:
        values = values * (amplitude / peak)
    return Field(grid, values)


def random_radial_field(grid: Grid, seed) -> Field:
    """Random smooth decaying radial field of peak 1: four signed Gaussian bumps."""
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.shape, dtype=np.complex128)
    r = grid.radius()
    for _ in range(4):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        w = rng.uniform(0.5, 3.0)
        values = values + c * np.exp(-(r**2) / (2.0 * w**2))
    peak = float(np.max(np.abs(values)))
    if peak > 0:
        values = values * (1.0 / peak)
    return Field(grid, values)


def _check_parseval(seed):
    g = Grid(1, "cartesian", n=256, L=10.0)
    f = random_band_limited_field(g, seed)
    m, mf = mass(f), mass_fourier(f)
    err = abs(m - mf) / m
    return err <= 1e-12, f"rel err {err:.2e}"


def _check_weight_inequalities(_seed):
    verify_bridge()
    radii = np.linspace(1e-4, 200.0, 40001)
    for R in (1.0, 8.0, 64.0):
        for d in (1, 2, 3):
            lw = eval_localized_weight(R, radii, d=d)
            checks = [
                np.all(lw.psi1 >= -1e-12),
                np.all(2.0 - lw.dphi / radii >= -1e-12),
                np.all(lw.psi2 >= -1e-12),
                np.all(lw.d2phi <= 2.0 + 1e-12),
            ]
            if not all(checks):
                return False, f"pointwise inequality failed at R={R}, d={d}"
        for d in (2, 3):
            lw = eval_localized_weight(R, radii, d=d)
            if not check_positivity_condition(lw, 1e-3, 1.0):
                return False, f"positivity eps=1e-3 failed at R={R}, d={d}"
            if not check_positivity_condition(lw, 0.0, 1.0):
                return False, f"positivity eps=0 failed at R={R}, d={d}"
    return True, "R in {1,8,64}, d in {1,2,3}"


def _check_glassey(_seed):
    cases = [
        ((1.0, 0.0, 2.0), 1.0),
        ((1.0, -1.0, 2.0), (np.sqrt(5.0) - 1.0) / 2.0),
        ((4.0, 2.0, 1.0), 2.0 + 2.0 * np.sqrt(3.0)),
    ]
    for args, want in cases:
        got = glassey_upper_bound(*args)
        if abs(got - want) > 1e-12 * want:
            return False, f"root({args}) = {got} != {want}"
    return True, "3 closed-form roots"


def _check_conservation(_seed):
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=512, L=15.0)
    u0 = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.1, record_stride=100))
    m0 = out.records[0].mass
    drift = max(abs(r.mass / m0 - 1.0) for r in out.records)
    return drift <= 1e-12, f"mass drift {drift:.2e} over 100 steps"


def _check_reversibility(seed):
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=256, L=12.0)
    f = random_band_limited_field(g, seed + 2)
    stepper = SplitStepper(g, spec)
    fwd = stepper.step(f.values.copy(), 1e-3)
    back = stepper.step(fwd, -1e-3)
    err = np.sqrt(
        g.integrate(np.abs(back - f.values) ** 2) / g.integrate(np.abs(f.values) ** 2)
    )
    return err <= 1e-10, f"L2 rel err {err:.2e}"


def _check_criticality(_seed):
    cases = [
        ((3, 4.0 / 3.0), "mass-critical"),
        ((3, 4.0), "energy-critical"),
        ((3, 2.0), "intercritical"),
        ((1, 2.0), "mass-subcritical"),
        ((2, 2.0), "mass-critical"),
        ((3, 5.0), "energy-supercritical"),
    ]
    for (d, a), want in cases:
        sigma = 0.5 if want != "energy-critical" else 1.0
        info = classify_criticality(
            EquationSpec(d=d, c=1.0, sigma=sigma, alpha=a, sign="focusing")
        )
        if info.regime != want:
            return False, f"(d={d}, a={a}) -> {info.regime}, want {want}"
    return True, "6 boundary cases"


def _check_groundstate_quick(_seed):
    g = Grid(1, "cartesian", n=256, L=15.0)
    gs = solve_ground_state(1, 2.0, g)
    exact = np.sqrt(2.0) / np.cosh(g.axis)
    err = float(np.max(np.abs(gs.field.values.real - exact)))
    e1, e2 = gs.pohozaev_errors()
    ok = err <= 1e-5 and e1 <= 1e-5 and e2 <= 1e-5
    return ok, f"profile err {err:.1e}, pohozaev {e1:.1e}/{e2:.1e}"


def _check_checkpoint_roundtrip(seed):
    import os
    import tempfile

    from .checkpoint import read_field, write_field

    g = Grid(1, "cartesian", n=64, L=5.0)
    f = random_band_limited_field(g, seed + 3)
    f.time = 0.375
    with tempfile.TemporaryDirectory() as tmp:
        write_field(os.path.join(tmp, "state"), f)
        back = read_field(os.path.join(tmp, "state.json"))
    same = np.array_equal(back.values, f.values) and back.time == f.time
    return same, "bit-exact payload and time"


CHECKS = [
    ("parseval-mass", _check_parseval),
    ("weight-inequalities", _check_weight_inequalities),
    ("glassey-roots", _check_glassey),
    ("mass-conservation", _check_conservation),
    ("time-reversibility", _check_reversibility),
    ("criticality-boundaries", _check_criticality),
    ("groundstate-1d-quick", _check_groundstate_quick),
    ("checkpoint-roundtrip", _check_checkpoint_roundtrip),
]


def run_invariant_suite(seed=0):
    """Run every invariant check; returns True iff all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
