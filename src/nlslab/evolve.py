"""Time integration of the equation and of its linear flow.

One Strang step is A(dt/2) B(dt) A(dt/2): A is the grid's free
propagator (the exact Fourier multiplier on Cartesian grids,
Crank-Nicolson in Cayley form on radial ones) and B is the exact
pointwise phase rotation by the potential plus the nonlinearity, which
commute pointwise and are applied in one exponential.  Both sub-flows
are unitary, so discrete mass is conserved to roundoff.

On Cartesian grids the Fourier multiplier composes, A(dt/2) A(dt/2) =
A(dt), so fixed-dt runs merge the trailing half-step of one step with
the leading half-step of the next: n steps between two reads of the
field run as A(dt/2) B A(dt) B ... A(dt) B A(dt/2), one FFT round trip
per step instead of two.  `evolve` closes the pending half wherever it
reads the field (a record, a checkpoint, the end, max_steps) and
`evolve_linear` at the end; the finiteness check runs on every step's
shifted field, which is finite exactly when the true one is.  Adaptive
runs change dt from step to step and are not merged, and radial grids
never merge, because Crank-Nicolson halves do not compose.

`evolve` steps a (K, *shape) stack of fields that share a grid, spec
and fixed dt in one loop, so a sweep over initial data pays numpy's
per-call overhead once per step instead of K times.  Each member keeps
its own records, checkpoints, warnings and stop; a member that goes
non-finite leaves the stack at the step where its solo run would stop.
A solo run is the stack of one.  The grid operators act on the trailing
axes, so every row of the stack is bit-identical to its solo run.

The free propagator for -tau is the exact inverse of the one for tau,
and the phase for -dt likewise inverts the phase for dt.  A linear
pullback with the negated step therefore undoes the forward linear
integrator up to roundoff, which is what the scattering diagnostic's
Cauchy increments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .equation import (
    EquationSpec, above, at_least, check_domains, declared, each, one_of,
    glassey_delta_negative_energy,
)
from .grid import (
    Field,
    Grid,
    InvalidFieldError,
    boundary_shell_mass_fraction,
    gradient_norm_sq,
)
from . import observables

__all__ = [
    "EvolveConfig",
    "TrajectoryOutcome",
    "SplitStepper",
    "step_strang",
    "evolve",
    "evolve_linear",
    "glassey_upper_bound",
]


@dataclass
class EvolveConfig:
    dt0: float = declared(1e-3, above(0.0))
    t_end: float = declared(1.0, above(0.0))
    adaptivity: str = declared("fixed", one_of("fixed", "cfl-nonlinear"))
    blowup_grad_factor: float = declared(100.0, above(1.0))
    blowup_dt_floor: float = declared(1e-9, above(0.0))
    checkpoint_stride: int = declared(
        0, at_least(0), "steps between field checkpoints (0: final only)")
    record_stride: int = declared(10, at_least(1), "steps between records")
    cfl_constant: float = declared(0.1, above(0.0))
    phi_r_list: tuple[float, ...] = declared(
        (), each(above(0.0)), 'localized-virial scales, e.g. "8 16 32"')
    epsilon_reg: float = declared(0.0, at_least(0.0), "floor of |x| in the potential")
    max_steps: int = declared(10_000_000, at_least(1))

    def __post_init__(self):
        check_domains(self)


@dataclass
class TrajectoryOutcome:
    status: str  # "completed" | "blowup-detected" | "invalid"
    t_reached: float
    tstar_estimate: float | None
    glassey_bound: float | None
    records: list
    final_field: Field | None
    warnings: list = dataclass_field(default_factory=list)
    max_boundary_mass_fraction: float = 0.0


class SplitStepper:
    """Cached multipliers / factored operators for one (grid, spec) pair.

    step(u, dt) is one Strang step and returns the field at t + dt; u may
    be one field's values or a (K, *shape) stack of them.  With
    merge_halves on a grid whose free flow composes, step instead leaves
    its trailing A(dt/2) pending and returns the field shifted by it; the
    next step of the same dt applies that half together with its own
    leading half as one A(dt).  settle(u) applies a pending half and
    returns the true field, so a caller that merges settles wherever it
    reads the field.
    """

    def __init__(self, grid: Grid, spec: EquationSpec, epsilon_reg=0.0,
                 merge_halves=False):
        self.grid = grid
        self.spec = spec
        # V = c max(|x|, epsilon_reg)^(-sigma), shared with observables.record
        self.potential = spec.c * grid.radius_power(-spec.sigma, epsilon_reg)
        self._merge = merge_halves and grid.free_flow_composes
        self._pending = None  # dt of the step whose trailing half is owed
        self._free_ops = {}
        self._linear_phase_cache = (None, None)

    # -- A: the grid's free flow over tau -------------------------------

    def _free(self, u, tau):
        # keyed by tau, which adaptive dt halving changes; a merging run
        # holds dt/2 and dt, and builds dt only once a merge happens
        op = self._free_ops.get(tau)
        if op is None:
            if len(self._free_ops) == 2:
                self._free_ops.clear()
            op = self._free_ops[tau] = self.grid.free_propagator(tau)
        return op(u)

    # -- B: exact phase rotation (potential and nonlinearity commute) --

    def _phase(self, u, dt, nonlinear):
        # u is the fresh output of a linear step and is rotated in place
        if not nonlinear:
            if self._linear_phase_cache[0] != dt:
                arg = dt * self.potential
                self._linear_phase_cache = (dt, np.cos(arg) - 1j * np.sin(arg))
            u *= self._linear_phase_cache[1]
            return u
        arg = u.real * u.real
        arg += u.imag * u.imag  # |u|^2 without a square root
        if self.spec.alpha != 2.0:
            arg **= 0.5 * self.spec.alpha
        arg *= self.spec.nonlinearity_sign
        arg += self.potential
        arg *= dt
        rotation = np.empty_like(u)  # cos(arg) - i sin(arg)
        np.cos(arg, out=rotation.real)
        np.sin(arg, out=rotation.imag)
        np.negative(rotation.imag, out=rotation.imag)
        u *= rotation
        return u

    def step(self, u, dt, nonlinear=True):
        if self._pending == dt:
            u = self._free(u, dt)  # the owed half and this step's leading half
        else:
            u = self._free(self.settle(u), 0.5 * dt)
        u = self._phase(u, dt, nonlinear)
        if self._merge:
            self._pending = dt
            return u
        return self._free(u, 0.5 * dt)

    def settle(self, u):
        """The true field of step's output u: applies a pending half-step."""
        if self._pending is None:
            return u
        dt, self._pending = self._pending, None
        return self._free(u, 0.5 * dt)


def step_strang(u: Field, spec: EquationSpec, dt: float, stepper=None) -> Field:
    """Advance one Strang step; raises InvalidFieldError on NaN output."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    u.require_finite()
    if stepper is None:
        stepper = SplitStepper(u.grid, spec)
    values = stepper.step(u.values, dt)
    out = Field(u.grid, values, u.time + dt)
    out.require_finite()
    return out


def glassey_upper_bound(v0: float, vdot0: float, delta: float) -> float:
    """Blow-up time bound: positive root of v0 + vdot0 t - delta t^2 / 2.

    The variance obeys d^2 V / dt^2 <= -delta, so V reaches zero (and the
    solution must break down) no later than this root.
    """
    if v0 <= 0 or delta <= 0:
        raise ValueError("need v0 > 0 and delta > 0")
    return (vdot0 + np.sqrt(vdot0**2 + 2.0 * delta * v0)) / delta


class _Member:
    """The bookkeeping of one trajectory in a stepped stack."""

    def __init__(self, u0, spec, cfg, checkpoint_cb, glassey_delta):
        u0.require_finite()
        self.spec, self.cfg, self.checkpoint_cb = spec, cfg, checkpoint_cb
        self.records, self.shell_max = [], 0.0
        self.add_record(u0)
        rec0 = self.records[0]
        self.grad0 = np.sqrt(rec0.kinetic)
        self.warnings = []
        self.warned_grad = self.warned_dt = False
        if glassey_delta is None:
            glassey_delta = glassey_delta_negative_energy(spec, rec0.energy)
        self.bound = None
        if glassey_delta is not None and glassey_delta > 0 and rec0.virial > 0:
            vdot0 = observables.morawetz_action(u0, "quadratic")
            self.bound = float(glassey_upper_bound(rec0.virial, vdot0, glassey_delta))
        self.last_good = u0.copy()
        self.outcome = None

    def add_record(self, f):
        self.records.append(observables.record(
            f, self.spec, phi_r=tuple(self.cfg.phi_r_list),
            epsilon_reg=self.cfg.epsilon_reg))
        self.shell_max = max(self.shell_max, boundary_shell_mass_fraction(f))

    def read(self, f, record, checkpoint):
        """Record and checkpoint f as due; False when the member stopped."""
        if record:
            try:
                self.add_record(f)
            except InvalidFieldError as exc:
                self.stop("invalid", f.time, str(exc))
                return False
            grad_now = np.sqrt(self.records[-1].kinetic)
            grad0 = self.grad0
            if (grad0 > 0 and grad_now >= self.cfg.blowup_grad_factor * grad0
                    and not self.warned_grad):
                self.warnings.append(
                    f"gradient grew {grad_now / grad0:.1f}x at t={f.time:.6g} "
                    "without dt collapse"
                )
                self.warned_grad = True
            self.last_good = f.copy()
        if checkpoint and self.checkpoint_cb is not None:
            self.checkpoint_cb(f.copy())
        return True

    def stop(self, status, t, warning=None, field=None):
        """End the trajectory at t; an invalid one keeps its last good record."""
        if warning is not None:
            self.warnings.append(warning)
        tstar = t if status == "blowup-detected" else None
        if tstar is not None and self.bound is not None and tstar > 1.2 * self.bound:
            self.warnings.append(f"Tstar estimate {tstar:.6g} exceeds the "
                                 f"Glassey bound {self.bound:.6g} by >20%")
        self.outcome = TrajectoryOutcome(
            status=status,
            t_reached=t,
            tstar_estimate=tstar,
            glassey_bound=self.bound,
            records=self.records,
            final_field=self.last_good if status == "invalid" else field,
            warnings=self.warnings,
            max_boundary_mass_fraction=self.shell_max,
        )


def evolve(
    u0: Field | list[Field],
    spec: EquationSpec,
    cfg: EvolveConfig,
    checkpoint_cb=None,
    glassey_delta=None,
) -> TrajectoryOutcome | list[TrajectoryOutcome]:
    """Integrate to t_end or to detected blow-up, recording observables.

    Blow-up detection requires both the gradient-growth and the dt-collapse
    criteria; either alone only produces a warning.  On a NaN the run stops
    with status "invalid" and the last good recorded field.

    u0 may also be a list of fields on one grid, with checkpoint_cb and
    glassey_delta lists of the same length (or None): the fields then
    advance as one (K, *shape) stack on fixed dt, each with its own
    records, checkpoints, warnings and stop, and a list of outcomes is
    returned.  Every member's outcome equals that of its solo run bit for
    bit, provided every member or none has a checkpoint callback (a
    checkpoint step settles the whole stack).
    """
    if isinstance(u0, Field):
        return _evolve_stack([u0], spec, cfg, [checkpoint_cb], [glassey_delta])[0]
    k = len(u0)
    return _evolve_stack(list(u0), spec, cfg, checkpoint_cb or [None] * k,
                         glassey_delta or [None] * k)


def _evolve_stack(fields, spec, cfg, checkpoint_cbs, glassey_deltas):
    grid = fields[0].grid
    if any(f.grid.describe() != grid.describe() for f in fields):
        raise ValueError("the fields of a stack must share one grid")
    fixed = cfg.adaptivity == "fixed"
    if not fixed and len(fields) > 1:
        raise ValueError("adaptive dt advances one field at a time")
    # a fixed dt merges half-steps between the points that read the field
    stepper = SplitStepper(grid, spec, cfg.epsilon_reg, merge_halves=fixed)
    members = [_Member(f, spec, cfg, cb, delta)
               for f, cb, delta in zip(fields, checkpoint_cbs, glassey_deltas)]
    live = list(members)  # the members of the rows of u, in order
    u = np.stack([f.values for f in fields])
    t = 0.0
    checkpoints = cfg.checkpoint_stride > 0 and any(checkpoint_cbs)

    def keep(rows):
        nonlocal u, live
        if not all(rows):
            u = u[np.asarray(rows)]
            live = [m for m, ok in zip(live, rows) if ok]

    if fixed:
        # a quotient that overflows still makes a run that stops at max_steps
        n_steps = max(1, round(min(cfg.t_end / cfg.dt0, np.finfo(float).max)))
        dt_fixed = cfg.t_end / n_steps

    step = 0
    while live:
        if fixed:
            if step >= n_steps:
                break
            dt = dt_fixed
        else:
            if t >= cfg.t_end * (1.0 - 1e-12):
                break
            m = live[0]  # adaptive dt follows its one field
            sup = float(np.max(np.abs(u)))
            dt = cfg.dt0
            if sup > 0.0:
                raw = cfg.cfl_constant / sup**spec.alpha
                if raw < dt:
                    # power-of-two subdivision of dt0: keeps the cached
                    # linear multiplier valid across consecutive steps
                    dt = cfg.dt0 * 2.0 ** (-np.ceil(np.log2(cfg.dt0 / raw)))
            if dt < cfg.blowup_dt_floor:
                f = Field(grid, u[0], t)
                grad_now = np.sqrt(gradient_norm_sq(f))
                if m.grad0 > 0 and grad_now >= cfg.blowup_grad_factor * m.grad0:
                    if m.records[-1].t != t:  # the trajectory up to detection
                        m.add_record(f)
                    m.stop("blowup-detected", t, field=f.copy())
                    break
                if not m.warned_dt:
                    m.warnings.append(
                        f"adaptive dt {dt:.3e} fell below the floor at t={t:.6g} "
                        "without gradient growth; clamped"
                    )
                    m.warned_dt = True
                dt = cfg.blowup_dt_floor
            dt = min(dt, cfg.t_end - t)

        with np.errstate(all="ignore"):  # overflow near blow-up produces the
            u = stepper.step(u, dt)      # NaNs the status check looks for
        step += 1
        t = step * dt_fixed if fixed else t + dt

        finite = np.isfinite(u.view(np.float64)).reshape(len(live), -1).all(axis=1)
        if not finite.all():
            for m, ok in zip(live, finite):
                if not ok:
                    m.stop("invalid", t, f"non-finite field after step {step} (t={t:.6g})")
            keep(finite)
            if not live:
                break

        at_end = (fixed and step == n_steps) or (
            not fixed and t >= cfg.t_end * (1.0 - 1e-12)
        )
        record_now = step % cfg.record_stride == 0 or at_end
        checkpoint_now = checkpoints and (step % cfg.checkpoint_stride == 0 or at_end)
        if record_now or checkpoint_now or step >= cfg.max_steps:
            u = stepper.settle(u)
        if record_now or checkpoint_now:
            # a comprehension: no loop variable keeps a row of u alive
            keep([m.read(Field(grid, row, t), record_now, checkpoint_now)
                  for m, row in zip(live, u)])
        if step >= cfg.max_steps:
            for m in live:
                m.stop("invalid", t, f"max_steps={cfg.max_steps} exceeded at t={t:.6g}")
            break

    for m, row in zip(live, u):
        if m.outcome is None:
            m.stop("completed", t, field=Field(grid, row.copy(), t))
    return [m.outcome for m in members]


def evolve_linear(u0: Field, spec: EquationSpec, duration: float, dt: float) -> Field:
    """Propagate under the linear flow (potential kept, nonlinearity off).

    duration may be negative (backward propagation); both sub-flows are
    exactly invertible.  With c = 0 on a Cartesian grid this is the exact
    free propagator.
    """
    u0.require_finite()
    if dt <= 0:
        raise ValueError("dt must be positive")
    if duration == 0.0:
        return u0.copy()
    stepper = SplitStepper(u0.grid, spec, merge_halves=True)
    n_steps = max(1, int(round(abs(duration) / dt)))
    h = duration / n_steps
    u = u0.values
    for _ in range(n_steps):
        u = stepper.step(u, h, nonlinear=False)
    out = Field(u0.grid, stepper.settle(u), u0.time + duration)
    out.require_finite()
    return out
