"""Time integration of the equation and of its linear flow.

One Strang step composes A, the grid's free propagator (the exact
Fourier multiplier on Cartesian grids, Crank-Nicolson in Cayley form on
radial ones), and B, the exact pointwise phase rotation by the potential
plus the nonlinearity, which commute pointwise and are applied in one
exponential.  B is built in Cayley form too, from one half-angle tangent
per node: e^(-i tau arg) = (h - 1) + i s h with s = tan(-tau arg / 2) and
h = 2 / (1 + s^2), of modulus 1 for any finite s.  A Cartesian step is
A(dt/2) B(dt) A(dt/2); a radial step is B(dt/2) A(dt) B(dt/2), one
Crank-Nicolson solve.  Both sub-flows are unitary, so discrete mass is
conserved to roundoff.

A step leaves its trailing half owed and applies it together with the
leading half of the next step; the caller settles the owed half where it
reads the field: `evolve` at a record, a checkpoint and the end,
`evolve_linear` at the end.  The Fourier multiplier composes,
A(a) A(b) = A(a + b), so a Cartesian step makes one FFT round trip.
Settling takes the true field's spectrum on the way, and the next step
starts from it, so a step that is read costs one forward and two inverse
transforms.  Crank-Nicolson halves do not compose, but phase halves do:
B keeps |u|, and with it the argument V + s|u|^alpha, so
B(a) B(b) = B(a + b) to roundoff, and a radial step makes one solve and
one rotation.  The finiteness check reads every step's phase argument,
which is finite on a row exactly where the shifted field is, over one
float per node instead of two; on a Cartesian grid it reads the
half-angle tangent that the rotation leaves in the argument's memory,
finite exactly where the scaled argument is.  A radial step takes the
owed rotation's argument where it ends and makes the field non-finite
wherever that argument is, so an overflow of |u|^alpha stops a run at
the step whose true field it makes non-finite.

An adaptive dt follows max|u| of the true field.  An owed phase half
keeps |u|, so a radial run reads max|u| unsettled.  A Cartesian run reads
it through bounds that the shifted field's spectrum gives, and the
stepper keeps that spectrum for the next step.  Where both bounds give
the same power-of-two subdivision of dt0, so does max|u|, and the step
runs unsettled: one forward and one inverse transform.  It settles, from
the kept spectrum, only where the bounds straddle a subdivision edge.
Either kind settles where dt would fall below blowup_dt_floor (the
gradient check reads the true field), and wherever a fixed-dt run
settles.

`evolve` steps a (K, *shape) stack of fields that share a grid, spec
and fixed dt in one loop, so a sweep over initial data pays numpy's
per-call overhead once per step instead of K times.  Each member is a
TrajectoryOutcome, with its own records, checkpoints, warnings and stop,
and evolve returns the objects it stepped; a member that goes non-finite
stops at the step where its solo run would stop, and its row stays in
the stack, stepped but never read, until the stack ends.  A solo run is
the stack of one.  The grid operators act on the trailing axes, so
every row of the stack is bit-identical to its solo run.

The free propagator for -tau is the exact inverse of the one for tau,
and the phase for -dt likewise inverts the phase for dt: tan is odd bit
for bit, so it is the conjugate of the phase for dt.  A linear
pullback with the negated step therefore undoes the forward linear
integrator up to roundoff, which is what the scattering diagnostic's
Cauchy increments rely on.

Both loops flush subnormals (`_fpenv`): a dispersing tail that decays
through the subnormal range would otherwise run every pass over the
field, and every Crank-Nicolson solve, in microcode assists.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
import sys

import numpy as np

from ._fpenv import flush_subnormals
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
    "Member",
    "SplitStepper",
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
    # normal floats: under the loop's flush to zero a subnormal R reads as 0
    phi_r_list: tuple[float, ...] = declared(
        (), each(at_least(sys.float_info.min)),
        'localized-virial scales, e.g. "8 16 32"')
    max_steps: int = declared(10_000_000, at_least(1), "steps allowed to reach t_end")

    def __post_init__(self):
        check_domains(self)


def _cayley(x):
    """e^(2ix) from its half-angle tangent s = tan(x): (h - 1) + i s h with
    h = 2 / (1 + s^2), of modulus 1 for any finite s.  s is written over
    x and the rest straight into the rotation's real and imaginary parts.
    One tan costs less than a cos and a sin: on x86-64 with AVX-512, numpy
    runs float64 tan as SIMD code and cos and sin largely as scalar libm
    calls.  tan is odd bit for bit, so the rotation by -x is exactly the
    conjugate of the one by x."""
    s = np.tan(x, out=x)
    rotation = np.empty(x.shape, complex)
    h = rotation.real
    np.multiply(s, s, out=h)
    h += 1.0
    np.divide(2.0, h, out=h)
    np.multiply(s, h, out=rotation.imag)
    h -= 1.0
    return rotation


class SplitStepper:
    """Cached multipliers / factored operators for one (grid, spec) pair.

    step(u, dt) is one Strang step that leaves its trailing half owed: it
    returns the field short of that half, and the next step applies the
    owed half together with its own leading half, whatever its dt: as one
    A(owed + dt/2) on a grid whose free flow composes, else as one
    B(owed + dt/2).  u may be one field's values or a (K, *shape) stack of
    them.  settle(u) writes the true field over u and returns it, so a
    caller settles wherever it reads the field.  sup_bounds(u) bounds
    max|u| of the true field without settling.  An owed free half is
    settled from a kept spectrum, settle's of the true field or
    sup_bounds' of the shifted one, from which the next step (or settle)
    starts: a read step costs one forward and two inverse transforms, and
    a step that is only bounded one and one.  An owed phase half keeps its
    rotation's argument.  Until the next step the stepper holds one
    field's worth more memory, and step must be given the u that it
    returned, settle returned or sup_bounds was given.

    A nonlinear step leaves in finite_rows, per row of its output, whether
    the phase argument it formed is finite on every node, which is whether
    that row is: an inf or NaN in u, or an overflow of |u|^alpha, makes
    the argument non-finite, and a finite argument is a unit rotation.
    What is read on a Cartesian grid is the half-angle tangent
    tan(-dt arg / 2) that the rotation leaves in the argument's memory,
    finite exactly where dt arg / 2 is, and on a radial grid the argument
    of the owed half.
    """

    def __init__(self, grid: Grid, spec: EquationSpec):
        self.grid = grid
        self.spec = spec
        # V = c max(|x|, epsilon_reg)^(-sigma), shared with observables.record
        self.potential = spec.c * grid.radius_power(-spec.sigma, spec.epsilon_reg)
        self._phase_halves = not grid.free_flow_composes  # B(dt/2) A(dt) B(dt/2)
        self._owed = None  # the time of the half that step's output still owes
        self._spectrum = None  # the spectrum of the u that step is given next
        self._arg = None  # the phase argument of that u, where phase halves merge
        self._free_ops = {}
        self._drift = (None, None)  # (tau, min(2, tau |k|^2)) for sup_bounds
        # once sup_bounds is in use, a nonlinear step notes max|u|^2 where it
        # takes a phase argument: B keeps |u|
        self._note_peak, self._peak_sq = False, None
        self._linear_phase_cache = (None, None)
        self.finite_rows = None

    def _note_finite(self, arg):
        """np.isfinite(arg), whose per-row conjunction goes to finite_rows."""
        finite = np.isfinite(arg)
        self.finite_rows = finite.reshape(-1, self.potential.size).all(axis=1)
        return finite

    # -- A: the grid's free flow over tau -------------------------------

    def _free(self, tau):
        """The free-flow map over tau, u -> A(tau) u."""
        # keyed by tau, which adaptive dt halving changes; a Cartesian run
        # holds dt/2, and dt once it merges across a step it does not read;
        # a radial run holds dt
        op = self._free_ops.get(tau)
        if op is None:
            if len(self._free_ops) == 2:
                self._free_ops.clear()
            op = self._free_ops[tau] = self.grid.free_propagator(tau)
        return op

    # -- B: exact phase rotation (potential and nonlinearity commute) --

    def _phase_arg(self, u, nonlinear):
        """V + s|u|^alpha on every node, or V itself for the linear flow."""
        if not nonlinear:
            return self.potential
        arg = u.real * u.real
        arg += u.imag * u.imag  # |u|^2 without a square root
        if self._note_peak:
            self._peak_sq = float(arg.max())
        if self.spec.alpha != 2.0:
            arg **= 0.5 * self.spec.alpha
        if self.spec.nonlinearity_sign < 0:  # V - a, the bits of (-a) + V
            return np.subtract(self.potential, arg, out=arg)
        arg += self.potential
        return arg

    def _rotation(self, tau, arg, keep=False):
        """e^(-i tau arg), built in arg's memory unless keep; the linear
        flow's (arg is V) is cached by tau."""
        half = -0.5 * tau
        if arg is self.potential:
            if self._linear_phase_cache[0] != tau:
                self._linear_phase_cache = (tau, _cayley(half * arg))
            return self._linear_phase_cache[1]
        return _cayley(half * arg if keep else np.multiply(arg, half, out=arg))

    def step(self, u, dt, nonlinear=True):
        half = 0.5 * dt
        self._peak_sq = None
        if self._phase_halves:
            return self._step_phase_halves(u, dt, half, nonlinear)
        tau = half if self._owed is None else self._owed + half
        if self._spectrum is not None:  # u's, kept by settle or sup_bounds
            u = self.grid._ifft(self._free(tau).on_spectrum(self._spectrum))
            self._spectrum = None
        else:
            u = self._free(tau)(u)
        # u is the fresh output of a linear step and is rotated in place
        arg = self._phase_arg(u, nonlinear)
        u *= self._rotation(dt, arg)
        if arg is not self.potential:
            # the rotation left tan(-dt arg / 2) in arg's memory, which is
            # finite exactly where dt arg / 2 is
            self._note_finite(arg)
        self._owed = half
        return u

    def _step_phase_halves(self, u, dt, half, nonlinear):
        arg = self._arg
        if arg is None or (arg is self.potential) == nonlinear:  # none kept for this flow
            u = self.settle(u)
            arg = self._phase_arg(u, nonlinear)
        tau = half if self._owed is None else self._owed + half
        u = u * self._rotation(tau, arg)  # a new array: u may be the caller's
        u = self._free(dt)(u)
        arg = self._phase_arg(u, nonlinear)
        if arg is not self.potential:
            # the owed rotation would turn these nodes non-finite a step late
            finite = self._note_finite(arg)
            if not finite.all():
                u[~finite] = np.nan
        self._owed, self._arg = half, arg
        return u

    def settle(self, u):
        """The true field of step's output u, written over u; the spectrum
        or phase argument the next step starts from is kept."""
        if self._owed is None:
            return u
        if self._phase_halves:
            u *= self._rotation(self._owed, self._arg, keep=True)
            self._owed = None
            return u
        spectrum = self.grid._fft(u) if self._spectrum is None else self._spectrum
        spectrum = self._free(self._owed).on_spectrum(spectrum)
        u[...] = spectrum
        self._spectrum, self._owed = spectrum, None
        return self.grid._ifft(u)

    def sup_bounds(self, u):
        """(lo, hi) around max|u| of the true field of step's output u.

        An owed phase half keeps |u|, so both are max|u|, as they are where
        nothing is owed.  A(tau) moves no node of u by more than
        (1/N) sum_k min(2, tau |k|^2) |u_k| over the N nodes, a bound on
        |e^(-i tau |k|^2) - 1| summed against u's spectrum, which is kept
        for the next step; a 1e-9 relative margin covers the roundoff of
        settling and of taking max|u| from the phase rotation's input.
        """
        self._note_peak = True
        # the last nonlinear step noted max|u|^2 of the field it returned:
        # a radial one, settled or not, and a Cartesian one short of A(owed)
        if self._peak_sq is not None and (self._phase_halves or self._owed is not None):
            top = self._peak_sq**0.5
        else:
            top = float(np.abs(u).max())
        if self._owed is None or self._phase_halves:
            return top, top
        if self._spectrum is None:
            self._spectrum = self.grid._fft(u)
        tau, weight = self._drift
        if tau != self._owed:
            weight = np.minimum(2.0, self._owed * self.grid.k_squared())
            self._drift = (self._owed, weight)
        # one sum per row of a stack, the widest bounding every row; einsum's,
        # not BLAS dgemv's, whose bits depend on the BLAS thread count
        rows = np.einsum("ki,i->k", np.abs(self._spectrum).reshape(-1, weight.size),
                         weight.ravel())
        drift = float(rows.max()) / weight.size
        slack = drift + 1e-9 * (top + drift)
        return max(top - slack, 0.0), top + slack


def glassey_upper_bound(v0: float, vdot0: float, delta: float) -> float:
    """Blow-up time bound: positive root of v0 + vdot0 t - delta t^2 / 2.

    The variance obeys d^2 V / dt^2 <= -delta, so V reaches zero (and the
    solution must break down) no later than this root.
    """
    if v0 <= 0 or delta <= 0:
        raise ValueError("need v0 > 0 and delta > 0")
    return (vdot0 + np.sqrt(vdot0**2 + 2.0 * delta * v0)) / delta


@dataclass
class Member:
    """One trajectory of an `evolve` stack.  record0 is u0's record under the
    run's spec and phi_r_list, glassey_delta the convexity margin of its
    Glassey bound; None lets evolve take u0's record, or the margin of
    negative energy."""

    u0: Field
    record0: observables.ObservableRecord | None = None
    glassey_delta: float | None = None
    checkpoint_cb: Callable[[Field], None] | None = None


class TrajectoryOutcome:
    """One Member's trajectory: evolve builds it when the stack starts,
    steps it, and returns it.  status is None while it runs, then
    "completed", "blowup-detected" or "invalid"; stop sets it with
    t_reached, tstar_estimate (blow-up only) and final_field (an invalid
    run's last good record).  The other public attributes are records,
    warnings, glassey_bound and max_boundary_mass_fraction."""

    def __init__(self, member: Member, spec, cfg):
        u0, glassey_delta = member.u0, member.glassey_delta
        u0.require_finite()
        self._spec, self._cfg, self._checkpoint_cb = spec, cfg, member.checkpoint_cb
        self.status = self.t_reached = self.tstar_estimate = self.final_field = None
        self.records, self.warnings, self.max_boundary_mass_fraction = [], [], 0.0
        self._add_record(u0, member.record0)
        rec0 = self.records[0]
        self._grad0 = np.sqrt(rec0.kinetic)
        self._warned_grad = self._warned_dt = False
        if glassey_delta is None:
            glassey_delta = glassey_delta_negative_energy(spec, rec0.energy)
        self.glassey_bound = None
        if glassey_delta is not None and glassey_delta > 0 and rec0.virial > 0:
            vdot0 = observables.morawetz_action(u0, "quadratic")
            self.glassey_bound = float(glassey_upper_bound(rec0.virial, vdot0, glassey_delta))
        self._last_good = u0.copy()

    def _add_record(self, f, rec=None):
        self.records.append(rec if rec is not None else observables.record(
            f, self._spec, phi_r=tuple(self._cfg.phi_r_list)))
        self.max_boundary_mass_fraction = max(self.max_boundary_mass_fraction,
                                              boundary_shell_mass_fraction(f))

    def _grew(self, kinetic):
        """Whether sqrt(kinetic) reached blowup_grad_factor times ||grad u0||."""
        return self._grad0 > 0 and np.sqrt(kinetic) >= self._cfg.blowup_grad_factor * self._grad0

    def _read(self, f, record, checkpoint):
        """Record and checkpoint f as due; a record that fails stops the member."""
        if record:
            try:
                self._add_record(f)
            except InvalidFieldError as exc:
                self._stop("invalid", f.time, str(exc))
                return
            kinetic = self.records[-1].kinetic
            if self._grew(kinetic) and not self._warned_grad:
                self.warnings.append(
                    f"gradient grew {np.sqrt(kinetic) / self._grad0:.1f}x at "
                    f"t={f.time:.6g} without dt collapse"
                )
                self._warned_grad = True
            self._last_good.values[...] = f.values  # reuses the buffer
            self._last_good.time = f.time
        if checkpoint and self._checkpoint_cb is not None:
            self._checkpoint_cb(f.copy())

    def _stop(self, status, t, warning=None, field=None):
        """End the trajectory at t; an invalid one keeps its last good record."""
        if warning is not None:
            self.warnings.append(warning)
        self.status, self.t_reached = status, t
        if status == "blowup-detected":
            self.tstar_estimate = t
            if self.glassey_bound is not None and t > 1.2 * self.glassey_bound:
                self.warnings.append(f"Tstar estimate {t:.6g} exceeds the "
                                     f"Glassey bound {self.glassey_bound:.6g} by >20%")
        self.final_field = self._last_good if status == "invalid" else field
        self._last_good = self._checkpoint_cb = None


def _cfl_dt(cfg, alpha, sup):
    """dt0, or the power-of-two subdivision of dt0 (which keeps the cached
    free flow valid across consecutive steps) that brings dt sup^alpha to
    cfl_constant or below; 0 where that needs a dt below the float range."""
    try:
        raw = cfg.cfl_constant / sup**alpha
    except ZeroDivisionError:  # sup^alpha is 0: sup is 0, or nearly
        return cfg.dt0
    except OverflowError:  # sup^alpha is past the float range
        return 0.0
    if raw >= cfg.dt0:
        return cfg.dt0
    return cfg.dt0 * 2.0 ** (-np.ceil(np.log2(cfg.dt0 / raw))) if raw > 0.0 else 0.0


def evolve(
    u0: Field | list[Member],
    spec: EquationSpec,
    cfg: EvolveConfig,
    checkpoint_cb=None,
) -> TrajectoryOutcome | list[TrajectoryOutcome]:
    """Integrate to t_end or to detected blow-up, recording observables.

    Blow-up detection requires both the gradient-growth and the dt-collapse
    criteria; either alone only produces a warning.  On a NaN the run stops
    with status "invalid" and the last good recorded field.

    u0 may also be a list of Members whose fields share one grid: they
    then advance as one (K, *shape) stack on fixed dt, each with its own
    records, checkpoints, warnings and stop, and a list of outcomes is
    returned.  Every member's outcome equals that of its solo run bit for
    bit.  The field is read at every checkpoint step of a positive
    checkpoint_stride, whether or not a member has a callback.

    The stepping loop runs under `_fpenv.flush_subnormals`: on x86-64
    Linux, values below 2.2e-308 read as 0 in it, and so they do in the
    records and checkpoint callbacks it makes.  The caller's floating-point
    environment is restored on return and on an exception.
    """
    solo = isinstance(u0, Field)
    members = [Member(u0, checkpoint_cb=checkpoint_cb)] if solo else u0
    grid = members[0].u0.grid
    if any(m.u0.grid.describe() != grid.describe() for m in members):
        raise ValueError("the fields of a stack must share one grid")
    fixed = cfg.adaptivity == "fixed"
    if not fixed and len(members) > 1:
        raise ValueError("adaptive dt advances one field at a time")
    stepper = SplitStepper(grid, spec)
    runs = [TrajectoryOutcome(m, spec, cfg) for m in members]
    # row i of u is runs[i]'s field; a stopped member's row is stepped on
    # but never read again
    u = np.stack([m.u0.values for m in members])
    t = 0.0

    if fixed:
        # a quotient that overflows still makes a run that stops at max_steps
        n_steps = max(1, round(min(cfg.t_end / cfg.dt0, np.finfo(float).max)))
        dt = dt_fixed = cfg.t_end / n_steps

    with flush_subnormals():  # records and checkpoint callbacks included
        step, at_end = 0, False
        while not at_end and any(m.status is None for m in runs):
            if not fixed:
                m = runs[0]  # adaptive dt follows its one field
                lo, hi = stepper.sup_bounds(u)
                dt = _cfl_dt(cfg, spec.alpha, hi)
                # dt falls as max|u| grows: equal at both bounds, it is max|u|'s
                if dt != _cfl_dt(cfg, spec.alpha, lo) or dt < cfg.blowup_dt_floor:
                    u = stepper.settle(u)
                    dt = _cfl_dt(cfg, spec.alpha, stepper.sup_bounds(u)[1])
                if dt < cfg.blowup_dt_floor:
                    f = Field(grid, u[0], t)
                    if m._grew(gradient_norm_sq(f)):
                        if m.records[-1].t != t:  # the trajectory up to detection
                            m._add_record(f)
                        m._stop("blowup-detected", t, field=f.copy())
                        break
                    if not m._warned_dt:
                        m.warnings.append(
                            f"adaptive dt {dt:.3e} fell below the floor at t={t:.6g} "
                            "without gradient growth; clamped"
                        )
                        m._warned_dt = True
                    dt = cfg.blowup_dt_floor
                dt = min(dt, cfg.t_end - t)

            with np.errstate(all="ignore"):  # overflow near blow-up produces the
                u = stepper.step(u, dt)      # NaNs the status check looks for
            step += 1
            t = step * dt_fixed if fixed else t + dt

            for m, ok in zip(runs, stepper.finite_rows):
                if not ok and m.status is None:
                    m._stop("invalid", t, f"non-finite field after step {step} (t={t:.6g})")

            at_end = step == n_steps if fixed else t >= cfg.t_end * (1.0 - 1e-12)
            record_now = step % cfg.record_stride == 0 or at_end
            checkpoint_now = cfg.checkpoint_stride > 0 and (
                step % cfg.checkpoint_stride == 0 or at_end)
            if record_now or checkpoint_now:
                u = stepper.settle(u)
                # by index: no loop variable keeps a row of u alive
                for i, m in enumerate(runs):
                    if m.status is None:
                        m._read(Field(grid, u[i], t), record_now, checkpoint_now)
            # a run that reaches t_end on its max_steps-th step completes; one
            # that does not stops on its last good record, so nothing settles
            if step >= cfg.max_steps and not at_end:
                for m in runs:
                    if m.status is None:
                        m._stop("invalid", t, f"max_steps={cfg.max_steps} exceeded at t={t:.6g}")
                break

    for m, row in zip(runs, u):
        if m.status is None:
            m._stop("completed", t, field=Field(grid, row.copy(), t))
    return runs[0] if solo else runs


def evolve_linear(u0: Field, spec: EquationSpec, duration: float, dt: float) -> Field:
    """Propagate under the linear flow (spec's potential, nonlinearity off).

    duration may be negative (backward propagation); both sub-flows are
    exactly invertible.  With c = 0 on a Cartesian grid this is the exact
    free propagator.  Its steps run under `_fpenv.flush_subnormals`, as
    evolve's do.
    """
    u0.require_finite()
    if dt <= 0:
        raise ValueError("dt must be positive")
    if duration == 0.0:
        return u0.copy()
    stepper = SplitStepper(u0.grid, spec)
    n_steps = max(1, int(round(abs(duration) / dt)))
    h = duration / n_steps
    u = u0.values
    with flush_subnormals():
        for _ in range(n_steps):
            u = stepper.step(u, h, nonlinear=False)
        u = stepper.settle(u)
    out = Field(u0.grid, u, u0.time + duration)
    out.require_finite()
    return out
