"""Command-line laboratory: groundstate | evolve | classify | sweep | check.

Every command takes a single config path.  Artifacts are written
atomically, embed the config hash, and are bit-reproducible for identical
configs (fixed quadrature reduction order, named seed).

Exit codes: 0 success, 2 invalid config, 3 resource problem,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import sys
import time
import typing

import numpy as np

from . import __version__
from .checkpoint import (
    atomic_write_text,
    ground_state_basename,
    load_ground_state,
    save_ground_state,
    write_field,
)
from .checks import run_invariant_suite
from .config import (
    ConfigError,
    DEFAULT_CONFIG_TEMPLATE,
    ExperimentConfig,
    build_grid,
    build_groundstate_grid,
    build_initial_field,
    config_hash,
    groundstate_solver_hash,
    load_config,
    override,
)
from .equation import (
    RegimeNotCoveredError,
    ThresholdVerdict,
    classify_criticality,
    negativity_margin,
    threshold_test,
)
from .evolve import evolve
from .grid import Field, Grid, GridError, InvalidFieldError
from .groundstate import GroundStateError, make_bubble, solve_ground_state
from .observables import virial_identity_check, virial_rhs_forms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

# series.csv columns: ObservableRecord fields, where virial_phi_r stands for
# one virial_phiR_<R> column per localized-virial scale R of r_list
CSV_COLUMNS = ("t", "mass", "energy", "kinetic", "potential_term", "nonlinear_term",
               "virial", "virial_phi_r", "morawetz_abs", "l4_density", "linfty")


def _fmt(v) -> str:
    return repr(float(v))


def records_to_csv(records, r_list, cfg_hash):
    columns = []  # (header, value of a record)
    for name in CSV_COLUMNS:
        if name == "virial_phi_r":
            columns += [(f"virial_phiR_{R:g}",
                         lambda rec, R=float(R): rec.virial_phi_r[R]) for R in r_list]
        else:
            columns.append((name, operator.attrgetter(name)))
    lines = [f"# config_hash={cfg_hash}", ",".join(name for name, _ in columns)]
    lines += [",".join(_fmt(value(rec)) for _, value in columns) for rec in records]
    return "\n".join(lines) + "\n"


def _groundstate_dir(cfg: ExperimentConfig):
    return cfg.groundstate.directory or os.path.join(
        cfg.output.directory, "groundstates"
    )


def _solve_artifact_groundstate(cfg: ExperimentConfig):
    """Load the (d, alpha) ground-state artifact; solve and save it when it
    is absent or was solved with other [groundstate] solver settings."""
    d, alpha = cfg.equation.d, cfg.equation.alpha
    gdir = _groundstate_dir(cfg)
    base = os.path.join(gdir, ground_state_basename(d, alpha))
    solver_hash = groundstate_solver_hash(cfg)
    if os.path.exists(base + "_norms.json"):
        gs = load_ground_state(base, solver_hash=solver_hash)
        if gs is not None:
            return gs
    gc = cfg.groundstate
    gs = solve_ground_state(d, alpha, build_groundstate_grid(cfg),
                            tol=gc.tol, max_iter=gc.max_iter)
    save_ground_state(gdir, gs, solver_hash)
    return gs


def _initial_field(cfg: ExperimentConfig):
    """u0 on the run grid; groundstate-scaled data solves Q on that grid."""
    grid = build_grid(cfg)
    ground_state = None
    if cfg.initial.kind == "groundstate-scaled":
        ground_state = solve_ground_state(
            cfg.equation.d, cfg.equation.alpha, grid, tol=cfg.groundstate.tol
        )
    return build_initial_field(cfg, grid, ground_state)


def _threshold_for_field(cfg, u0):
    """(verdict, glassey_delta, record of u0) for the initial data.

    The verdict is None when the regime is uncovered.  glassey_delta is the
    convexity margin of blow-up-branch data with E >= 0, else None.  The
    reference ground state (or bubble) is dropped on return.
    """
    from .observables import record

    spec = cfg.equation
    info = classify_criticality(spec)
    rec = record(u0, spec, epsilon_reg=cfg.evolve.epsilon_reg)
    if (
        info.regime in ("mass-subcritical", "energy-supercritical")
        or spec.c < 0
    ):
        return None, None, rec
    if info.regime == "energy-critical":
        grid = Grid(3, "radial", n_r=cfg.groundstate.n_r, r_max=128.0)
        reference = make_bubble(grid)
    else:
        reference = _solve_artifact_groundstate(cfg)
    try:
        verdict = threshold_test(
            spec,
            mass=rec.mass,
            energy=rec.energy,
            gradnorm=float(np.sqrt(rec.kinetic)),
            ground_state=reference,
        )
    except RegimeNotCoveredError:
        return None, None, rec
    glassey_delta = None
    if verdict.verdict == "blowup-branch" and rec.energy >= 0:
        glassey_delta = negativity_margin(spec, rec.mass, rec.energy, reference)
    return verdict, glassey_delta, rec


def _verdict_dict(verdict):
    if verdict is None:
        return {"verdict": "not-applicable"}
    return dataclasses.asdict(verdict)


def _identity_checks(outcome, cfg):
    """Cheap per-run identity checks serialized into the summary."""
    checks = []
    recs = outcome.records
    m0 = recs[0].mass
    if m0 > 0:
        drift = max(abs(r.mass / m0 - 1.0) for r in recs)
        checks.append(
            {
                "name": "mass-conservation",
                "rel_error": drift,
                "tol": cfg.observables.tolerance,
                "passed": drift <= cfg.observables.tolerance,
            }
        )
    forms_err = 0.0
    for r in recs:
        f1, f2, f3 = virial_rhs_forms(r, cfg.equation)
        scale = max(abs(f1), abs(f2), abs(f3), 1e-30)
        forms_err = max(forms_err, abs(f1 - f2) / scale, abs(f1 - f3) / scale)
    checks.append(
        {
            "name": "virial-rhs-forms-agree",
            "rel_error": forms_err,
            "tol": 1e-10,
            "passed": forms_err <= 1e-10,
        }
    )
    if len(recs) >= 3 and outcome.status == "completed":
        try:
            c = virial_identity_check(recs, cfg.equation)
            checks.append(
                {
                    "name": c.name,
                    "rel_error": c.rel_error,
                    "tol": c.tol,
                    "passed": c.passed,
                }
            )
        except ValueError:
            pass
    return checks


def _write_summary(path, payload):
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


class _PreparedRun(typing.NamedTuple):
    config_hash: str
    u0: Field
    verdict: ThresholdVerdict | None  # None outside the covered regimes
    glassey_delta: float | None
    checkpoint_cb: typing.Callable[[Field], None] | None


def _prepare_run(cfg: ExperimentConfig) -> _PreparedRun:
    """The pre-step part of a run: u0, its verdict and Glassey delta, and
    the checkpoint writer."""
    run_dir = cfg.output.directory
    os.makedirs(run_dir, exist_ok=True)
    chash = config_hash(cfg)
    u0 = _initial_field(cfg)
    verdict, glassey_delta = None, None
    try:
        verdict, glassey_delta, _ = _threshold_for_field(cfg, u0)
    except (RegimeNotCoveredError, GroundStateError):
        pass

    checkpoint_index = [0]

    def checkpoint_cb(f):
        base = os.path.join(run_dir, f"checkpoint_{checkpoint_index[0]:06d}")
        write_field(base, f, config_hash=chash)
        checkpoint_index[0] += 1

    cb = checkpoint_cb if cfg.evolve.checkpoint_stride > 0 else None
    return _PreparedRun(chash, u0, verdict, glassey_delta, cb)


def _finish_run(cfg: ExperimentConfig, run: _PreparedRun, outcome, started):
    """The post-step part of a run: series.csv, the final state and
    summary.json; returns the summary."""
    run_dir, chash = cfg.output.directory, run.config_hash
    if "csv" in cfg.output.formats:
        atomic_write_text(
            os.path.join(run_dir, "series.csv"),
            records_to_csv(outcome.records, cfg.evolve.phi_r_list, chash),
        )
    if outcome.final_field is not None:
        write_field(os.path.join(run_dir, "final_state"), outcome.final_field,
                    config_hash=chash)
    summary = {
        "code_version": __version__,
        "config_hash": chash,
        "seed": cfg.output.seed,
        "status": outcome.status,
        "t_reached": outcome.t_reached,
        "tstar_estimate": outcome.tstar_estimate,
        "glassey_bound": outcome.glassey_bound,
        "max_boundary_mass_fraction": outcome.max_boundary_mass_fraction,
        "warnings": outcome.warnings,
        "n_records": len(outcome.records),
        "threshold": _verdict_dict(run.verdict),
        "identity_checks": _identity_checks(outcome, cfg),
        "wall_time_s": time.perf_counter() - started,
    }
    if "json" in cfg.output.formats:
        _write_summary(os.path.join(run_dir, "summary.json"), summary)
    return summary


def _run_stack(cfgs):
    """Run configs that differ only in [initial] and output.directory as
    one stepped stack (one config: a solo run); [(outcome, summary)].

    A member's wall_time_s runs from the start of the stack to its own
    summary, so it counts the whole shared stepping loop.
    """
    started = time.perf_counter()
    runs = [_prepare_run(cfg) for cfg in cfgs]
    outcomes = evolve([r.u0 for r in runs], cfgs[0].equation, cfgs[0].evolve,
                      checkpoint_cb=[r.checkpoint_cb for r in runs],
                      glassey_delta=[r.glassey_delta for r in runs])
    return [(outcome, _finish_run(cfg, run, outcome, started))
            for cfg, run, outcome in zip(cfgs, runs, outcomes)]


def cmd_groundstate(cfg: ExperimentConfig) -> int:
    gs = _solve_artifact_groundstate(cfg)
    base = os.path.join(_groundstate_dir(cfg), ground_state_basename(gs.d, gs.alpha))
    e1, e2 = gs.pohozaev_errors()
    print(
        f"ground state d={gs.d} alpha={gs.alpha:g}: mass={gs.mass:.9g} "
        f"kinetic={gs.kinetic:.9g} C_GN={gs.gn_constant:.9g} "
        f"residual={gs.residual:.2e} pohozaev=({e1:.2e}, {e2:.2e})"
    )
    print(f"artifact: {base}_norms.json")
    return EXIT_OK


def cmd_evolve(cfg: ExperimentConfig) -> int:
    [(outcome, _)] = _run_stack([cfg])
    print(
        f"status={outcome.status} t_reached={outcome.t_reached:.6g} "
        f"records={len(outcome.records)}"
    )
    if outcome.tstar_estimate is not None:
        bound = outcome.glassey_bound
        print(
            f"Tstar_estimate={outcome.tstar_estimate:.6g}"
            + (f" glassey_bound={bound:.6g}" if bound is not None else "")
        )
    for w in outcome.warnings:
        print(f"warning: {w}")
    if outcome.status == "invalid":
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_classify(cfg: ExperimentConfig) -> int:
    verdict, _, rec0 = _threshold_for_field(cfg, _initial_field(cfg))
    os.makedirs(cfg.output.directory, exist_ok=True)
    payload = {
        "code_version": __version__,
        "config_hash": config_hash(cfg),
        "regime": classify_criticality(cfg.equation).regime,
        "mass": rec0.mass,
        "energy": rec0.energy,
        "gradnorm": float(np.sqrt(rec0.kinetic)),
        "threshold": _verdict_dict(verdict),
    }
    _write_summary(os.path.join(cfg.output.directory, "classify.json"), payload)
    print(f"regime={payload['regime']} verdict={payload['threshold']['verdict']}")
    return EXIT_OK


def _sweep_member(cfg: ExperimentConfig, value, index) -> ExperimentConfig:
    """The validated config of one sweep member, writing to run_<index>."""
    sw = cfg.sweep
    try:
        member = override(cfg, sw.parameter, value)
    except ConfigError as exc:
        raise ConfigError(f"[sweep] {sw.parameter} = {value!r}: {exc}") from exc
    run_dir = os.path.join(cfg.output.directory, f"run_{index:03d}")
    return override(member, "output.directory", run_dir)


def _stackable(members) -> bool:
    """Whether the members can step as one stack: fixed dt on a Cartesian
    grid, with configs that differ only in [initial] and output.directory."""
    def shared(m):
        return dataclasses.replace(
            m, initial=None, output=dataclasses.replace(m.output, directory=""))

    first = members[0]
    return (first.evolve.adaptivity == "fixed" and first.grid.mode == "cartesian"
            and all(shared(m) == shared(first) for m in members))


def _sweep_stacks(members, workers):
    """Stackable members in min(workers, K) contiguous stacks, others one
    member per stack."""
    if not _stackable(members):
        return [[m] for m in members]
    k, n = len(members), min(workers, len(members))
    return [members[i * k // n:(i + 1) * k // n] for i in range(n)]


def _stack_summaries(stack):
    return [summary for _, summary in _run_stack(stack)]


def cmd_sweep(cfg: ExperimentConfig) -> int:
    sw = cfg.sweep
    if not sw.parameter or not sw.values:
        raise ConfigError("[sweep] needs parameter and values")
    # every member is validated before the first run starts
    members = [_sweep_member(cfg, v, i) for i, v in enumerate(sw.values)]
    os.makedirs(cfg.output.directory, exist_ok=True)
    stacks = _sweep_stacks(members, sw.workers)
    if sw.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(sw.workers, len(stacks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_stack = list(pool.map(_stack_summaries, stacks))
    else:
        per_stack = [_stack_summaries(stack) for stack in stacks]
    results = list(zip(sw.values, (s for stack in per_stack for s in stack)))

    chash = config_hash(cfg)
    lines = [
        f"# config_hash={chash}",
        f"{sw.parameter},status,t_reached,tstar_estimate,glassey_bound,verdict",
    ]
    for value, summary in results:
        tstar = summary["tstar_estimate"]
        bound = summary["glassey_bound"]
        lines.append(
            ",".join(
                [
                    _fmt(value),
                    summary["status"],
                    _fmt(summary["t_reached"]),
                    "" if tstar is None else _fmt(tstar),
                    "" if bound is None else _fmt(bound),
                    summary["threshold"]["verdict"],
                ]
            )
        )
    atomic_write_text(
        os.path.join(cfg.output.directory, "sweep_table.csv"), "\n".join(lines) + "\n"
    )
    _write_summary(
        os.path.join(cfg.output.directory, "sweep_summary.json"),
        {
            "code_version": __version__,
            "config_hash": chash,
            "parameter": sw.parameter,
            "values": list(sw.values),
            "statuses": [s["status"] for _, s in results],
        },
    )
    for value, summary in results:
        print(f"{sw.parameter}={value:g}: {summary['status']}")
    return EXIT_OK


def _hash_consistency(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Every artifact under the run directory must embed the hash of the
    config that wrote it: a sweep's run_XXX that of its member config
    (_sweep_member), a ground-state artifact that config's solver hash."""
    directory = cfg.output.directory
    if not os.path.isdir(directory):
        return True, "no run directory yet"
    owners = {directory: cfg}
    if cfg.sweep.parameter:
        for i, value in enumerate(cfg.sweep.values):
            member = _sweep_member(cfg, value, i)
            owners[member.output.directory] = member
    seen = 0
    for top, owner in owners.items():
        want = {"config_hash": config_hash(owner),
                "solver_hash": groundstate_solver_hash(owner)}
        for root, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if os.path.join(root, d) not in owners]
            for name in files:
                path = os.path.join(root, name)
                found = {}
                if name.endswith(".json"):
                    with open(path, "r", encoding="utf-8") as fh:
                        found = json.load(fh)
                elif name.endswith(".csv"):
                    with open(path, "r", encoding="utf-8") as fh:
                        first = fh.readline().strip()
                    if first.startswith("# config_hash="):
                        found = {"config_hash": first.split("=", 1)[1]}
                for key in want.keys() & found.keys():
                    seen += 1
                    if found[key] != want[key]:
                        return False, f"{path} embeds a different {key}"
    return True, f"{seen} artifacts consistent"


def cmd_check(cfg: ExperimentConfig) -> int:
    ok = run_invariant_suite(seed=cfg.output.seed)
    hash_ok, detail = _hash_consistency(cfg)
    print(f"{'PASS' if hash_ok else 'FAIL'} hash-consistency: {detail}")
    return EXIT_OK if (ok and hash_ok) else EXIT_NUMERICAL


COMMANDS = {
    "groundstate": cmd_groundstate,
    "evolve": cmd_evolve,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="numerical laboratory for NLS with an inverse-power potential",
    )
    parser.add_argument("command", choices=sorted(COMMANDS) + ["template"])
    parser.add_argument("config", nargs="?", help="path to the experiment config")
    args = parser.parse_args(argv)
    if args.command == "template":
        print(DEFAULT_CONFIG_TEMPLATE, end="")
        return EXIT_OK
    if not args.config:
        print("error: config path required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config-invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config-invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GroundStateError, InvalidFieldError, GridError) as exc:
        print(f"numerical-failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"resource: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
