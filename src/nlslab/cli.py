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
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import (
    _json_text,
    atomic_write_text,
    ground_state_basename,
    load_ground_state,
    save_ground_state,
    write_field,
)
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
from .equation import (ENERGY_CRITICAL, classify_criticality, negativity_margin,
                       threshold_not_covered, threshold_test)
from .evolve import Member, evolve
from .grid import Grid, GridError, InvalidFieldError
from .groundstate import GroundStateError, make_bubble, solve_ground_state
from .observables import IdentityCheck, record, virial_identity_check, virial_rhs_forms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

STACK_NODES = 4096  # past this many nodes per field, a stack steps slower than solo runs


def _fmt(v) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else repr(float(v))


def _csv_text(config_hash, header, rows):
    lines = [f"# config_hash={config_hash}", ",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _groundstate_dir(cfg: ExperimentConfig):
    return cfg.groundstate.directory or os.path.join(
        cfg.output.directory, "groundstates"
    )


def _solve_artifact_groundstate(cfg: ExperimentConfig):
    """Load the (d, alpha) ground-state artifact; solve and save it unless
    it is the one save_ground_state writes for the config's alpha, ground-state
    grid and [groundstate] solver settings."""
    d, alpha = cfg.equation.d, cfg.equation.alpha
    gdir, grid = _groundstate_dir(cfg), build_groundstate_grid(cfg)
    solver_hash = groundstate_solver_hash(cfg)
    gs = load_ground_state(os.path.join(gdir, ground_state_basename(d, alpha)), alpha,
                           grid, solver_hash)
    if gs is None:
        gc = cfg.groundstate
        gs = solve_ground_state(d, alpha, grid, tol=gc.tol, max_iter=gc.max_iter)
        save_ground_state(gdir, gs, solver_hash)
    return gs


def _threshold(cfg, rec):
    """(verdict, glassey_delta) for initial data with record rec.

    The verdict is None when the regime is uncovered.  glassey_delta is the
    convexity margin of blow-up-branch data with E >= 0, else None.  The
    reference ground state (or bubble) is dropped on return.
    """
    spec = cfg.equation
    if threshold_not_covered(spec) is not None:
        return None, None
    if classify_criticality(spec).regime == ENERGY_CRITICAL:
        grid = Grid(3, "radial", n_r=cfg.groundstate.n_r, r_max=128.0)
        reference = make_bubble(grid)
    else:
        reference = _solve_artifact_groundstate(cfg)
    verdict = threshold_test(
        spec,
        mass=rec.mass,
        energy=rec.energy,
        gradnorm=float(np.sqrt(rec.kinetic)),
        ground_state=reference,
    )
    glassey_delta = None
    if verdict.verdict == "blowup-branch" and rec.energy >= 0:
        glassey_delta = negativity_margin(spec, rec.mass, rec.energy, reference)
    return verdict, glassey_delta


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
        checks.append(IdentityCheck("mass-conservation", drift, cfg.observables.tolerance))
    forms_err = 0.0
    for r in recs:
        f1, f2, f3 = virial_rhs_forms(r, cfg.equation)
        scale = max(abs(f1), abs(f2), abs(f3), 1e-30)
        forms_err = max(forms_err, abs(f1 - f2) / scale, abs(f1 - f3) / scale)
    checks.append(IdentityCheck("virial-rhs-forms-agree", forms_err, 1e-10))
    if outcome.status == "completed":
        try:
            checks.append(virial_identity_check(recs, cfg.equation))
        except ValueError:  # too few or unevenly strided records
            pass
    return checks


def _finite_or_null(value):
    """value with every non-finite float in it replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_summary(path, payload):
    """Strict JSON: a NaN or infinite value is written as null."""
    atomic_write_text(path, _json_text(_finite_or_null(payload)) + "\n")


def _prepare_run(cfg: ExperimentConfig, profiles=None):
    """The pre-step part of a run: its Member (u0, the one record of u0,
    its Glassey delta and the checkpoint writer), its threshold verdict
    (None outside the covered regimes, or where the reference solve fails)
    and its warnings (the failed solve's message).  profiles is
    build_initial_field's."""
    run_dir = cfg.output.directory
    os.makedirs(run_dir, exist_ok=True)
    chash = config_hash(cfg)
    u0 = build_initial_field(cfg, profiles)
    rec0 = record(u0, cfg.equation, phi_r=tuple(cfg.evolve.phi_r_list))
    verdict, glassey_delta, warnings = None, None, []
    try:
        verdict, glassey_delta = _threshold(cfg, rec0)
    except GroundStateError as exc:
        warnings.append(f"threshold: {exc}")

    checkpoint_index = [0]

    def checkpoint_cb(f):
        base = os.path.join(run_dir, f"checkpoint_{checkpoint_index[0]:06d}")
        write_field(base, f, config_hash=chash)
        checkpoint_index[0] += 1

    return Member(u0, rec0, glassey_delta, checkpoint_cb), verdict, warnings


def _finish_run(cfg: ExperimentConfig, verdict, warnings, outcome, started):
    """The post-step part of a run: series.csv (in the columns of the first
    record, u0's), the final state and summary.json, whose warnings are
    _prepare_run's, then the outcome's; returns the summary."""
    run_dir, chash = cfg.output.directory, config_hash(cfg)
    if "csv" in cfg.output.formats:
        header = [name for name, _ in outcome.records[0].columns()]
        rows = ([v for _, v in rec.columns()] for rec in outcome.records)
        atomic_write_text(os.path.join(run_dir, "series.csv"),
                          _csv_text(chash, header, rows))
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
        "warnings": warnings + outcome.warnings,
        "n_records": len(outcome.records),
        "threshold": _verdict_dict(verdict),
        "identity_checks": [dataclasses.asdict(c) for c in _identity_checks(outcome, cfg)],
        "wall_time_s": time.perf_counter() - started,
    }
    if "json" in cfg.output.formats:
        _write_summary(os.path.join(run_dir, "summary.json"), summary)
    return summary


def _run_stack(cfgs, profiles=None):
    """Run configs that share [equation], [grid] and [evolve] as one
    stepped stack (one config: a solo run); their summaries.

    A member's wall_time_s runs from the start of the stack to its own
    summary, so it counts the whole shared stepping loop.
    """
    started = time.perf_counter()
    members, verdicts, warnings = zip(*(_prepare_run(cfg, profiles) for cfg in cfgs))
    outcomes = evolve(list(members), cfgs[0].equation, cfgs[0].evolve)
    return [_finish_run(cfg, verdict, notes, outcome, started)
            for cfg, verdict, notes, outcome in zip(cfgs, verdicts, warnings, outcomes)]


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
    [summary] = _run_stack([cfg])
    print(
        f"status={summary['status']} t_reached={summary['t_reached']:.6g} "
        f"records={summary['n_records']}"
    )
    if summary["tstar_estimate"] is not None:
        bound = summary["glassey_bound"]
        print(
            f"Tstar_estimate={summary['tstar_estimate']:.6g}"
            + (f" glassey_bound={bound:.6g}" if bound is not None else "")
        )
    for w in summary["warnings"]:
        print(f"warning: {w}")
    if summary["status"] == "invalid":
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_classify(cfg: ExperimentConfig) -> int:
    # no phi_r: the verdict reads only mass, energy and the gradient norm
    rec0 = record(build_initial_field(cfg), cfg.equation)
    verdict, _ = _threshold(cfg, rec0)
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


def _sweep_stacks(members, workers):
    """min(workers, K) contiguous stacks of members that share what the
    stepping loop reads (a fixed dt, equal [equation], [grid] and [evolve])
    on fields of at most STACK_NODES nodes, else one member per stack."""
    first, k = members[0], len(members)
    if (first.evolve.adaptivity != "fixed"
            or any((m.equation, m.grid, m.evolve) != (first.equation, first.grid, first.evolve)
                   for m in members)
            or np.prod(build_grid(first).shape) > STACK_NODES):
        return [[m] for m in members]
    n = min(workers, k)
    return [members[i * k // n:(i + 1) * k // n] for i in range(n)]


def cmd_sweep(cfg: ExperimentConfig) -> int:
    sw = cfg.sweep
    if not sw.parameter or not sw.values:
        raise ConfigError("[sweep] needs parameter and values")
    # every member is validated before the first run starts
    members = [_sweep_member(cfg, v, i) for i, v in enumerate(sw.values)]
    os.makedirs(cfg.output.directory, exist_ok=True)
    # groundstate-scaled members share Q: one solve per key, before dispatch
    profiles = {}
    for m in members:
        if m.initial.kind == "groundstate-scaled":
            build_initial_field(m, profiles)
    run_stack = functools.partial(_run_stack, profiles=profiles)
    stacks = _sweep_stacks(members, sw.workers)
    if sw.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(sw.workers, len(stacks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_stack = list(pool.map(run_stack, stacks))
    else:
        per_stack = [run_stack(stack) for stack in stacks]
    results = list(zip(sw.values, (s for stack in per_stack for s in stack)))

    chash = config_hash(cfg)
    header = [sw.parameter, "status", "t_reached", "tstar_estimate", "glassey_bound",
              "verdict"]
    rows = [[value, s["status"], s["t_reached"], s["tstar_estimate"],
             s["glassey_bound"], s["threshold"]["verdict"]] for value, s in results]
    atomic_write_text(os.path.join(cfg.output.directory, "sweep_table.csv"),
                      _csv_text(chash, header, rows))
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
                try:
                    if name.endswith(".json"):
                        with open(path, "r", encoding="utf-8") as fh:
                            found = json.load(fh)
                    elif name.endswith(".csv"):
                        with open(path, "r", encoding="utf-8") as fh:
                            first = fh.readline().strip()
                        if first.startswith("# config_hash="):
                            found = {"config_hash": first.split("=", 1)[1]}
                except ValueError as exc:  # not JSON, or not UTF-8
                    return False, f"{path} is unreadable: {exc}"
                if not isinstance(found, dict):  # a JSON array or scalar carries no hash
                    continue
                for key in want.keys() & found.keys():
                    seen += 1
                    if found[key] != want[key]:
                        return False, f"{path} embeds a different {key}"
    return True, f"{seen} artifacts consistent"


def cmd_check(cfg: ExperimentConfig) -> int:
    from .checks import run_invariant_suite  # here: no other command compiles it
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
        return COMMANDS[args.command](load_config(args.config))
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
