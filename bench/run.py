"""nlslab benchmark: time to a checked result, per-layer timings from outside.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; nlslab is imported from ``src/``.
Every pass runs in a fresh interpreter (``bench/child.py``) with BLAS
and OpenMP pools capped at the number of usable cores, and its output is
checked outside the timed interval.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a separate traced pass plus per-call timings.  ``--workload all``
runs both for every workload.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import collections
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # one workload's run, all child processes included
# Times are reported at a fixed host speed: a unit's time x PROBE_REF_S /
# the time of child.probe_s() in the same process.  On a shared host the
# speed of an unchanged pass drifts by up to 40% over minutes; the probe,
# which runs no nlslab code, drifts with it.
PROBE_REF_S = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# cap every child at the cores this process may use
NPROC = len(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. no nlslab sources)."""


# -- child processes ------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(NPROC)
    return env


class Children:
    """Runs child.py units, one at a time, and counts attempts and failures."""

    def __init__(self, name, seed, deadline):
        self.name, self.seed, self.deadline = name, seed, deadline
        self.attempts = collections.Counter()
        self.failed = collections.Counter()
        self.failures = []
        os.makedirs(WORK_DIR, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)

    def run(self, mode):
        """Result dict of one unit, or None (failure recorded) if it broke."""
        self.attempts[mode] += 1
        # one path for every unit, emptied after each: the config hash
        # covers the output directory, and passes must produce
        # byte-identical outputs
        directory = os.path.join(self.work, "unit")
        os.makedirs(directory)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               mode, self.name, str(self.seed), directory]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=directory,
                                  capture_output=True, text=True, timeout=timeout)
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
                return self._fail(mode, f"exit {proc.returncode}: {' | '.join(tail)}")
            with open(os.path.join(directory, "result.json"), encoding="utf-8") as fh:
                return json.load(fh)
        except subprocess.TimeoutExpired:
            return self._fail(mode, "no result before the run's time limit")
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _fail(self, mode, message):
        self.failed[mode] += 1
        self.failures.append(f"{mode}: {message}")
        return None

    def gate(self, mode, result, reference):
        """Record a failed gate; returns the result if it passed."""
        problems = list(result["failures"])
        if reference is not None and result["digests"] != reference:
            changed = sorted(k for k in result["digests"]
                             if result["digests"][k] != reference.get(k))
            problems.append(f"outputs differ from the first pass: {changed}")
        problems += [f"wrapper left installed: {w}"
                     for w in result.get("wrappers_left", [])]
        if problems:
            return self._fail(mode, "; ".join(problems))
        return result

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


# -- statistics -------------------------------------------------------------

def describe(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def at_ref_speed(unit, key):
    """A unit's time scaled to the host speed at which the probe takes
    PROBE_REF_S."""
    return unit[key] * PROBE_REF_S / unit["probe_s"]


# -- one workload -------------------------------------------------------------

def run_passes(children, seconds, reserve):
    """Timed passes until ``seconds`` have passed, and at least MIN_PASSES.

    The first pass that passes its gate is the reference whose outputs
    every later pass must match byte for byte.
    """
    passes, reference = [], None
    start = time.monotonic()
    longest = 0.0
    attempts = 0
    while attempts < MIN_PASSES or time.monotonic() - start < seconds:
        if time.monotonic() + longest + reserve > children.deadline:
            break
        began = time.monotonic()
        attempts += 1
        result = children.run("pass")
        longest = max(longest, time.monotonic() - began)
        if result is not None and children.gate("pass", result, reference):
            if reference is None:
                reference = result["digests"]
            passes.append(result)
    return passes, reference


def layer_metrics(traced, passes, setups, percall):
    spans, counters = traced["spans"], traced["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {
        "evolve.SplitStepper.builds": counters["builds"],
        "evolve.evolve_linear.calls": span("evolve.evolve_linear", "calls"),
        "checkpoint.bytes_written": counters["bytes_written"],
        "groundstate.solves_per_key": counters["solves_per_key"],
        "cli.import_s": statistics.median(s["import_s"] for s in setups),
        "trace.overhead_frac": at_ref_speed(traced, "wall_s")
        / statistics.median(at_ref_speed(p, "wall_s") for p in passes) - 1.0,
    }
    for name in ("evolve.SplitStepper.step", "observables.record",
                 "checkpoint.write_field", "groundstate.solve_ground_state"):
        out[f"{name}.calls"] = span(name, "calls")
    for name in ("evolve.SplitStepper.step", "evolve.evolve", "observables.record",
                 "observables.scattering_cauchy_diagnostic",
                 "checkpoint.write_field", "groundstate.solve_ground_state",
                 "cli.main"):
        out[f"{name}.self_s"] = span(name, "self_s")
    out.update(percall["metrics"])
    return out


def run_workload(name, seed, seconds, trace):
    children = Children(name, seed, time.monotonic() + RUN_LIMIT_S)
    try:
        env = children.run("env")
        if env is None:
            raise BenchError(children.failures[-1])
        if not env["nlslab_file"].startswith(SRC + os.sep):
            raise BenchError(f"nlslab imported from {env['nlslab_file']}, not {SRC}")
        setups = [s for s in (children.run("setup") for _ in range(SETUP_REPS)) if s]
        reserve = 30.0 if trace else 0.0
        passes, reference = run_passes(children, seconds, reserve)
        out = {
            "workload": name, "env": env, "setups": setups, "passes": passes,
            "traced": None, "percall": None,
        }
        if trace and passes:
            traced = children.run("trace")
            if traced is not None:
                out["traced"] = children.gate("trace", traced, reference)
            out["percall"] = children.run("percall")
        out["attempts"], out["failed"] = children.attempts, children.failed
        out["failures"] = children.failures
        return out
    finally:
        children.close()


def end_to_end(result):
    passes, setups = result["passes"], result["setups"]
    stats = {}
    if passes:
        stats["wall_s"] = describe([at_ref_speed(p, "wall_s") for p in passes])
        stats["raw_wall_s"] = describe([p["wall_s"] for p in passes])
        stats["probe_s"] = describe([p["probe_s"] for p in passes])
        stats["peak_rss_mib"] = describe([p["peak_rss_mib"] for p in passes])
    if setups:
        stats["setup_s"] = describe([at_ref_speed(s, "setup_s") for s in setups])
        stats["raw_setup_s"] = describe([s["setup_s"] for s in setups])
    return stats


def per_layer(result):
    if not (result["traced"] and result["percall"] and result["passes"]
            and result["setups"]):
        return {}
    return layer_metrics(result["traced"], result["passes"], result["setups"],
                         result["percall"])


# -- reporting ------------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes():
    """Cache level-type -> size string (e.g. "L3-Unified": "307200K")."""
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}-{kind}"] = _read(f"{index}/size")
    return caches


def environment(seed, env):
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    return {
        "cpu": cpu, "nproc": NPROC, "caches": cache_sizes(),
        "python": env["python"], "numpy": env["numpy"], "scipy": env["scipy"],
        "blas": env["blas"], "threads": {v: str(NPROC) for v in THREAD_VARS},
        "commit": git_commit(), "seed": seed,
    }


def git_commit():
    """HEAD commit read from .git directly (the checkout may not be a repo)."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(result, stats, layers, spec):
    name = result["workload"]
    lines = [f"== {name}"]
    n_pass = result["attempts"]["pass"] + result["attempts"]["trace"]
    failed_passes = result["failed"]["pass"] + result["failed"]["trace"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(raw_wall_s="s", raw_setup_s="s", probe_s="s")
    for key, s in stats.items():
        lines.append(f"{name} {key:<14} {s['median']:.6g} {units[key]}  "
                     f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    lines.append(f"{name} failed_frac    {failed_passes / max(n_pass, 1):.6g} "
                 f"({failed_passes} failed of {n_pass} passes)")
    for p in result["passes"][:1]:
        lines.append(f"{name} gate notes: {json.dumps(p['notes'])}")
    traced = result["traced"]
    if traced:
        wall = traced["spans"]["pass"]["total_s"]
        shares = sorted(((s["self_s"] / wall, k) for k, s in traced["spans"].items()),
                        reverse=True)
        lines.append(f"{name} traced pass {wall:.4g} s; self-time shares: "
                     + ", ".join(f"{k} {f:.1%}" for f, k in shares))
    if layers:
        for m in spec["per_layer"]:
            lines.append(f"{name} {m['name']} = {layers[m['name']]:.6g} {m['unit']}")
        largest = result["percall"]["largest_field_bytes"]
        l3 = cache_sizes().get("L3-Unified")
        lines.append(
            f"{name} the largest field, {largest / 2**20:.3g} MiB, is far below "
            f"the {l3} L3, so no bandwidth or roofline ratio is reported; "
            "checkpoint.bytes_written is computed from field sizes, not measured"
        )
    for f in result["failures"]:
        lines.append(f"{name} FAILED {f}")
    return lines


def select(values, specs, prefix=""):
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        return None, missing
    return {f"{prefix}{m['name']}": {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}, []


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nlslab", "__init__.py")):
        print(f"bench: no nlslab sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        jobs = [(n, t) for n in names for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    metrics, attempted, failed, correct = {}, 0, 0, True
    env_printed = False
    for name, trace in jobs:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        if not env_printed:
            print("env " + json.dumps(environment(args.seed, result["env"])))
            env_printed = True
        stats = end_to_end(result)
        layers = per_layer(result) if trace else {}
        for line in report(result, stats, layers, spec):
            print(line)
        values = layers if trace else {k: s["median"] for k, s in stats.items()}
        prefix = f"{name}/" if args.workload == "all" else ""
        chosen, missing = select(values, spec["per_layer" if trace else "end_to_end"],
                                 prefix)
        if missing:
            print(f"{name} FAILED no value for {', '.join(missing)}")
            correct = False
        else:
            metrics.update(chosen)
        attempted += sum(result["attempts"].values())
        failed += sum(result["failed"].values())
        correct = correct and not result["failures"]
        sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
