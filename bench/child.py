"""One unit of benchmark work in a fresh interpreter.

    python3 bench/child.py <mode> <workload> <seed> <directory>

Modes: ``env`` (versions, untimed warm-up import), ``setup`` (import of
nlslab.cli plus the pre-step pipeline), ``pass`` (one timed pass and its
gate), ``trace`` (one pass under the tracer, then its gate) and
``percall`` (per-call layer timings).  The result is written as JSON to
``<directory>/result.json``; the exit code is 0 when the work ran, even
if the gate failed, which the result records.

Only the standard library is imported before the timed region starts:
``setup`` times the import of nlslab.cli and everything it pulls in.
"""

from __future__ import annotations

import json
import os
import sys
import time

from workloads import WORKLOADS

PROBE_ITERATIONS = 1000


def _write(directory, payload):
    with open(os.path.join(directory, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def probe_s():
    """Seconds a fixed numpy kernel takes now: the host's current speed.

    FFTs and pointwise phase rotations on 4096 nodes, like a Strang step,
    but no nlslab code, so a change to nlslab cannot move it.
    """
    import numpy as np

    x = np.exp(-np.linspace(-8.0, 8.0, 4096) ** 2).astype(np.complex128)
    mult = np.exp(-1j * np.fft.fftfreq(4096) ** 2)
    start = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        x = np.fft.ifft(mult * np.fft.fft(x))
        x = x * np.exp(-1j * np.abs(x) ** 4)
    return time.perf_counter() - start


def _peak_rss_mib():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_env(name, ctx):
    import nlslab
    import nlslab.cli  # noqa: F401  (warms the bytecode cache)
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nlslab_file": os.path.abspath(nlslab.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def mode_setup(name, ctx):
    start = time.perf_counter()
    import nlslab.cli  # noqa: F401

    imported = time.perf_counter()
    WORKLOADS[name]["setup"](ctx)
    done = time.perf_counter()
    return {"import_s": imported - start, "setup_s": done - start,
            "probe_s": probe_s()}


def mode_pass(name, ctx, tracer=None):
    import nlslab.cli  # noqa: F401

    workload = WORKLOADS[name]
    workload["prepare"](ctx)
    before = probe_s()
    if tracer is None:
        start = time.perf_counter()
        outcome = workload["run"](ctx)
        wall = time.perf_counter() - start
    else:
        tracer.install()
        try:
            outcome = tracer.span("pass", workload["run"], ctx)
        finally:
            tracer.restore()
        wall = tracer.spans["pass"].total
    peak = _peak_rss_mib()
    probe = (before + probe_s()) / 2.0
    failures, notes, digests = workload["gate"](ctx, outcome)
    return {"wall_s": wall, "probe_s": probe, "peak_rss_mib": peak,
            "failures": failures, "notes": notes, "digests": digests}


def mode_trace(name, ctx):
    from tracing import Tracer, installed_wrappers

    tracer = Tracer()
    result = mode_pass(name, ctx, tracer)
    result["wrappers_left"] = installed_wrappers()
    result["spans"] = {
        k: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
        for k, s in tracer.spans.items()
    }
    result["counters"] = dict(tracer.counters)
    keys = tracer.solve_keys
    result["counters"]["solves_per_key"] = (
        len(keys) / len(set(keys)) if keys else 0.0
    )
    return result


def mode_percall(name, ctx):
    import percall

    metrics, largest = percall.measure_grids(ctx["dir"])
    metrics.update(percall.measure_ground_states())
    return {"metrics": metrics, "largest_field_bytes": largest}


MODES = {
    "env": mode_env,
    "setup": mode_setup,
    "pass": mode_pass,
    "trace": mode_trace,
    "percall": mode_percall,
}


def main(argv):
    mode, name, seed, directory = argv
    ctx = {"dir": directory, "seed": int(seed)}
    _write(directory, MODES[mode](name, ctx))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
