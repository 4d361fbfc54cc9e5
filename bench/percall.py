"""Per-call timings of one layer at a time on the workloads' grids.

Each operation is called a few times to warm up, then timed call by call
until a small time budget is spent; the median is reported in µs.
Ground-state solves report their exact iteration count and the solve
time divided by it.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

WARMUP = 3
BUDGET_S = 0.15
MIN_CALLS = 7
MAX_CALLS = 400
GS_REPEATS = 3

# (d, alpha) ground-state cases of acceptance criterion 1
GS_CASES = {
    "d1a2": (1, 2.0),
    "d1a4": (1, 4.0),
    "d1a6": (1, 6.0),
    "d2a2": (2, 2.0),
    "d3a2": (3, 2.0),
}


def _nls(name):
    return importlib.import_module(f"nlslab.{name}")


def median_us(fn):
    for _ in range(WARMUP):
        fn()
    samples = []
    spent = 0.0
    while len(samples) < MIN_CALLS or (spent < BUDGET_S and len(samples) < MAX_CALLS):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    return statistics.median(samples) * 1e6


def _gaussian(grid, amplitude, width):
    np = importlib.import_module("numpy")
    r2 = grid.radius() ** 2
    values = amplitude * np.exp(-r2 / (2.0 * width**2))
    return _nls("grid").Field(grid, values.astype(np.complex128))


def grid_cases():
    """name -> (spec, initial field, dt, phi_r) of each workload grid."""
    Grid = _nls("grid").Grid
    Spec = _nls("equation").EquationSpec
    return {
        "cart1d-1024": (
            Spec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing"),
            _gaussian(Grid(1, "cartesian", n=1024, L=40.0), 1.0, 1.0),
            1e-3, (),
        ),
        "cart1d-4096": (
            Spec(d=1, c=0.3, sigma=0.5, alpha=4.0, sign="focusing"),
            _gaussian(Grid(1, "cartesian", n=4096, L=8.0), 3.0, 0.7071067811865476),
            1e-3, (),
        ),
        "cart2d-256": (
            Spec(d=2, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing"),
            _gaussian(Grid(2, "cartesian", n=256, L=16.0), 1.0, 1.5),
            1e-3, (4.0, 8.0),
        ),
        "radial3d-3072": (
            Spec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing"),
            _gaussian(Grid(3, "radial", n_r=3072, r_max=96.0), 1e-2, 2.0),
            4e-3, (),
        ),
    }


def measure_grids(workdir):
    ev, obs, ckpt = _nls("evolve"), _nls("observables"), _nls("checkpoint")
    metrics = {}
    largest = 0
    for name, (spec, u0, dt, phi_r) in grid_cases().items():
        stepper = ev.SplitStepper(u0.grid, spec)
        u = u0.values
        base = os.path.join(workdir, f"percall_{name}")
        metrics[f"evolve.step_us.{name}"] = median_us(lambda: stepper.step(u, dt))
        metrics[f"evolve.linear_step_us.{name}"] = median_us(
            lambda: stepper.step(u, dt, nonlinear=False)
        )
        metrics[f"observables.record_us.{name}"] = median_us(
            lambda: obs.record(u0, spec, phi_r=phi_r)
        )
        metrics[f"checkpoint.write_field_us.{name}"] = median_us(
            lambda: ckpt.write_field(base, u0)
        )
        metrics[f"checkpoint.read_field_us.{name}"] = median_us(
            lambda: ckpt.read_field(base + ".json")
        )
        largest = max(largest, u0.values.nbytes)
    return metrics, largest


def measure_ground_states():
    Grid = _nls("grid").Grid
    solve = _nls("groundstate").solve_ground_state
    metrics = {}
    for case, (d, alpha) in GS_CASES.items():
        if d == 1:
            grid = Grid(1, "cartesian", n=1024, L=20.0)
        else:
            grid = Grid(d, "radial", n_r=32768, r_max=20.0)
        times, iterations = [], set()
        for _ in range(GS_REPEATS):
            start = time.perf_counter()
            gs = solve(d, alpha, grid)
            times.append(time.perf_counter() - start)
            iterations.add(gs.iterations)
        if len(iterations) != 1:
            raise RuntimeError(f"{case}: iteration counts differ {sorted(iterations)}")
        (count,) = iterations
        metrics[f"groundstate.iterations.{case}"] = count
        metrics[f"groundstate.iteration_us.{case}"] = (
            statistics.median(times) / count * 1e6
        )
    return metrics
