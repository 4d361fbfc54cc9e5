"""Reduced-length smoke test of the benchmark (under a minute).

    python3 -m pytest -q bench/test_smoke.py

Runs the shortest workload with ``--seconds 0`` (the minimum number of
timed passes), once untraced and once traced.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_and_gate_passes(trace, kind):
    proc = bench("--workload", "focus-ladder", "--seed", "0",
                 "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert not any("FAILED" in line for line in lines)
    specs = load_spec()[kind]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    report = "\n".join(lines[:-1])
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']}" in report and m["unit"] in report
    if kind == "per_layer":
        metrics = result["metrics"]
        assert metrics["groundstate.solve_ground_state.calls"]["value"] == 6
        assert metrics["evolve.SplitStepper.step.calls"]["value"] == 3362


def test_traced_pass_leaves_no_wrapper(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nlslab
    import nlslab.cli
    from tracing import Tracer, installed_wrappers

    originals = (nlslab.cli.main, nlslab.cli.evolve, nlslab.evolve,
                 nlslab.cli.write_field)
    tracer = Tracer()
    tracer.install()
    try:
        assert nlslab.cli.evolve is not originals[1]
        assert "nlslab.cli.evolve" in installed_wrappers()
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[equation]\nd = 1\n[grid]\nn = 64\nL = 8.0\n"
            "[evolve]\ndt0 = 1e-2\nt_end = 0.1\ncheckpoint_stride = 5\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert nlslab.cli.main(["evolve", str(cfg)]) == 0
    finally:
        tracer.restore()
    assert installed_wrappers() == []
    assert (nlslab.cli.main, nlslab.cli.evolve, nlslab.evolve,
            nlslab.cli.write_field) == originals
    assert tracer.calls("evolve.SplitStepper.step") == 10
    assert tracer.calls("checkpoint.write_field") == 3  # two checkpoints + final
    assert tracer.counters["builds"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "focus-ladder", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
