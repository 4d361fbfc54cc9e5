import os
import sys

import numpy as np
import pytest

from nlslab import _fpenv
from nlslab.equation import EquationSpec
from nlslab.evolve import EvolveConfig, SplitStepper, evolve, evolve_linear
from nlslab.grid import Field, Grid, h1_norm

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or os.uname().machine != "x86_64",
    reason="the stepping loops flush subnormals on x86-64 Linux only")

TINY = np.float64(5e-324)  # the least subnormal


def flushing():
    return TINY * 1.0 == 0.0


def mxcsr_control():
    """This thread's MXCSR without its sticky exception flags."""
    env = _fpenv._Env()
    assert _fpenv._fenv()[0](env) == 0
    return env.words[7] & 0xFFC0


def scatter_data():
    """The scattering workload's data: d = 3, n_r = 3072, r_max = 96, u0 ~ e^(-r^2/8)."""
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    grid = Grid(3, "radial", n_r=3072, r_max=96.0)
    profile = np.exp(-grid.r**2 / 8.0).astype(complex)
    return spec, Field(grid, 1e-2 / h1_norm(Field(grid, profile)) * profile)


def subnormals(u):
    x = np.abs(u.view(np.float64))
    return int(np.count_nonzero((x > 0.0) & (x < np.finfo(np.float64).tiny)))


def small_run():
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    grid = Grid(3, "radial", n_r=128, r_max=12.0)
    u0 = Field(grid, np.exp(-grid.r**2).astype(complex))
    return u0, spec, EvolveConfig(dt0=1e-3, t_end=0.01, checkpoint_stride=5, record_stride=5)


def test_the_block_flushes_and_restores_the_callers_mode():
    before = mxcsr_control()
    assert not flushing()
    with _fpenv.flush_subnormals():
        assert flushing()
        with _fpenv.flush_subnormals():
            assert flushing()
        assert flushing()
    assert not flushing() and mxcsr_control() == before
    with pytest.raises(KeyError):
        with _fpenv.flush_subnormals():
            raise KeyError
    assert not flushing() and mxcsr_control() == before


def test_evolve_flushes_in_its_callbacks_and_restores_the_mode_after():
    u0, spec, cfg = small_run()
    before = mxcsr_control()
    seen = []
    out = evolve(u0, spec, cfg, checkpoint_cb=lambda f: seen.append(flushing()))
    assert out.status == "completed" and seen == [True, True]
    assert not flushing() and mxcsr_control() == before

    def failing(f):
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        evolve(u0, spec, cfg, checkpoint_cb=failing)
    assert not flushing() and mxcsr_control() == before


def test_evolve_linear_flushes_its_steps_and_restores_the_mode_after(monkeypatch):
    u0, spec, _ = small_run()
    before = mxcsr_control()
    evolve_linear(u0, spec, 0.01, 1e-3)
    assert not flushing() and mxcsr_control() == before
    seen, step = [], SplitStepper.step

    def noting(self, u, dt, nonlinear=True):
        seen.append(flushing())
        if len(seen) == 3:
            raise RuntimeError("third step")
        return step(self, u, dt, nonlinear)

    monkeypatch.setattr(SplitStepper, "step", noting)
    with pytest.raises(RuntimeError, match="third step"):
        evolve_linear(u0, spec, -0.01, 1e-3)  # a pullback
    assert seen == [True, True, True]
    assert not flushing() and mxcsr_control() == before


def test_scattering_data_holds_no_subnormal_after_five_flushed_steps():
    spec, u0 = scatter_data()
    assert subnormals(u0.values) > 0
    ieee, flushed = SplitStepper(u0.grid, spec, merge_halves=True), \
        SplitStepper(u0.grid, spec, merge_halves=True)
    u, v = u0.values, u0.values
    for _ in range(5):
        u = ieee.step(u, 4e-3)
    with _fpenv.flush_subnormals():
        for _ in range(5):
            v = flushed.step(v, 4e-3)
    assert subnormals(u) > 0 and subnormals(v) == 0
    # what the flush takes is far below the field
    assert np.abs(u - v).max() < 1e-280 * np.abs(u).max()
