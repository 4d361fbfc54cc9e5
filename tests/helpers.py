"""Reference fields and a textbook Strang step shared by the tests."""

import numpy as np

from nlslab.grid import Field, Grid

__all__ = [
    "random_radial_field",
    "strang_step",
]


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


def strang_step(grid, spec, u, dt, nonlinear=True):
    """One closed Strang step (Strang, SIAM J. Numer. Anal. 5, 1968) built
    from the grid's public operators: A(dt/2) B(dt) A(dt/2) where the
    grid's free flow composes, else B(dt/2) A(dt) B(dt/2), with A the
    grid's free propagator and B the rotation by V + s|u|^alpha (by V
    alone for the linear flow), written out as cos - i sin."""
    potential = spec.c * grid.radius_power(-spec.sigma, spec.epsilon_reg)

    def rotate(v, tau):
        arg = potential
        if nonlinear:
            arg = arg + spec.nonlinearity_sign * np.abs(v) ** spec.alpha
        return v * (np.cos(tau * arg) - 1j * np.sin(tau * arg))

    if grid.free_flow_composes:
        free = grid.free_propagator(0.5 * dt)
        return free(rotate(free(u), dt))
    return rotate(grid.free_propagator(dt)(rotate(u, 0.5 * dt)), 0.5 * dt)
