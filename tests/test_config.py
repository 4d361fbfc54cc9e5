import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nlslab
from nlslab.cli import main
from nlslab.config import (
    DEFAULT_CONFIG_TEMPLATE,
    ConfigError,
    _KEYS,
    build_grid,
    build_initial_field,
    config_hash,
    override,
    parse_config,
)
from nlslab.grid import Grid
from nlslab.groundstate import solve_ground_state

MINIMAL = """\
[equation]
d = 1
c = 1.0
sigma = 0.5
alpha = 2.0
sign = defocusing

[grid]
mode = cartesian
n = 256
L = 10.0

[evolve]
dt0 = 1e-3
t_end = 0.1
"""


def test_template_parses():
    cfg = parse_config(DEFAULT_CONFIG_TEMPLATE)
    assert cfg.equation.d == 1
    assert cfg.grid.mode == "cartesian"
    assert cfg.evolve.dt0 == 1e-3
    # the template's values are the dataclass defaults
    assert cfg == parse_config("[equation]\n")


def test_minimal_parse_and_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.equation.sign == "defocusing"
    assert cfg.evolve.record_stride == 10  # observables stride default
    assert cfg.output.seed == 0
    assert cfg.evolve.phi_r_list == ()  # observables r_list default


def test_hash_ignores_comments_and_order():
    base = parse_config(MINIMAL)
    shuffled = MINIMAL.replace("c = 1.0\nsigma = 0.5", "sigma = 0.5\nc = 1.0")
    commented = MINIMAL.replace("[grid]", "# a comment\n[grid]")
    assert config_hash(parse_config(shuffled)) == config_hash(base)
    assert config_hash(parse_config(commented)) == config_hash(base)
    changed = MINIMAL.replace("alpha = 2.0", "alpha = 3.0")
    assert config_hash(parse_config(changed)) != config_hash(base)


def test_invalid_configs_raise():
    with pytest.raises(ConfigError):
        parse_config("not an ini at all [")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("sigma = 0.5", "sigma = 1.5"))  # sigma >= min(2,d)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("dt0 = 1e-3", "dt0 = -1"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("mode = cartesian", "mode = spherical"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[initial]\nkind = checkpoint\n")  # path missing
    with pytest.raises(ConfigError):
        parse_config("[grid]\nn = 64\n")  # no [equation] section


def test_grids_over_the_node_cap_are_rejected_before_any_array():
    # 4096**2 nodes at most: a 3-D box of n = 512 would hold 2**27
    def with_grid(d, old, new):
        return parse_config(MINIMAL.replace("d = 1", f"d = {d}").replace(old, new))

    assert with_grid(2, "n = 256", "n = 4096").grid.n == 4096
    for d, old, new in ((3, "n = 256", "n = 512"), (2, "n = 256", "n = 8192"),
                        (3, "mode = cartesian\nn = 256", "mode = radial\nn_r = 16777217")):
        with pytest.raises(ConfigError, match="exceed"):
            with_grid(d, old, new)


# in a fresh interpreter: parse stdin's config, then override one key, and
# print each call's wall time (s) and growth of peak RSS (MiB; ru_maxrss
# counts KiB on Linux)
_PARSE_COST = """
import resource, sys, time
from nlslab.config import override, parse_config

def cost(call):
    rss, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.perf_counter()
    out = call()
    t = time.perf_counter() - t0
    print(t, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss) / 1024)
    return out

cfg = cost(lambda: parse_config(sys.stdin.read()))
cost(lambda: override(cfg, "initial.amplitude", 2.0))
"""


@pytest.mark.parametrize("d, grid", [(3, "mode = radial\nn_r = 16777216"),
                                     (1, "mode = cartesian\nn = 16777216")],
                         ids=["radial3d", "cartesian1d"])
def test_parse_and_override_at_the_node_cap_build_no_arrays(d, grid):
    # validating builds the grids, which keep their parameters and build
    # arrays only on first use: an array of 2**24 nodes would take 128 MiB
    text = MINIMAL.replace("d = 1", f"d = {d}").replace("mode = cartesian\nn = 256", grid)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nlslab.__file__)))
    out = subprocess.run([sys.executable, "-c", _PARSE_COST], input=text, env=env,
                         capture_output=True, text=True, check=True).stdout
    for call, line in zip(("parse_config", "override"), out.splitlines(), strict=True):
        seconds, mib = map(float, line.split())
        assert seconds < 0.02 and mib < 5.0, (call, seconds, mib)


def test_radial_gaussian_constraints():
    text = MINIMAL.replace("mode = cartesian", "mode = radial") + (
        "\n[initial]\nkind = gaussian\nphase_k = 1.0\n"
    )
    with pytest.raises(ConfigError):
        parse_config(text)


def test_build_grid_and_gaussian():
    cfg = parse_config(MINIMAL)
    grid = build_grid(cfg)
    assert isinstance(grid, Grid) and grid.n == 256
    u0 = build_initial_field(cfg)
    assert u0.values.shape == grid.shape
    assert abs(u0.values[128]) > 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("width, value", [("1e200", 1.0), ("1e-200", 0.0)],
                         ids=["width-squared-overflows", "width-squared-underflows"])
def test_gaussian_of_an_extreme_width_runs_without_a_warning(tmp_path, monkeypatch,
                                                            width, value):
    # width^2 is inf (a flat field) or 0 (a zero one), as intended
    text = MINIMAL + f"[initial]\nwidth = {width}\n"
    assert np.all(build_initial_field(parse_config(text)).values == value)
    monkeypatch.chdir(tmp_path)
    with open("exp.cfg", "w", encoding="utf-8") as fh:
        fh.write(text)
    assert main(["evolve", "exp.cfg"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phase_k_is_rejected_exactly_where_its_phase_overflows(tmp_path, monkeypatch):
    # phase_k x at the node -L + dx/2 farthest from 0: the largest phase_k
    # it leaves finite builds a finite field, the next float is rejected
    edge = 10.0 - 10.0 / 256
    top = sys.float_info.max / edge
    while math.isinf(top * edge):
        top = math.nextafter(top, 0.0)
    while math.isfinite(math.nextafter(top, math.inf) * edge):
        top = math.nextafter(top, math.inf)
    u0 = build_initial_field(parse_config(MINIMAL + f"[initial]\nphase_k = {top!r}\n"))
    assert np.all(np.isfinite(u0.values))
    with pytest.raises(ConfigError, match=r"^\[initial\] phase_k = "):
        parse_config(MINIMAL + f"[initial]\nphase_k = {math.nextafter(top, math.inf)!r}\n")
    monkeypatch.chdir(tmp_path)
    with open("exp.cfg", "w", encoding="utf-8") as fh:
        fh.write(MINIMAL + "[initial]\nphase_k = 1e300\n")
    assert main(["evolve", "exp.cfg"]) == 0


def test_build_groundstate_scaled():
    text = MINIMAL + "\n[initial]\nkind = groundstate-scaled\nscale = 0.1\n"
    cfg = parse_config(text)
    grid = build_grid(cfg)
    gs = solve_ground_state(1, 2.0, grid)
    u0 = build_initial_field(cfg)
    assert abs(u0.values).max() == pytest.approx(0.1 * abs(gs.field.values).max())


def test_sweep_values_parse():
    text = MINIMAL + "\n[sweep]\nparameter = initial.amplitude\nvalues = 0.5 1.0 1.5\n"
    cfg = parse_config(text)
    assert cfg.sweep.values == (0.5, 1.0, 1.5)
    assert cfg.sweep.parameter == "initial.amplitude"


def test_config_is_pickable_for_sweep_workers():
    import pickle

    cfg = parse_config(MINIMAL)
    assert pickle.loads(pickle.dumps(cfg)).equation == cfg.equation


def test_one_field_per_file_key():
    cfg = parse_config(MINIMAL)
    sections = [getattr(cfg, f.name) for f in dataclasses.fields(cfg)]
    assert sum(len(dataclasses.fields(sec)) for sec in sections) == 42
    assert len(_KEYS) == len(set(_KEYS.values())) == 42
    # configparser lowercases keys; "L" still reaches GridConfig.L
    assert cfg.grid.L == 10.0


# file keys without a declared domain, and what checks their values instead
_NO_DOMAIN = {
    ("equation", "sigma"): "EquationSpec, against d",
    **{("grid", key): "the grid classes" for key in ("mode", "n", "l", "n_r", "r_max")},
    **{("groundstate", key): "the grid classes" for key in ("n", "l", "n_r", "r_max")},
    ("sweep", "parameter"): "override, when the sweep runs",
    ("sweep", "values"): "override, against the target key's domain",
}


def test_every_file_key_declares_a_domain():
    cfg = parse_config(MINIMAL)
    for key, (section, name) in _KEYS.items():
        fields = {f.name: f for f in dataclasses.fields(getattr(cfg, section))}
        declared = fields[name].metadata.get("domain") is not None
        assert declared != (key in _NO_DOMAIN), key


def test_domain_errors_name_the_file_key():
    with pytest.raises(ConfigError, match=r"^\[observables\] stride = 0 is outside "
                                          r"its domain: >= 1$"):
        parse_config(MINIMAL + "[observables]\nstride = 0\n")
    with pytest.raises(ConfigError, match=r"^\[output\] formats = \('xml',\) is "
                                          r"outside its domain: non-empty, each "
                                          r"element one of csv, json$"):
        parse_config(MINIMAL + "[output]\nformats = xml\n")


def test_unknown_keys_raise():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL + "[observables]\nstrid = 50\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL + "[observable]\nstride = 50\n")
    # a moved key is read only from its file section
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL.replace("t_end = 0.1", "t_end = 0.1\nrecord_stride = 5"))


def test_moved_keys_set_evolve_fields():
    text = MINIMAL.replace("sign = defocusing", "sign = defocusing\nepsilon_reg = 0.25")
    cfg = parse_config(text + "[observables]\nstride = 7\nr_list = 4 8\n")
    assert cfg.evolve.record_stride == 7
    assert cfg.evolve.phi_r_list == (4.0, 8.0)
    assert cfg.equation.epsilon_reg == 0.25


def test_override_matches_parse():
    base = parse_config(MINIMAL)
    text = MINIMAL + "[observables]\nstride = 50\n"
    assert override(base, "observables.stride", 50.0) == parse_config(text)
    assert override(base, "grid.L", 12.5) == parse_config(
        MINIMAL.replace("L = 10.0", "L = 12.5"))
    assert override(base, "equation.alpha", "3") == parse_config(
        MINIMAL.replace("alpha = 2.0", "alpha = 3"))
    for parameter, value in [("observables.stride", 2.5), ("evolve.dt0", -1.0),
                             ("grid.n", 100.0), ("grid.size", 1.0),
                             ("equation.sigma", 1.5), ("groundstate.n", 100.0)]:
        with pytest.raises(ConfigError):
            override(base, parameter, value)


# -- properties: parsing and overriding either succeed or raise ConfigError

_SECTION_NAMES = sorted({section for section, _ in _KEYS}) + ["DEFAULT", "misc"]
_KEY_NAMES = sorted({key for _, key in _KEYS}) + ["L", "strid"]
_WORDS = ["cartesian", "radial", "focusing", "defocusing", "fixed",
          "cfl-nonlinear", "groundstate-scaled", "checkpoint", "csv json", ""]
# integers stay small: the evolve property below runs these values, and
# its grids take O(n) memory
_VALUES = st.one_of(
    st.integers(-(2**12), 2**12).map(str),
    st.sampled_from([8, 16, 64, 256, 1024]).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(_WORDS),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.sampled_from(_SECTION_NAMES).map(lambda s: f"[{s}]"),
    st.tuples(st.sampled_from(_KEY_NAMES), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    st.text(),
    st.lists(_LINES, max_size=12).map(lambda ls: "[equation]\n" + "\n".join(ls)),
))
def test_parse_returns_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_KEYS)), _VALUES)
def test_override_returns_buildable_config_or_raises(key, value):
    base = parse_config(MINIMAL)
    try:
        cfg = override(base, ".".join(key), value)
    except ConfigError:
        return
    assert build_grid(cfg).shape


# a focusing, mass-critical run of 5 steps on n = 64: the threshold test
# solves Q, so the [groundstate] keys reach the solver
_RUN = {
    "equation": {"d": "1", "alpha": "4.0", "sign": "focusing"},
    "grid": {"n": "64", "l": "8.0"},
    "evolve": {"dt0": "1e-3", "t_end": "5e-3", "max_steps": "10"},
    "observables": {"stride": "2"},
    "groundstate": {"n": "64", "l": "8.0", "n_r": "256", "r_max": "8.0"},
}
# paths are written to, so the property leaves them at their defaults under
# a scratch directory; a value must also read back from a file unchanged
_PATHS = {("initial", "path"), ("output", "directory"), ("groundstate", "directory")}
_FILE_VALUES = _VALUES.filter(lambda v: not any(c in v for c in "\n\r;#"))


def _render(sections):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(set(_KEYS) - _PATHS)), _FILE_VALUES)
def test_evolve_exits_2_exactly_outside_the_domains(key, value):
    section, name = key
    sections = {s: dict(keys) for s, keys in _RUN.items()}
    sections.setdefault(section, {})[name] = value
    try:
        override(parse_config(_render(_RUN)), ".".join(key), value)
        in_domain = True
    except ConfigError:
        in_domain = False
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("exp.cfg", "w", encoding="utf-8") as fh:
            fh.write(_render(sections))
        code = main(["evolve", os.path.join(tmp, "exp.cfg")])
    assert code in ((0, 3, 4) if in_domain else (2,))
