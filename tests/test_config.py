"""Configuration parsing, initial data, and gate checks."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau.config import (SimulationConfig, boundary_fraction, config_from_dict,
                           initial_data, parse_config, support_radius,
                           validate_config)
from landau.errors import ConfigInvalid, ParseError


def _base_dict(**over):
    raw = {
        "gamma": -1.0,
        "epsilon": 1e-3,
        "dims": {"d_x": 1, "d_v": 2},
        "grid": {"n_x": 16, "n_v": 24, "L_x": 500.0, "v_max": 6.0},
        "time": {"t_final": 10.0, "dt_max": 0.25, "output_every": 2.5},
        "initial_data": {"kind": "gaussian",
                         "parameters": {"x_width": 30.0, "v_width": 1.0}},
    }
    raw.update(over)
    return raw


def test_parse_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_base_dict()))
    cfg = parse_config(str(path))
    assert cfg.gamma == -1.0
    assert cfg.grid().shape == (16, 24, 24)
    # the dispersive window [2.5 x_width / v_width, 1.2 x_width / dv], capped at
    # t_final: this run ends before its data disperses, so the window is empty
    assert cfg.fit_window == (75.0, 10.0)


def test_fit_window_defaults_to_the_dispersive_window():
    # criterion 7's config: tau = 4 and dv = 0.1875, so [10, min(25, 25.6)]
    c7 = SimulationConfig(
        gamma=-1.0, d0=0.2, epsilon=1e-3, d_x=1, d_v=2, n_x=320, n_v=64,
        L_x=360.0, v_max=6.0, t_final=25.0, initial_parameters={"x_width": 4.0})
    assert c7.fit_window == (10.0, 25.0)
    seed = dataclasses.replace(c7, initial_kind="seed", fit_window=None,
                               initial_parameters={"x_width": 4.0, "v_width": 2.0})
    assert seed.fit_window == (5.0, 25.0)
    maxwellian = dataclasses.replace(c7, initial_kind="maxwellian", fit_window=None)
    assert maxwellian.fit_window == (5.0, 20.0)
    # a malformed velocity grid keeps the plain default, and validate_config refuses it
    assert dataclasses.replace(c7, n_v=0, fit_window=None).fit_window == (5.0, 20.0)
    raw = _base_dict(diagnostics={"fit_window": [1.0, 9.0]})
    assert config_from_dict(raw).fit_window == (1.0, 9.0)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ParseError) as exc:
        parse_config(str(path))
    assert exc.value.line >= 1


def test_missing_key_raises_parse_error():
    raw = _base_dict()
    del raw["gamma"]
    with pytest.raises(ParseError):
        config_from_dict(raw)


def test_gate_gamma():
    with pytest.raises(ConfigInvalid) as exc:
        config_from_dict(_base_dict(gamma=-2.5))
    assert exc.value.gate == "gamma"


def test_gate_dims():
    raw = _base_dict()
    raw["dims"] = {"d_x": 3, "d_v": 2}
    with pytest.raises(ConfigInvalid) as exc:
        config_from_dict(raw)
    assert exc.value.gate == "dims"


def test_gate_cfl():
    raw = _base_dict()
    raw["time"]["cfl_safety"] = 1.5
    with pytest.raises(ConfigInvalid) as exc:
        config_from_dict(raw)
    assert exc.value.gate == "cfl_safety"


def test_gate_no_wrap():
    raw = _base_dict()
    raw["grid"]["L_x"] = 20.0  # far too small for v_max * t_final = 60
    with pytest.raises(ConfigInvalid) as exc:
        config_from_dict(raw)
    assert exc.value.gate == "no-wrap"


def test_gate_velocity_boundary():
    raw = _base_dict()
    raw["grid"]["v_max"] = 2.0  # e^{-4} at the boundary, far above 1e-14
    raw["time"]["t_final"] = 1.0
    with pytest.raises(ConfigInvalid) as exc:
        config_from_dict(raw)
    assert exc.value.gate == "gaussian-dominated"


def _gate_cfg(**over):
    """A small config that passes every gate: its data reach |x| = 20 of the
    box's 32, and the velocity boundary holds e^-41 of the peak."""
    base = dict(gamma=-1.0, d0=0.2, epsilon=1e-3, d_x=1, d_v=2, n_x=8, n_v=12, L_x=64.0,
                v_max=8.0, t_final=1.0, initial_parameters={"x_width": 4.0, "v_width": 1.0})
    base.update(over)
    return SimulationConfig(**base)


def _gate(cfg):
    """The gate validate_config names for cfg, or None when it passes."""
    try:
        validate_config(cfg)
    except ConfigInvalid as exc:
        return exc.gate
    return None


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(-5.0, 3.0))
@example(gamma=-2.0)
@example(gamma=0.0)
@example(gamma=-0.0)
@example(gamma=np.nextafter(-2.0, 0.0))
@example(gamma=np.nextafter(0.0, -1.0))
def test_gate_gamma_is_the_open_interval(gamma):
    assert _gate(_gate_cfg(gamma=gamma)) == (None if -2.0 < gamma < 0.0 else "gamma")


@settings(max_examples=60, deadline=None)
@given(cfl=st.floats(-1.0, 3.0))
@example(cfl=0.0)
@example(cfl=5e-324)
@example(cfl=1.0)
@example(cfl=np.nextafter(1.0, 2.0))
def test_gate_cfl_safety_is_the_half_open_interval(cfl):
    assert _gate(_gate_cfg(cfl_safety=cfl)) == (None if 0.0 < cfl <= 1.0 else "cfl_safety")


@pytest.mark.parametrize("d_x", [0, 1, 2, 3])
@pytest.mark.parametrize("d_v", [2, 3])
def test_gate_dims_is_d_x_at_most_d_v(d_x, d_v):
    cfg = _gate_cfg(d_x=d_x, d_v=d_v, n_x=8 if d_x < 3 else 6, n_v=12 if d_v == 2 else 10)
    assert _gate(cfg) == (None if d_x <= d_v else "dims")


@settings(max_examples=60, deadline=None)
@given(x_width=st.floats(1.0, 6.0), log_v_max=st.sampled_from([3, 4]),
       ticks=st.integers(-2 ** 20, 2 ** 20))
@example(x_width=4.0, log_v_max=3, ticks=0)
@example(x_width=4.0, log_v_max=3, ticks=1)
@example(x_width=4.0, log_v_max=3, ticks=-1)
def test_gate_no_wrap_is_exactly_its_edge(x_width, log_v_max, ticks):
    # cell centres are multiples of 4 and v_max a power of 2, so t_final =
    # t_edge + ticks 2^-40 makes v_max t_final + support exact: 32 plus
    # ticks 2^(log_v_max - 40), past L_x/2 = 32 for any tick above 0
    v_max = 2.0 ** log_v_max
    cfg = _gate_cfg(v_max=v_max, initial_parameters={"x_width": x_width, "v_width": 1.0})
    rad = support_radius(initial_data(cfg))
    assert rad % 4.0 == 0.0 and 0.0 < rad < 32.0
    t_final = (32.0 - rad) / v_max + ticks * 2.0 ** -40
    assert v_max * t_final + rad - 32.0 == ticks * 2.0 ** (log_v_max - 40)
    assert _gate(dataclasses.replace(cfg, t_final=t_final)) == ("no-wrap" if ticks > 0 else None)


def test_initial_data_kinds():
    cfg = config_from_dict(_base_dict())
    f = initial_data(cfg)
    assert f.time == 0.0
    assert float(np.max(f.values)) <= cfg.epsilon * (1.0 + 1e-12)

    raw = _base_dict()
    # bumps at +-2 need a wider velocity box to stay Gaussian-dominated
    raw["grid"]["v_max"] = 8.5
    raw["time"]["t_final"] = 5.0
    raw["initial_data"] = {"kind": "seed",
                           "parameters": {"x_width": 30.0, "v_width": 1.0,
                                          "bump_velocity": [2.0]}}
    cfg = config_from_dict(raw)
    f = initial_data(cfg)
    v1 = f.grid.v_mesh()[0]
    # two bumps: the v1-marginal has peaks on both sides
    marg = f.values.sum(axis=(0, 2))
    mid = f.grid.n_v // 2
    assert marg[:mid].max() > 0.5 * marg.max()
    assert marg[mid:].max() > 0.5 * marg.max()


@pytest.mark.parametrize("key", ["n_v", "v_max"])
def test_malformed_grid_raises_config_invalid(key):
    raw = _base_dict()
    raw["grid"][key] = 0
    with pytest.raises(ConfigInvalid) as exc:
        config_from_dict(raw)
    assert exc.value.gate == "grid"


@pytest.mark.parametrize("kind", ["gaussian", "seed"])
@pytest.mark.parametrize("d_x", [0, 1, 2])
def test_initial_data_is_bitwise_the_full_grid_construction(kind, d_x):
    # the x and v factors on their own axes give the field that full-grid
    # factors multiplied cell by cell give
    par = {"x_width": 7.3, "v_width": 0.9, "x_center": 1.7, "drift": [0.31, -0.2],
           "bump_velocity": [2.0, 0.4]}
    cfg = SimulationConfig(gamma=-1.0, d0=0.2, epsilon=1e-3, d_x=d_x, d_v=2, n_x=12, n_v=10,
                           L_x=60.0, v_max=6.0, t_final=0.0, initial_kind=kind,
                           initial_parameters=par)
    grid = cfg.grid()
    xs = np.ones(grid.shape)
    for xm in grid.x_mesh():
        xs = xs * np.exp(-((xm - (par["x_center"] if kind == "gaussian" else 0.0)) / 7.3) ** 2)

    def v_factor(u):
        tot = np.zeros(grid.shape)
        for a, vm in enumerate(grid.v_mesh()):
            tot = tot + ((vm - u[a]) / 0.9) ** 2
        return np.exp(-tot)
    if kind == "gaussian":
        want = xs * v_factor(np.array(par["drift"]))
    else:
        u = np.array(par["bump_velocity"])
        want = xs * (v_factor(u) + v_factor(-u))
    got = initial_data(cfg).values
    assert got.shape == grid.shape
    assert np.array_equal(got, 1e-3 * want)


def test_unknown_initial_kind():
    cfg = config_from_dict(_base_dict())
    cfg.initial_kind = "vortex"
    with pytest.raises(ConfigInvalid):
        initial_data(cfg)


def test_support_radius_and_boundary_fraction():
    cfg = config_from_dict(_base_dict())
    f = initial_data(cfg)
    rad = support_radius(f)
    assert 30.0 < rad < 0.5 * cfg.L_x
    assert boundary_fraction(f) <= 1e-14


def test_validate_returns_config():
    cfg = config_from_dict(_base_dict())
    assert validate_config(cfg) is cfg
