"""Strang-split integration: conservation, clipping, run orchestration."""

import math

import numpy as np
import pytest

from landau.config import SimulationConfig, initial_data
from landau.diagnostics import conserved_moments
from landau.errors import CflViolation
from landau.kernel import KernelParams
from landau.phase_state import DistributionField, Grid
from landau.stepper import (RunState, StepControl, collision_substep, run,
                            strang_step)
from landau.transport import pullback_sharp


def _small_cfg(**over):
    base = dict(
        gamma=-1.0, d0=0.2, epsilon=1e-3, d_x=1, d_v=2, n_x=64, n_v=48,
        L_x=640.0, v_max=6.0, t_final=5.0, dt_max=0.25, output_every=1.0,
        initial_kind="gaussian",
        initial_parameters={"x_width": 35.0, "v_width": 1.0})
    base.update(over)
    return SimulationConfig(**base)


def test_strang_step_conserves_mass():
    cfg = _small_cfg()
    f = initial_data(cfg)
    p = cfg.kernel_params()
    ctrl = StepControl(0.5, 0.25)
    state = RunState()
    m0 = f.mass()
    g = f
    for _ in range(4):
        g = strang_step(g, 0.25, p, ctrl, state)
    drift = abs(g.mass() - m0) / m0
    assert drift <= 1e-10 + state.clipped_mass / m0 * 1.5
    assert g.time == pytest.approx(1.0)


def test_collision_substep_homogeneous_moments():
    g = Grid(0, 2, 1, 32, 1.0, 6.0)
    v1, v2 = g.v_mesh()
    f = DistributionField(0.0, np.exp(-(v1 ** 2 + v2 ** 2) / 2.0), g)
    p = KernelParams(-1.0, 2)
    state = RunState()
    out = collision_substep(f, 0.1, p, StepControl(0.5, 0.1), state)
    m0, mo0, _ = conserved_moments(f.values, g)
    m1, mo1, _ = conserved_moments(out.values, g)
    # the divergence form is exactly conservative; any drift is logged clip mass
    assert abs(m1 - m0) <= 1e-12 * m0 + state.clipped_mass * (1.0 + 1e-10)
    assert np.max(np.abs(mo1 - mo0)) < 1e-10 + 6.0 * state.clipped_mass


def test_collision_substep_zero_field_noop():
    g = Grid(0, 2, 1, 8, 1.0, 1.0)
    f = DistributionField(0.0, np.zeros(g.shape), g)
    out = collision_substep(f, 1.0, KernelParams(-1.0, 2), StepControl(), RunState())
    assert np.all(out.values == 0.0)


def test_subcycle_cap_raises():
    g = Grid(0, 2, 1, 32, 1.0, 6.0)
    v1, v2 = g.v_mesh()
    f = DistributionField(0.0, 50.0 * np.exp(-(v1 ** 2 + v2 ** 2) / 2.0), g)
    ctrl = StepControl(0.5, 10.0, max_subcycles=3)
    with pytest.raises(CflViolation):
        collision_substep(f, 10.0, KernelParams(-1.0, 2), ctrl, RunState())


def test_run_emits_records_and_final_state():
    cfg = _small_cfg(t_final=3.0, output_every=1.0)
    art = run(cfg)
    ts = [r.t for r in art.records]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(3.0)
    assert len(ts) == 4
    assert art.final.time == pytest.approx(3.0)
    # diagnostics filled in
    r = art.records[-1]
    assert r.mass > 0.0
    assert r.rho_sup > 0.0
    assert r.a_bar_plain_sup > 0.0
    assert math.isfinite(r.h_value)
    assert r.clipped_mass >= 0.0


def test_run_mass_drift_budget():
    cfg = _small_cfg(t_final=5.0)
    art = run(cfg)
    m0 = art.records[0].mass
    mT = art.records[-1].mass
    assert abs(mT - m0) / m0 <= 1e-10 + 2.0 * art.clipped_mass / m0


def test_run_snapshots_are_sharp_fields():
    cfg = _small_cfg(t_final=4.0, output_every=2.0)
    art = run(cfg)
    s0 = pullback_sharp(initial_data(cfg))
    s4 = pullback_sharp(art.final)
    assert art.final.time == 4.0
    assert s0.grid == s4.grid
    # near-vacuum: f-sharp moves very little
    denom = np.max(np.abs(s0.values))
    assert np.max(np.abs(s4.values - s0.values)) < 0.1 * denom


def test_transport_only_run_freezes_sharp():
    cfg = _small_cfg(t_final=4.0, output_every=2.0)
    art = run(cfg, transport_only=True)
    s0 = pullback_sharp(initial_data(cfg))
    s4 = pullback_sharp(art.final)
    assert np.max(np.abs(s4.values - s0.values)) <= 1e-12 * np.max(s0.values)
    assert art.records[-1].sharp_diff_vs_t0 <= 1e-10


def test_record_series_helper():
    cfg = _small_cfg(t_final=2.0, output_every=1.0)
    art = run(cfg)
    series = art.record_series("rho_sup")
    assert len(series) == len(art.records)
    assert all(v > 0.0 for _, v in series)
