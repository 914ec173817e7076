"""Strang-split integration: conservation, clipping, run orchestration."""

import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import landau.coefficients
import landau.threads
from landau.coefficients import (CLIP_REL_TOL, block_cells, cell_view, compute_coefficients,
                                 data_cells, distinct_a_bar, kernel_tables)
from landau.collision import apply_collision_divergence
from landau.config import SimulationConfig, initial_data
from landau.diagnostics import conserved_moments
from landau.errors import CflViolation, ClipBudgetExceeded, NanDetected, NegativeInput
from landau.kernel import KernelParams
from landau.phase_state import DistributionField, Grid
import landau.stepper
from landau.stepper import (RunState, _collision_dt, _collision_rhs, advance, collision_substep,
                            run, strang_step)
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
    state = RunState()
    m0 = f.mass()
    g = f
    for _ in range(4):
        g = strang_step(g, 0.25, p, 0.5, state)
    drift = abs(g.mass() - m0) / m0
    assert drift <= 1e-10 + state.clipped_mass / m0 * 1.5
    assert g.time == pytest.approx(1.0)


def test_collision_substep_homogeneous_moments():
    g = Grid(0, 2, 1, 32, 1.0, 6.0)
    v1, v2 = g.v_mesh()
    f = DistributionField(0.0, np.exp(-(v1 ** 2 + v2 ** 2) / 2.0), g)
    p = KernelParams(-1.0, 2)
    state = RunState()
    out = collision_substep(f, 0.1, p, 0.5, state)
    m0, mo0, _ = conserved_moments(f.values, g)
    m1, mo1, _ = conserved_moments(out.values, g)
    # the divergence form is exactly conservative; any drift is logged clip mass
    assert abs(m1 - m0) <= 1e-12 * m0 + state.clipped_mass * (1.0 + 1e-10)
    assert np.max(np.abs(mo1 - mo0)) < 1e-10 + 6.0 * state.clipped_mass


def test_collision_substep_zero_field_noop():
    g = Grid(0, 2, 1, 8, 1.0, 1.0)
    f = DistributionField(0.0, np.zeros(g.shape), g)
    out = collision_substep(f, 1.0, KernelParams(-1.0, 2), 0.5, RunState())
    assert np.all(out.values == 0.0)


def test_subcycle_cap_raises(monkeypatch):
    g = Grid(0, 2, 1, 32, 1.0, 6.0)
    v1, v2 = g.v_mesh()
    f = DistributionField(0.0, 50.0 * np.exp(-(v1 ** 2 + v2 ** 2) / 2.0), g)
    monkeypatch.setattr(landau.stepper, "MAX_SUBCYCLES", 3)
    with pytest.raises(CflViolation):
        collision_substep(f, 10.0, KernelParams(-1.0, 2), 0.5, RunState())


@pytest.mark.parametrize("d_x, d_v", [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3)])
def test_blocked_rhs_is_the_full_field_operator(d_x, d_v, monkeypatch):
    # in blocks of 8 cells, 20 (d_x = 1) and 25 (d_x = 2) cells leave a partial last block
    n_x = {0: 1, 1: 20, 2: 5}[d_x]
    g = Grid(d_x, d_v, n_x, 12 if d_v == 2 else 6, 30.0, 3.0)
    monkeypatch.setattr(landau.coefficients, "BLOCK_POINTS", 8 * g.n_v ** d_v)
    p = KernelParams(-1.0 if d_v == 2 else -0.7, d_v)
    vals = np.exp(-g.v_squared()) * np.random.default_rng(10 * d_x + d_v).random(g.shape)
    f = DistributionField(0.0, vals, g)
    rhs, maxima = _collision_rhs(vals, g, p, with_c=True)
    coeffs = compute_coefficients(f, p)
    assert np.array_equal(rhs, apply_collision_divergence(vals, coeffs, g))
    amax = float(np.max([np.max(np.abs(comp)) for comp in distinct_a_bar(coeffs)]))
    cmax = float(np.max(np.abs(coeffs.c_bar)))
    assert tuple(np.max(maxima, axis=0)) == (amax, cmax)
    # the dt of the full fields: min of the diffusion and the reaction limits
    want = min(0.5 * g.dv ** 2 / (2.0 * d_v * amax), 0.5 / cmax)
    assert _collision_dt(*np.max(maxima, axis=0), g, 0.5) == want
    rhs_ab, maxima_ab = _collision_rhs(vals, g, p)
    assert np.array_equal(rhs_ab, rhs)
    assert maxima_ab == [None] * len(maxima)


@pytest.fixture(scope="module", params=["near_vacuum", "clipped"])
def skipping_field(request):
    """A stepped field whose tails hold cells that data_cells skips, and its full-field Q.

    near_vacuum: the bench near_vacuum (criterion 8) data after one Strang
    step.  clipped: O(1) data after a step of 51 RK2 sub-cycles that clips,
    whose tails hold the clip's ringing.
    """
    if request.param == "near_vacuum":
        cfg = _small_cfg(n_x=128, n_v=64, L_x=900.0,
                         initial_parameters={"x_width": 3.5 * 900.0 / 128, "v_width": 1.0})
        dt = 0.25
    else:
        cfg = _small_cfg(epsilon=1.0, n_x=48, n_v=32, L_x=300.0,
                         initial_parameters={"x_width": 3.0 * 300.0 / 48, "v_width": 1.0})
        dt = 0.05
    p = cfg.kernel_params()
    state = RunState()
    f = strang_step(initial_data(cfg), dt, p, cfg.cfl_safety, state)
    coeffs = compute_coefficients(f, p)
    amax = float(np.max([np.max(np.abs(comp)) for comp in distinct_a_bar(coeffs)]))
    cmax = float(np.max(np.abs(coeffs.c_bar)))
    return dict(kind=request.param, f=f, p=p, dt=dt, clipped=state.clipped_mass,
                q=apply_collision_divergence(f.values, coeffs, f.grid), amax=amax, cmax=cmax)


def test_skipped_cells_hold_updates_below_the_clip_floor(skipping_field):
    # h |Q| in a skipped cell is below the round-off of the clip, CLIP_REL_TOL
    # of the peak, though some of those cells hold more than CLIP_REL_TOL
    f, dt = skipping_field["f"], skipping_field["dt"]
    g = f.grid
    if skipping_field["kind"] == "clipped":
        assert skipping_field["clipped"] > 0.0
    cell_max = np.max(cell_view(f.values, g), axis=(1, 2))
    peak = float(np.max(cell_max))
    skipped = np.setdiff1d(np.arange(len(cell_max)), data_cells(f.values, g))
    assert 0 < len(skipped) < len(cell_max)
    assert np.any(cell_max[skipped] >= CLIP_REL_TOL * peak)
    dt_cfl = _collision_dt(skipping_field["amax"], skipping_field["cmax"], g, 0.5)
    h = dt / math.ceil(dt / dt_cfl)
    assert h * np.max(np.abs(cell_view(skipping_field["q"], g)[skipped])) <= CLIP_REL_TOL * peak


def test_blocked_rhs_is_the_full_field_operator_on_data_cells(skipping_field):
    f = skipping_field["f"]
    g = f.grid
    rhs, maxima = _collision_rhs(f.values, g, skipping_field["p"], with_c=True)
    cells = data_cells(f.values, g)
    skipped = np.setdiff1d(np.arange(cell_view(rhs, g).shape[0]), cells)
    assert np.array_equal(cell_view(rhs, g)[cells], cell_view(skipping_field["q"], g)[cells])
    assert np.all(cell_view(rhs, g)[skipped] == 0.0)
    amax, cmax = skipping_field["amax"], skipping_field["cmax"]
    assert tuple(np.max(maxima, axis=0)) == (amax, cmax)
    assert _collision_dt(*np.max(maxima, axis=0), g, 0.5) == _collision_dt(amax, cmax, g, 0.5)


def test_skipping_rhs_does_not_depend_on_threads_or_blocks(skipping_field, monkeypatch):
    # one-cell blocks, blocks of 8 cells and the default, on 1 and 7 threads
    f, p = skipping_field["f"], skipping_field["p"]
    g = f.grid
    want, want_maxima = _collision_rhs(f.values, g, p, with_c=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for points in (1, 8 * g.n_v ** 2):
            monkeypatch.setattr(landau.coefficients, "BLOCK_POINTS", points)
            for threads in (1, 7):
                with ThreadPoolExecutor(threads) as pool:
                    monkeypatch.setattr(landau.threads, "_POOL", pool)
                    rhs, maxima = _collision_rhs(f.values, g, p, with_c=True)
                assert np.array_equal(rhs, want)
                assert np.max(maxima, axis=0).tolist() == np.max(want_maxima, axis=0).tolist()
    finally:
        sys.setswitchinterval(interval)


def test_collision_substep_peak_is_a_few_fields(monkeypatch):
    # the stages build no full-field coefficients; a first stage that holds
    # all six of them next to the operator's temporaries peaks at 22 fields.
    # 32 blocks, so that 8 block spectra per thread weigh 4 fields on 2 threads
    n_v = 16
    g = Grid(1, 2, 32 * landau.coefficients.BLOCK_POINTS // n_v ** 2, n_v, 900.0, 6.0)
    p = KernelParams(-1.0, 2)
    kernel_tables(g, p)
    vals = np.exp(-g.v_squared() / 2.0) * (1.0 + np.random.default_rng(11).random(g.shape))
    f = DistributionField(0.0, vals, g)
    # 1.5 CFL steps make two RK2 sub-cycles, so the later sub-cycles' first
    # stage is under the bound too: four passes
    _, maxima = _collision_rhs(vals, g, p, with_c=True)  # the pool's threads exist
    dt = 1.5 * _collision_dt(*np.max(maxima, axis=0), g, 0.5)
    passes = []

    def counted(*args, **kwargs):
        passes.append(1)
        return _collision_rhs(*args, **kwargs)

    monkeypatch.setattr(landau.stepper, "_collision_rhs", counted)
    threads = min(len(os.sched_getaffinity(0)), -(-g.n_x // block_cells(g)))
    block = block_cells(g) * (2 * g.n_v) ** 2 * 16  # one padded complex spectrum
    tracemalloc.start()
    try:
        collision_substep(f, dt, p, 0.5, RunState())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(passes) == 4
    assert peak <= 8 * vals.nbytes + 8 * threads * block


def test_collision_substep_refuses_negative_input():
    g = Grid(1, 2, 20, 8, 10.0, 2.0)
    vals = np.ones(g.shape)
    vals[13, 2, 5] = -1e-3
    with pytest.raises(NegativeInput):
        collision_substep(DistributionField(0.0, vals, g), 0.1, KernelParams(-1.0, 2), 0.5,
                          RunState())


def test_nonfinite_transport_raises():
    cfg = _small_cfg(n_x=16, n_v=12, L_x=160.0)
    f = initial_data(cfg)
    f.values[3, 4, 5] = np.nan
    with pytest.raises(NanDetected, match="transport"):
        strang_step(f, 0.25, cfg.kernel_params(), 0.5, RunState())
    with pytest.raises(NanDetected, match="transport"):
        next(advance(cfg, f, cfg.kernel_params(), RunState(), transport_only=True))


def _outputs(cfg, f):
    """(t, dt) of every step advance takes from f, and the fields at its outputs."""
    steps, outs = [], []
    t = f.time
    for g, at_output in advance(cfg, f, cfg.kernel_params(), RunState(), transport_only=True):
        steps.append((g.time, g.time - t))
        t = g.time
        if at_output:
            outs.append(g)
    return steps, outs


def test_advance_lands_on_every_output():
    # output_every is not a multiple of dt_max, so steps are shortened to land
    cfg = _small_cfg(output_every=0.6, dt_max=0.25)
    steps, outs = _outputs(cfg, initial_data(cfg))
    want = [0.6 * k for k in range(1, 9)] + [cfg.t_final]
    assert len(outs) == len(want)
    assert all(abs(g.time - w) <= 1e-12 for g, w in zip(outs, want))
    # dt is read back as a difference of times, so it carries their round-off
    assert all(0.0 < dt <= cfg.dt_max + 1e-12 for _, dt in steps)
    assert steps[-1][0] == outs[-1].time
    assert [dt for _, dt in steps[:3]] == pytest.approx([0.25, 0.25, 0.1])
    # starting from the field at t = 1.2 yields the tail of the same schedule
    tail_steps, tail = _outputs(cfg, outs[1])
    assert [g.time for g in tail] == [g.time for g in outs[2:]]
    assert tail_steps == [s for s in steps if s[0] > outs[1].time]


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


@pytest.mark.parametrize("transport_only", [False, True])
def test_run_leaves_its_data_unchanged(transport_only):
    # run steps from data itself, not a copy: no step may write into a field
    # it is given, which a read-only array would refuse
    cfg = _small_cfg(t_final=1.0, output_every=0.5)
    data = initial_data(cfg)
    want = data.values.copy()
    data.values.flags.writeable = False
    seen = []
    art = run(cfg, data, transport_only=transport_only, checkpoint_cb=seen.append)
    assert [f.time for f in seen] == [0.0, 0.5, 1.0] and art.final.time == 1.0
    assert data.time == 0.0
    assert np.array_equal(data.values, want)


def test_run_mass_drift_budget():
    cfg = _small_cfg(t_final=5.0)
    art = run(cfg)
    m0 = art.records[0].mass
    mT = art.records[-1].mass
    assert abs(mT - m0) / m0 <= 1e-10 + 2.0 * art.clipped_mass / m0


def test_run_aborts_past_its_clip_budget(monkeypatch):
    # this run clips about 2e-10 of its mass by t = 5, inside the 1e-8 budget;
    # a budget below that share aborts it
    cfg = _small_cfg(t_final=5.0)
    monkeypatch.setattr(landau.stepper, "CLIP_BUDGET", 1e-11)
    with pytest.raises(ClipBudgetExceeded):
        run(cfg)


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
