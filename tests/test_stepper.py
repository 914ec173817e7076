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
import landau.transport
from landau.coefficients import (CLIP_REL_TOL, block_cells, cell_view, compute_coefficients,
                                 convolve_cells, data_cells, kernel_tables)
from landau.collision import apply_collision_divergence, divergence_row_sums
from landau.config import SimulationConfig, initial_data
from landau.diagnostics import conserved_moments
from landau.errors import CflViolation, ClipBudgetExceeded, NanDetected, NegativeInput
from landau.kernel import KernelParams
from landau.phase_state import DistributionField, Grid, cell_extrema
import landau.stepper
from landau.stepper import (RunState, _collision_dt, _rhs_blocks, advance, collision_substep, run,
                            strang_step)
from landau.transport import pullback_sharp, transport_shift


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


@pytest.mark.parametrize("nsub", [1, 2])
def test_strang_step_is_second_order_in_dt(nsub):
    # the near_vacuum config cut down to n_x = n_v = 32 at its dx, to t = 1:
    # |f(dt) - f(dt/2)| / peak for dt = 1 ... 1/16 falls by 4 per halving
    # (orders 2.00 measured on both paths).  nsub = 2 on every step comes
    # from a cfl_safety that puts the first step's dt_cfl at 0.6 dt; there
    # the second sub-cycle's first stage computes row sums that go unused
    dx = 900.0 / 128
    cfg = _small_cfg(n_x=32, n_v=32, L_x=32 * dx, t_final=1.0,
                     initial_parameters={"x_width": 3.5 * dx, "v_width": 1.0})
    f0 = initial_data(cfg)
    p = cfg.kernel_params()
    bound = float(np.max(divergence_row_sums(compute_coefficients(f0, p), f0.grid)))
    finals = []
    for k in range(5):
        dt = 2.0 ** -k
        safety = 0.5 if nsub == 1 else 0.6 * dt * bound / 2.0
        state, f = RunState(), f0
        for _ in range(2 ** k):
            f = strang_step(f, dt, p, safety, state)
        assert state.substeps == nsub * 2 ** k
        finals.append(f.values)
    peak = float(np.max(f0.values))
    errors = [float(np.max(np.abs(a - b))) / peak for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.8, (errors, orders)


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


# The full-field Strang step: every stage's coefficients over the whole field,
# Q zeroed outside the stage's data cells, and the clip over the whole field.
# The stepper must match it bitwise.


def _oracle_clip(values, state, cell_volume):
    floor = -CLIP_REL_TOL * float(np.max(values, initial=0.0))
    neg = values < floor
    if np.any(neg):
        state.clipped_mass += -float(np.sum(values[neg])) * cell_volume
        values = np.where(neg, 0.0, values)
    return values


def _oracle_check_finite(values, step):
    if not np.all(np.isfinite(values)):
        raise NanDetected(f"{step} produced nonfinite values")


def _oracle_rhs(vals, grid, p):
    """Q over the data cells of vals, 0 elsewhere, and the largest row sum of its stencil there."""
    coeffs = compute_coefficients(DistributionField(0.0, vals, grid), p)
    cells = data_cells(cell_extrema(vals, grid.d_v))
    rhs = apply_collision_divergence(vals, coeffs, grid)
    skipped = np.ones(cell_view(rhs, grid).shape[0], dtype=bool)
    skipped[cells] = False
    cell_view(rhs, grid)[skipped] = 0.0
    rows = cell_view(divergence_row_sums(coeffs, grid), grid)[cells]
    return rhs, float(np.max(rows, initial=0.0))


def _oracle_substep(f, dt, p, cfl_safety, state):
    grid = f.grid
    if float(np.max(f.values)) == 0.0:
        return DistributionField(f.time, f.values, grid)
    vals = f.values
    k1, bound = _oracle_rhs(vals, grid, p)
    dt_cfl = _collision_dt(bound, cfl_safety)
    nsub = max(1, math.ceil(dt / dt_cfl)) if math.isfinite(dt_cfl) else 1
    h = dt / nsub
    vol = grid.cell_volume
    for i in range(nsub):
        if i > 0:
            k1 = _oracle_rhs(vals, grid, p)[0]
        mid = _oracle_clip(vals + 0.5 * h * k1, state, vol)
        k2 = _oracle_rhs(mid, grid, p)[0]
        vals = _oracle_clip(vals + h * k2, state, vol)
        _oracle_check_finite(vals, "collision substep")
    return DistributionField(f.time, vals, grid)


def _oracle_strang_step(f, dt, p, cfl_safety, state):
    vol = f.grid.cell_volume
    half = transport_shift(f, 0.5 * dt)
    _oracle_check_finite(half.values, "transport")
    half.values = _oracle_clip(half.values, state, vol)
    collided = _oracle_substep(half, dt, p, cfl_safety, state)
    out = transport_shift(collided, 0.5 * dt)
    _oracle_check_finite(out.values, "transport")
    out.values = _oracle_clip(out.values, state, vol)
    return out


def _assemble_rhs(blocks, vals, grid):
    """The blocks' Q as a field, 0 in the cells no block holds, and the cells the blocks hold."""
    rhs = np.zeros(vals.shape)
    for cells, q, *_ in blocks:
        cell_view(rhs, grid)[cells] = q
    held = np.concatenate([np.arange(0)] + [cells for cells, *_ in blocks])
    return rhs, held


@pytest.mark.parametrize("d_x, d_v", [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3)])
def test_blocked_rhs_is_the_full_field_operator(d_x, d_v, monkeypatch):
    # in blocks of 8 cells, 20 (d_x = 1) and 25 (d_x = 2) cells leave a partial last block
    n_x = {0: 1, 1: 20, 2: 5}[d_x]
    g = Grid(d_x, d_v, n_x, 12 if d_v == 2 else 6, 30.0, 3.0)
    monkeypatch.setattr(landau.coefficients, "BLOCK_POINTS", 8 * g.n_v ** d_v)
    p = KernelParams(-1.0 if d_v == 2 else -0.7, d_v)
    vals = np.exp(-g.v_squared()) * np.random.default_rng(10 * d_x + d_v).random(g.shape)
    f = DistributionField(0.0, vals, g)
    ext = cell_extrema(vals, d_v)
    blocks = _rhs_blocks(vals, ext, g, p)
    rhs, held = _assemble_rhs(blocks, vals, g)
    assert np.array_equal(held, np.arange(n_x ** d_x))
    coeffs = compute_coefficients(f, p)
    assert np.array_equal(rhs, apply_collision_divergence(vals, coeffs, g))
    maxima = [block[2] for block in blocks]
    bound = float(np.max(divergence_row_sums(coeffs, g)))
    assert max(maxima) == bound
    # the dt of the full fields: RK2's real-axis limit 2 / rho, rho <= bound
    assert _collision_dt(max(maxima), 0.5) == 0.5 * 2.0 / bound
    # the passes of every stage convolve a and b alone, and give the same Q
    fv = cell_view(vals, g)
    blocks_ab = convolve_cells(vals, g, p, "ab", lambda cells, coeffs: (
        cells, apply_collision_divergence(fv[cells], coeffs, g), coeffs.c_bar), data_cells(ext))
    rhs_ab, _ = _assemble_rhs(blocks_ab, vals, g)
    assert np.array_equal(rhs_ab, rhs)
    assert [c_bar for *_, c_bar in blocks_ab] == [None] * len(blocks)


@pytest.fixture(scope="module", params=["near_vacuum", "clipped"])
def skipping_field(request):
    """A stepped field whose tails hold cells that data_cells skips, and its full-field Q.

    near_vacuum: the bench near_vacuum (criterion 8) data after one Strang
    step.  clipped: O(1) data after a step of 42 RK2 sub-cycles that clips,
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
    return dict(kind=request.param, f=f, p=p, dt=dt, clipped=state.clipped_mass,
                q=apply_collision_divergence(f.values, coeffs, f.grid),
                bound=float(np.max(divergence_row_sums(coeffs, f.grid))))


def test_skipped_cells_hold_updates_below_the_clip_floor(skipping_field):
    # h |Q| in a skipped cell is below the round-off of the clip, CLIP_REL_TOL
    # of the peak, though some of those cells hold more than CLIP_REL_TOL
    f, dt = skipping_field["f"], skipping_field["dt"]
    g = f.grid
    if skipping_field["kind"] == "clipped":
        assert skipping_field["clipped"] > 0.0
    ext = cell_extrema(f.values, g.d_v)
    cell_max = ext[0]
    peak = float(np.max(cell_max))
    skipped = np.setdiff1d(np.arange(len(cell_max)), data_cells(ext))
    assert 0 < len(skipped) < len(cell_max)
    assert np.any(cell_max[skipped] >= CLIP_REL_TOL * peak)
    dt_cfl = _collision_dt(skipping_field["bound"], 0.5)
    h = dt / math.ceil(dt / dt_cfl)
    assert h * np.max(np.abs(cell_view(skipping_field["q"], g)[skipped])) <= CLIP_REL_TOL * peak


def test_blocked_rhs_is_the_full_field_operator_on_data_cells(skipping_field):
    f = skipping_field["f"]
    g = f.grid
    ext = cell_extrema(f.values, g.d_v)
    blocks = _rhs_blocks(f.values, ext, g, skipping_field["p"])
    rhs, held = _assemble_rhs(blocks, f.values, g)
    cells = data_cells(ext)
    assert np.array_equal(held, cells)
    skipped = np.setdiff1d(np.arange(cell_view(rhs, g).shape[0]), cells)
    assert np.array_equal(cell_view(rhs, g)[cells], cell_view(skipping_field["q"], g)[cells])
    assert np.all(cell_view(rhs, g)[skipped] == 0.0)
    maxima = [block[2] for block in blocks]
    bound = skipping_field["bound"]
    assert max(maxima) == bound
    assert _collision_dt(max(maxima), 0.5) == _collision_dt(bound, 0.5)


def _assert_same_step(got, got_state, want, want_state):
    assert got.time == want.time
    assert got.values.tobytes() == want.values.tobytes()
    assert got_state.clipped_mass == want_state.clipped_mass


def test_step_is_the_full_field_step(skipping_field):
    f, p, dt = skipping_field["f"], skipping_field["p"], skipping_field["dt"]
    for step, oracle in ((strang_step, _oracle_strang_step),
                         (collision_substep, _oracle_substep)):
        state, want_state = RunState(), RunState()
        got = step(f, dt, p, 0.5, state)
        _assert_same_step(got, state, oracle(f, dt, p, 0.5, want_state), want_state)
        if skipping_field["kind"] == "clipped":
            assert state.clipped_mass > 0.0


def test_step_clips_a_skipped_cell_where_the_peak_moves_the_floor():
    # cell 1's two bumps relax, and the peak falls from 0.779 to 0.768 in the
    # midpoint stage and on in the endpoint's.  That raises the clip floor past
    # a round-off negative in cell 2, which is skipped: at the input it is
    # within the floor and passes the sign gate.  Both stages clip it, the
    # midpoint in its own field and the endpoint in the result
    g = Grid(1, 2, 4, 16, 40.0, 4.0)
    p = KernelParams(-1.0, 2)
    v1, v2 = g.v_mesh()
    vals = np.full(g.shape, 1e-12)
    vals[1] = np.exp(-((v1 - 1.5) ** 2 + v2 ** 2) / 0.5) + np.exp(-((v1 + 1.5) ** 2 + v2 ** 2) / 0.5)
    vals[2, 5, 5] = -0.773 * CLIP_REL_TOL
    f = DistributionField(0.0, vals, g)
    assert vals[2, 5, 5] > -CLIP_REL_TOL * np.max(vals)
    assert 2 not in data_cells(cell_extrema(vals, g.d_v))
    state, want_state = RunState(), RunState()
    got = collision_substep(f, 0.0026, p, 0.5, state)  # one sub-cycle
    _assert_same_step(got, state, _oracle_substep(f, 0.0026, p, 0.5, want_state), want_state)
    assert got.values[2, 5, 5] == 0.0


def test_homogeneous_step_is_the_full_field_step():
    # d_x = 0: the shift is a copy, whose one cell's extrema the calling thread takes
    g = Grid(0, 2, 1, 24, 1.0, 5.0)
    v1, v2 = g.v_mesh()
    f = DistributionField(0.0, np.exp(-(v1 / 1.5) ** 2 - (v2 / 0.7) ** 2), g)
    p = KernelParams(-1.0, 2)
    state, want_state = RunState(), RunState()
    got = strang_step(f, 0.1, p, 0.5, state)
    _assert_same_step(got, state, _oracle_strang_step(f, 0.1, p, 0.5, want_state), want_state)


def test_skipping_rhs_does_not_depend_on_threads_or_blocks(skipping_field, monkeypatch):
    # the whole step, whose workers apply the update and take the extrema:
    # one-cell blocks and blocks of 8 cells, on 1 and 7 threads, with the
    # blocks and the transport chunks dealt for that many threads
    f, p, dt = skipping_field["f"], skipping_field["p"], skipping_field["dt"]
    g = f.grid
    want_state = RunState()
    want = strang_step(f, dt, p, 0.5, want_state)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for points in (1, 8 * g.n_v ** 2):
            monkeypatch.setattr(landau.coefficients, "BLOCK_POINTS", points)
            for threads in (1, 7):
                monkeypatch.setattr(landau.threads, "_THREADS", threads)
                state = RunState()
                with ThreadPoolExecutor(threads) as pool:
                    monkeypatch.setattr(landau.threads, "_POOL", pool)
                    got = strang_step(f, dt, p, 0.5, state)
                _assert_same_step(got, state, want, want_state)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("stage", [0, 1, 2])
def test_nonfinite_collision_stage_raises(stage, monkeypatch):
    # Q turns nonfinite in one coefficient pass: the first (it sets the
    # midpoint), the endpoint's, or the second sub-cycle's midpoint; the
    # stage that takes it is caught
    cfg = _small_cfg(n_x=16, n_v=12, L_x=160.0, epsilon=1.0)  # many sub-cycles
    f = initial_data(cfg)
    passes = []
    convolve_cells = landau.stepper.convolve_cells

    def counted(*args):
        passes.append(1)
        return convolve_cells(*args)

    def poisoned(*args):
        q = apply_collision_divergence(*args)
        if len(passes) == stage + 1:
            q[(0,) * q.ndim] = np.inf if stage == 1 else np.nan
        return q

    monkeypatch.setattr(landau.stepper, "convolve_cells", counted)
    monkeypatch.setattr(landau.stepper, "apply_collision_divergence", poisoned)
    with pytest.raises(NanDetected, match="collision substep"):
        strang_step(f, 0.25, cfg.kernel_params(), 0.5, RunState())
    assert len(passes) == stage + 1


def test_step_leaves_its_input_unchanged(skipping_field):
    # the stages write only into fields the step made: a read-only input
    # would refuse a write
    f = skipping_field["f"]
    want = f.values.tobytes()
    f.values.flags.writeable = False
    try:
        for step in (strang_step, collision_substep):
            step(f, skipping_field["dt"], skipping_field["p"], 0.5, RunState())
            assert f.values.tobytes() == want
    finally:
        f.values.flags.writeable = True


def test_collision_substep_peak_is_a_few_fields(monkeypatch):
    # the stages build no full-field coefficients; a first stage that holds
    # all six of them next to the operator's temporaries peaks at 22 fields.
    # Three fields: the input's copy, the midpoint's field and the first
    # stage's Q, held per block; 3.45 fields measured on 1 and 2 threads,
    # 4.34 on 4.  32 blocks, so that 4 block spectra per thread weigh 2 fields
    # on 2 threads
    n_v = 16
    g = Grid(1, 2, 32 * landau.coefficients.BLOCK_POINTS // n_v ** 2, n_v, 900.0, 6.0)
    p = KernelParams(-1.0, 2)
    kernel_tables(g, p)
    vals = np.exp(-g.v_squared() / 2.0) * (1.0 + np.random.default_rng(11).random(g.shape))
    f = DistributionField(0.0, vals, g)
    # 1.5 CFL steps make two RK2 sub-cycles, so the later sub-cycles' first
    # stage is under the bound too: four passes
    blocks = _rhs_blocks(vals, cell_extrema(vals, 2), g, p)  # the pool's threads exist
    dt = 1.5 * _collision_dt(max(block[2] for block in blocks), 0.5)
    del blocks
    passes = []
    convolve_cells = landau.stepper.convolve_cells

    def counted(*args):
        passes.append(1)
        return convolve_cells(*args)

    monkeypatch.setattr(landau.stepper, "convolve_cells", counted)
    threads = min(len(os.sched_getaffinity(0)), -(-g.n_x // block_cells(g)))
    block = block_cells(g) * (2 * g.n_v) ** 2 * 16  # one padded complex spectrum
    tracemalloc.start()
    try:
        collision_substep(f, dt, p, 0.5, RunState())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(passes) == 4
    assert peak <= 3 * vals.nbytes + 4 * threads * block


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



def test_run_counts_its_steps_and_sub_cycles():
    # the bench's near_vacuum config to t = 1, with its drift and centre at
    # the corner of the bench's draws: the Gershgorin step, 0.273 here, is
    # above dt = 0.25, so each of the 4 steps takes one RK2 sub-cycle
    cfg = _small_cfg(n_x=128, n_v=64, L_x=900.0, t_final=1.0, output_every=0.5,
                     initial_parameters={"x_width": 3.5 * 900.0 / 128, "v_width": 1.0,
                                         "x_center": 10.0, "drift": [0.08, 0.08]})
    art = run(cfg)
    assert (art.state.steps, art.state.substeps) == (4, 4)
    assert 0.25 < art.state.dt_cfl_min < 0.3
    free = run(cfg, transport_only=True)
    assert (free.state.steps, free.state.substeps, free.state.dt_cfl_min) == (4, 0, math.inf)

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
