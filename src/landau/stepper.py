"""Strang-split time integration: half transport, collision substep, half transport.

Transport is spectrally exact, so the splitting error is localized in the
collision substep, an explicit midpoint (RK2) update with coefficients
recomputed at each stage and CFL-limited sub-cycling.  Each stage is one
coefficient pass (coefficients.convolve_cells) over the a and b tables and
the cells whose max f is at least DATA_TOL of the peak; the others keep their
values, as their update would be below CLIP_REL_TOL of it.  The sub-cycle is
h = dt / nsub <= cfl_safety * 2 / G, RK2's real-axis limit 2 / rho times
cfl_safety, where G, the largest Gershgorin row sum of the flux stencil at
the first stage's coefficients (collision.divergence_row_sums), bounds the
spectral radius rho of the whole operator, drift included.  Negative values
created by the update are clipped to zero; the clipped mass is accumulated
and run() aborts if it exceeds CLIP_BUDGET of the initial mass.

A Strang step decides from each field's cell_extrema, the max and min of
every spatial cell, which the pool's workers take as they write the values:
the transport chunks as they shift, and the coefficient pass's consumers as
they apply the RK2 update to their block.  coefficients.data_cells takes a
stage's extrema, checks the sign of every cell and picks the data cells; the
clip floor, the cells the clip visits and the finiteness check come from the
same extrema, so the calling thread scans no full field.  A stage writes into
a field the step made, never into the one the step was given.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CLIP_REL_TOL, cell_view, convolve_cells, data_cells
from .collision import apply_collision_divergence, divergence_row_sums
from .config import SimulationConfig, initial_data, validate_config
from .diagnostics import ENormAccumulator, make_record
from .errors import CflViolation, ClipBudgetExceeded, NanDetected
from .kernel import KernelParams
from .phase_state import DistributionField, cell_extrema
from .threads import pool_map
from .transport import pullback_sharp, shift_with_extrema, transport_shift

CLIP_BUDGET = 1e-8
MAX_SUBCYCLES = 10000


@dataclass
class RunState:
    """What a run's steps have done.

    The mass they clipped, the steps, the collision sub-cycles and the
    smallest collision CFL step (inf before the first collision step).
    """

    clipped_mass: float = 0.0
    steps: int = 0
    substeps: int = 0
    dt_cfl_min: float = math.inf


def _clip(values, ext, state: RunState, grid):
    """Zero out negatives beyond round-off, in place, accumulating the clipped mass.

    values is a field the step made and ext its cell_extrema, kept up to date.
    Negatives within CLIP_REL_TOL of the peak are spectral-shift round-off and
    are left in place: zeroing them would carve kinks into the tails whose own
    ringing grows from step to step.  Only the cells whose min is below the
    floor are visited, in increasing order, so the clipped mass sums the same
    values in the same order as a pass over the whole field would.
    """
    floor = -CLIP_REL_TOL * float(np.max(ext[0], initial=0.0))
    flagged = np.flatnonzero(ext[1] < floor)
    if flagged.size:
        cells = cell_view(values, grid)
        block = cells[flagged]
        neg = block < floor
        state.clipped_mass += -float(np.sum(block[neg])) * grid.cell_volume
        block[neg] = 0.0
        cells[flagged] = block
        ext[:, flagged] = cell_extrema(block, grid.d_v)


def _collision_dt(bound, cfl_safety):
    """The CFL step of the explicit update, cfl_safety times RK2's real-axis limit 2 / rho.

    bound is the largest Gershgorin row sum of the operator's stencil
    (collision.divergence_row_sums), a bound on its spectral radius rho.
    """
    return cfl_safety * 2.0 / bound if bound > 0.0 else math.inf


def _check_finite(values, step):
    """values, or the cell_extrema of a field, hold only finite numbers."""
    if not np.all(np.isfinite(values)):
        raise NanDetected(f"{step} produced nonfinite values")


def _update(out, base, cells, step, q, d_v):
    """out[cells] = base[cells] + step q, on cell views; the cells and their cell_extrema."""
    new = base[cells] + step * q
    out[cells] = new
    return cells, cell_extrema(new, d_v)


def _settle(values, ext, parts, state: RunState, grid):
    """A stage's block extrema into ext, then its clip and its finiteness check."""
    for cells, part in parts:
        ext[:, cells] = part
    _clip(values, ext, state, grid)
    _check_finite(ext, "collision substep")


def _rhs_blocks(vals, ext, grid, p: KernelParams):
    """Q(vals) on each block of data cells, (cells, Q, the block's largest row sum) a block.

    The row sums are divergence_row_sums of the block's coefficients, the
    stencil that Q applies.
    """
    fv = cell_view(vals, grid)

    def rhs(cells, coeffs):
        return (cells, apply_collision_divergence(fv[cells], coeffs, grid),
                float(np.max(divergence_row_sums(coeffs, grid))))

    return convolve_cells(vals, grid, p, "ab", rhs, data_cells(ext))


def _collide(vals, ext, dt, p: KernelParams, cfl_safety, state: RunState, grid):
    """Sub-cycled RK2 integration of d_t f = Q(f, f) at fixed x, written into vals.

    vals is a field the step made and ext its cell_extrema; both are updated.
    Each sub-cycle's first stage is _rhs_blocks, Q held per block of data
    cells, then its update into a second field that holds vals in every other
    cell; the first sub-cycle's row sums set the CFL step.  The endpoint
    stage's consumer applies the update to its own block.
    """
    if float(np.max(ext[0])) == 0.0:
        return
    k1 = _rhs_blocks(vals, ext, grid, p)
    # a field with no positive value has no cell to visit, and Q = 0
    dt_cfl = _collision_dt(max((block[2] for block in k1), default=0.0), cfl_safety)
    nsub = max(1, math.ceil(dt / dt_cfl)) if math.isfinite(dt_cfl) else 1
    if nsub > MAX_SUBCYCLES:
        raise CflViolation(f"{nsub} collision sub-cycles needed, cap {MAX_SUBCYCLES}")
    state.substeps += nsub
    state.dt_cfl_min = min(state.dt_cfl_min, dt_cfl)
    h = dt / nsub
    mid = np.empty_like(vals)
    fv, mv = cell_view(vals, grid), cell_view(mid, grid)

    def endpoint(cells, coeffs):
        return _update(fv, fv, cells, h, apply_collision_divergence(mv[cells], coeffs, grid),
                       grid.d_v)

    for _ in range(nsub):
        np.copyto(mid, vals)
        mid_ext = ext.copy()
        # the first sub-cycle's blocks are the ones that set h; the later
        # sub-cycles' row sums go unused
        k1 = k1 or _rhs_blocks(vals, ext, grid, p)
        parts = pool_map(lambda block: _update(mv, fv, block[0], 0.5 * h, block[1], grid.d_v), k1)
        k1 = None
        _settle(mid, mid_ext, parts, state, grid)
        _settle(vals, ext, convolve_cells(mid, grid, p, "ab", endpoint, data_cells(mid_ext)),
                state, grid)


def collision_substep(f: DistributionField, dt, p: KernelParams, cfl_safety,
                      state: RunState):
    """Sub-cycled RK2 integration of d_t f = Q(f, f) at fixed x; f is left as it is."""
    vals = f.values.copy()
    _collide(vals, cell_extrema(vals, f.grid.d_v), dt, p, cfl_safety, state, f.grid)
    return DistributionField(f.time, vals, f.grid)


def _transport(f: DistributionField, dt):
    out = transport_shift(f, dt)
    _check_finite(out.values, "transport")
    return out


def _half_transport(f: DistributionField, dt, state: RunState):
    """A Strang step's transport half and its cell_extrema, checked and clipped."""
    out, ext = shift_with_extrema(f, dt)
    _check_finite(ext, "transport")
    _clip(out.values, ext, state, f.grid)
    return out, ext


def strang_step(f: DistributionField, dt, p: KernelParams, cfl_safety, state: RunState):
    """T(dt/2) o C(dt) o T(dt/2); f is left as it is."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    half, ext = _half_transport(f, 0.5 * dt, state)
    _collide(half.values, ext, dt, p, cfl_safety, state, f.grid)
    return _half_transport(half, 0.5 * dt, state)[0]


def advance(cfg: SimulationConfig, f: DistributionField, p: KernelParams, state: RunState,
            transport_only=False):
    """Step f from f.time to t_final, yielding (f, at_output) after every step.

    Outputs fall on the multiples of output_every after f.time and on t_final.
    Each step, free transport or a Strang step, is at most dt_max and is
    shortened to land on the next output.
    """
    next_out = 0.0
    while f.time < cfg.t_final - 1e-12:
        while next_out <= f.time + 1e-9:
            next_out += cfg.output_every
        dt = min(cfg.dt_max, min(cfg.t_final, next_out) - f.time)
        if transport_only:
            f = _transport(f, dt)
        else:
            f = strang_step(f, dt, p, cfg.cfl_safety, state)
        state.steps += 1
        yield f, f.time >= next_out - 1e-9 or f.time >= cfg.t_final - 1e-12


@dataclass
class RunArtifacts:
    records: list
    final: DistributionField
    state: RunState

    @property
    def clipped_mass(self):
        return self.state.clipped_mass

    def record_series(self, key):
        return [(r.t, getattr(r, key)) for r in self.records]


def run(cfg: SimulationConfig, data: DistributionField = None, transport_only=False,
        checkpoint_cb=None):
    """Advance from data.time to t_final, emitting one DiagnosticRecord per output time.

    Without data the run starts from the config's initial data at t = 0.  A
    resumed run keeps the output schedule, multiples of output_every, but its
    clip budget, E-norm time integral and f-sharp reference start afresh.
    """
    if data is None:
        data = initial_data(cfg)
    validate_config(cfg, data)
    p = cfg.kernel_params()
    state = RunState()
    acc = ENormAccumulator()

    # no step writes into a field it is given, so the run starts from data
    # itself, and at t = 0 data is its own f-sharp
    f = data
    initial_mass = f.mass()
    sharp0 = f if f.time == 0.0 else pullback_sharp(f)
    records = [make_record(f, p, cfg.d0, sharp0, acc, state.clipped_mass)]
    if checkpoint_cb is not None:
        checkpoint_cb(f)

    for f, at_output in advance(cfg, f, p, state, transport_only):
        if initial_mass > 0.0 and state.clipped_mass > CLIP_BUDGET * initial_mass:
            raise ClipBudgetExceeded(
                f"clipped {state.clipped_mass:.3g} of initial mass {initial_mass:.3g}")
        if at_output:
            records.append(make_record(f, p, cfg.d0, sharp0, acc, state.clipped_mass))
            if checkpoint_cb is not None:
                checkpoint_cb(f)
    return RunArtifacts(records, f, state)
