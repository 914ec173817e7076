"""Strang-split time integration: half transport, collision substep, half transport.

Transport is spectrally exact, so the splitting error is localized in the
collision substep, an explicit midpoint (RK2) update with coefficients
recomputed at each stage and CFL-limited sub-cycling.  Negative values created
by the update are clipped to zero; the clipped mass is accumulated and run()
aborts if it exceeds CLIP_BUDGET of the initial mass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import compute_coefficients
from .collision import apply_collision_divergence
from .config import SimulationConfig, initial_data, validate_config
from .diagnostics import ENormAccumulator, make_record
from .errors import CflViolation, ClipBudgetExceeded, NanDetected
from .kernel import KernelParams
from .phase_state import DistributionField
from .transport import pullback_sharp, transport_shift

CLIP_BUDGET = 1e-8
CLIP_REL_TOL = 1e-14
MAX_SUBCYCLES = 10000


@dataclass
class RunState:
    clipped_mass: float = 0.0


def _clip(values, state: RunState, cell_volume):
    """Zero out negatives beyond round-off, accumulating the clipped mass.

    Negatives within CLIP_REL_TOL of the peak are spectral-shift round-off and
    are left in place: zeroing them would carve kinks into the tails whose own
    ringing grows from step to step.
    """
    floor = -CLIP_REL_TOL * float(np.max(values, initial=0.0))
    neg = values < floor
    if np.any(neg):
        state.clipped_mass += -float(np.sum(values[neg])) * cell_volume
        values = np.where(neg, 0.0, values)
    return values


def _collision_dt(coeffs, grid, cfl_safety):
    amax = float(np.max(np.abs(coeffs.a_bar)))
    cmax = float(np.max(np.abs(coeffs.c_bar)))
    dt = math.inf
    if amax > 0.0:
        dt = min(dt, cfl_safety * grid.dv ** 2 / (2.0 * grid.d_v * amax))
    if cmax > 0.0:
        dt = min(dt, cfl_safety / cmax)
    return dt


def collision_substep(f: DistributionField, dt, p: KernelParams, cfl_safety,
                      state: RunState):
    """Sub-cycled RK2 integration of d_t f = Q(f, f) at fixed x."""
    grid = f.grid
    if float(np.max(f.values)) == 0.0:
        return DistributionField(f.time, f.values, f.grid)
    coeffs = compute_coefficients(f, p)
    dt_cfl = _collision_dt(coeffs, grid, cfl_safety)
    nsub = max(1, math.ceil(dt / dt_cfl)) if math.isfinite(dt_cfl) else 1
    if nsub > MAX_SUBCYCLES:
        raise CflViolation(f"{nsub} collision sub-cycles needed, cap {MAX_SUBCYCLES}")
    h = dt / nsub
    vals = f.values
    vol = grid.cell_volume
    for i in range(nsub):
        if i > 0:
            coeffs = compute_coefficients(DistributionField(f.time, vals, grid), p,
                                          with_c=False)
        k1 = apply_collision_divergence(vals, coeffs, grid)
        mid = _clip(vals + 0.5 * h * k1, state, vol)
        coeffs_mid = compute_coefficients(DistributionField(f.time, mid, grid), p,
                                          with_c=False)
        k2 = apply_collision_divergence(mid, coeffs_mid, grid)
        vals = _clip(vals + h * k2, state, vol)
        if not np.all(np.isfinite(vals)):
            raise NanDetected("collision substep produced nonfinite values")
    return DistributionField(f.time, vals, grid)


def strang_step(f: DistributionField, dt, p: KernelParams, cfl_safety, state: RunState):
    """T(dt/2) o C(dt) o T(dt/2)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    vol = f.grid.cell_volume
    half = transport_shift(f, 0.5 * dt)
    half.values = _clip(half.values, state, vol)
    collided = collision_substep(half, dt, p, cfl_safety, state)
    out = transport_shift(collided, 0.5 * dt)
    out.values = _clip(out.values, state, vol)
    return out


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
            f = transport_shift(f, dt)
        else:
            f = strang_step(f, dt, p, cfg.cfl_safety, state)
        yield f, f.time >= next_out - 1e-9 or f.time >= cfg.t_final - 1e-12


@dataclass
class RunArtifacts:
    records: list
    final: DistributionField
    clipped_mass: float

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

    f = data.copy()
    initial_mass = f.mass()
    sharp0 = pullback_sharp(f)
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
    return RunArtifacts(records, f, state.clipped_mass)
