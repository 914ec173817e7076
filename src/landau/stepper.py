"""Strang-split time integration: half transport, collision substep, half transport.

Transport is spectrally exact, so the splitting error is localized in the
collision substep, an explicit midpoint (RK2) update with coefficients
recomputed at each stage and CFL-limited sub-cycling.  Negative values created
by the update are clipped to zero; the clipped mass is accumulated and the run
aborts if it exceeds CLIP_BUDGET of the initial mass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import compute_coefficients, coefficient_sup_norms
from .collision import (apply_collision_divergence, apply_collision_nonconservative,
                        h_functional)
from .config import SimulationConfig, initial_data, validate_config
from .diagnostics import (DiagnosticRecord, ENormAccumulator, e_norm,
                          hierarchy_params, sharp_cauchy_diff, velocity_moments,
                          z_norm)
from .errors import CflViolation, ClipBudgetExceeded, NanDetected
from .kernel import KernelParams
from .phase_state import DistributionField, WeightSpec, bracket, to_g
from .transport import pullback_sharp, transport_shift

CLIP_BUDGET = 1e-8
MAX_SUBCYCLES = 10000


@dataclass
class StepControl:
    cfl_safety: float = 0.5
    dt_max: float = 0.25
    max_subcycles: int = MAX_SUBCYCLES


@dataclass
class RunState:
    clipped_mass: float = 0.0


CLIP_REL_TOL = 1e-14


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


def _collision_dt(coeffs, grid, ctrl: StepControl):
    amax = float(np.max(np.abs(coeffs.a_bar)))
    cmax = float(np.max(np.abs(coeffs.c_bar)))
    dt = math.inf
    if amax > 0.0:
        dt = min(dt, ctrl.cfl_safety * grid.dv ** 2 / (2.0 * grid.d_v * amax))
    if cmax > 0.0:
        dt = min(dt, ctrl.cfl_safety / cmax)
    return dt


def collision_substep(f: DistributionField, dt, p: KernelParams, ctrl: StepControl,
                      state: RunState):
    """Sub-cycled RK2 integration of d_t f = Q(f, f) at fixed x."""
    grid = f.grid
    if float(np.max(f.values)) == 0.0:
        return DistributionField(f.time, f.values, f.grid)
    coeffs = compute_coefficients(f, p)
    dt_cfl = _collision_dt(coeffs, grid, ctrl)
    nsub = max(1, math.ceil(dt / dt_cfl)) if math.isfinite(dt_cfl) else 1
    if nsub > ctrl.max_subcycles:
        raise CflViolation(f"{nsub} collision sub-cycles needed, cap {ctrl.max_subcycles}")
    h = dt / nsub
    vals = f.values
    vol = grid.cell_volume
    for i in range(nsub):
        if i > 0:
            coeffs = compute_coefficients(DistributionField(f.time, vals, grid), p)
        k1 = apply_collision_divergence(vals, coeffs, grid)
        mid = _clip(vals + 0.5 * h * k1, state, vol)
        coeffs_mid = compute_coefficients(DistributionField(f.time, mid, grid), p)
        k2 = apply_collision_divergence(mid, coeffs_mid, grid)
        vals = _clip(vals + h * k2, state, vol)
        if not np.all(np.isfinite(vals)):
            raise NanDetected("collision substep produced nonfinite values")
    return DistributionField(f.time, vals, grid)


def strang_step(f: DistributionField, dt, p: KernelParams, ctrl: StepControl,
                state: RunState = None):
    """T(dt/2) o C(dt) o T(dt/2)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state is None:
        state = RunState()
    vol = f.grid.cell_volume
    half = transport_shift(f, 0.5 * dt)
    half.values = _clip(half.values, state, vol)
    collided = collision_substep(half, dt, p, ctrl, state)
    out = transport_shift(collided, 0.5 * dt)
    out.values = _clip(out.values, state, vol)
    return out


@dataclass
class RunArtifacts:
    config: SimulationConfig
    records: list
    final: DistributionField
    clipped_mass: float

    def record_series(self, key):
        return [(r.t, getattr(r, key)) for r in self.records]


def _make_record(f, p, cfg, hp, spec, sharp0, state, acc):
    grid = f.grid
    rho, m, e = velocity_moments(f.values, grid)
    xvol = grid.dx ** grid.d_x
    diff0 = sharp_cauchy_diff(pullback_sharp(f), sharp0, *cfg.weight_powers)
    if float(np.max(f.values)) > 0.0:
        coeffs = compute_coefficients(f, p)
        sups = coefficient_sup_norms(coeffs, cfg.gamma)
        vb = bracket(grid.v_squared())
        diffusion = apply_collision_nonconservative(
            f.values, coeffs, grid) + coeffs.c_bar * f.values
        null_term = float(np.max(np.abs(diffusion) / vb ** (2.0 + cfg.gamma)))
    else:
        sups = {"plain": 0.0, "weighted_down": 0.0, "c_sup": 0.0}
        null_term = 0.0
    g = to_g(f, spec)
    z_norms = {}
    e_norms = {}
    orders = [((), (), ())]
    if cfg.K_diag >= 1 and grid.d_v >= 1:
        orders.append(((), (1,), ()))
        orders.append(((), (), (1,)))
    for od in orders:
        key = "a" + "".join(map(str, od[0])) + "b" + "".join(map(str, od[1])) \
            + "s" + "".join(map(str, od[2]))
        k = sum(map(sum, od))
        idx = min(hp.M_max - 4, k)
        z_norms[key] = z_norm(g, od, hp, hp.zeta[idx], hp.theta[idx], cfg.K_diag)
        fixed, integrand = e_norm(g, od, hp, cfg.K_diag)
        if od == ((), (), ()):
            acc.add(f.time, integrand)
            e_norms[key] = fixed
            e_norms[key + "_Lt2"] = acc.value
        else:
            e_norms[key] = fixed
    return DiagnosticRecord(
        t=f.time,
        mass=float(np.sum(rho)) * xvol,
        momentum=list(m.reshape(-1, grid.d_v).sum(axis=0) * xvol),
        energy=float(np.sum(e)) * xvol,
        rho_sup=float(np.max(np.abs(rho))),
        m_sup=float(np.max(np.abs(m))),
        e_sup=float(np.max(np.abs(e))),
        E_norms=e_norms,
        Z_norms=z_norms,
        a_bar_plain_sup=sups["plain"],
        a_bar_weighted_sup=sups["weighted_down"],
        c_bar_sup=sups["c_sup"],
        null_term_sup=null_term,
        sharp_diff_vs_t0=diff0,
        h_value=h_functional(f),
        clipped_mass=state.clipped_mass,
    )


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
    hp = hierarchy_params(cfg.gamma)
    spec = WeightSpec.from_gamma(cfg.gamma, gaussian=True, d0=cfg.d0)
    ctrl = StepControl(cfg.cfl_safety, cfg.dt_max)
    state = RunState()
    acc = ENormAccumulator()

    f = data.copy()
    initial_mass = f.mass()
    sharp0 = pullback_sharp(f)
    records = [_make_record(f, p, cfg, hp, spec, sharp0, state, acc)]
    if checkpoint_cb is not None:
        checkpoint_cb(f)

    t = f.time
    next_out = 0.0
    while next_out <= t + 1e-9:
        next_out += cfg.output_every
    while t < cfg.t_final - 1e-12:
        dt = min(cfg.dt_max, min(cfg.t_final, next_out) - t)
        if transport_only:
            f = transport_shift(f, dt)
        else:
            f = strang_step(f, dt, p, ctrl, state)
        t = f.time
        if initial_mass > 0.0 and state.clipped_mass > CLIP_BUDGET * initial_mass:
            raise ClipBudgetExceeded(
                f"clipped {state.clipped_mass:.3g} of initial mass {initial_mass:.3g}")
        if t >= next_out - 1e-9 or t >= cfg.t_final - 1e-12:
            records.append(_make_record(f, p, cfg, hp, spec, sharp0, state, acc))
            if checkpoint_cb is not None:
                checkpoint_cb(f)
            while next_out <= t + 1e-9:
                next_out += cfg.output_every
    return RunArtifacts(cfg, records, f, state.clipped_mass)
