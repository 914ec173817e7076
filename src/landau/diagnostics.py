"""The diagnostic record, its norms, hierarchy constants, and decay-rate fits.

The derivative hierarchy constants (M_max, M_int, zeta_k, theta_k, p_*, p_**)
are gamma-dependent integers/exponents controlling how much time growth and
velocity weight each derivative order costs.  make_record measures one output
time.  The decay diagnostics turn (1+t)^-r predictions into least-squares
slopes of log value vs log(1+t).
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (block_cells, cell_blocks, cell_view, coefficient_pass,
                           coefficient_sup_norms, data_cells, table_bounds)
from .collision import apply_collision_diffusion, diffusion_stencil_sum, h_functional
from .errors import GammaOutOfRange, GridMismatch, InsufficientPoints, NonPositiveValue
from .phase_state import DistributionField, Grid, WeightSpec, bracket, gaussian_weight_field
from .threads import pool_map, pool_threads, slab_rows, velocity_slab_rows
from .transport import shift_chunk

# The record's derivatives of g by NDJSON key, with their orders (|beta|,
# |sigma|) in d_v^beta Y^sigma: g itself, d_v1 g and Y_1 g
# (record_derivatives), in the order they are taken.
RECORD_ORDERS = {"abs": (0, 0), "ab1s": (1, 0), "abs1": (0, 1)}
# A cell's bounds on the record's coefficient sups (sup_bounds) hold for the
# exact convolution.  The computed sups carry the FFT's round-off, which is
# far below this share of a bound, so a cell is skipped only when each of its
# bounds times (1 + SUP_BOUND_MARGIN) is below the sup found so far.
SUP_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class HierarchyParams:
    gamma: float
    delta: float
    M_max: int
    M_int: int
    zeta: tuple      # indexed k = 0 .. M_max-4
    theta: tuple
    p_star: float    # may be inf
    p_star_star: float


def hierarchy_params(gamma):
    """All gamma-dependent hierarchy constants.

    M_max = 2 + 2 ceil(2/(2+gamma) + 4) on (-2,-1], 2 + 2 ceil(1/|gamma| + 4)
    on (-1,0); M_int drops the ceiling term once.  zeta_k/theta_k interpolate
    from 0 at k <= M_int to (3/2, 1) at k = M_max - 4.
    """
    if not (-2.0 < gamma < 0.0):
        raise GammaOutOfRange(f"gamma={gamma} not in (-2, 0)")
    soft = gamma <= -1.0
    step = math.ceil(2.0 / (2.0 + gamma) + 4.0) if soft else math.ceil(1.0 / abs(gamma) + 4.0)
    m_max = 2 + 2 * step
    m_int = m_max - step
    delta = WeightSpec.delta_from_gamma(gamma)

    top = m_max - 4
    zeta = [0.0] * (top + 1)
    theta = [0.0] * (top + 1)
    for k in range(m_int + 1, top):
        if soft:
            zeta[k] = max(0.0, 1.5 - (3.0 * (2.0 + gamma) / 4.0) * (top - k))
        elif k == top - 1:
            zeta[k] = 0.75
            theta[k] = 1.0 + gamma
        else:
            theta[k] = max(0.0, 1.0 + (top - k) * gamma)
    zeta[top] = 1.5
    theta[top] = 1.0

    if gamma >= -1.0:
        p_star = math.inf
    else:
        p_star = -15.0 / (4.0 * (gamma + 1.0))
    p_star_star = -15.0 / (4.0 * gamma) if gamma >= -1.5 else 2.0

    return HierarchyParams(gamma, delta, m_max, m_int, tuple(zeta), tuple(theta),
                           p_star, p_star_star)


@dataclass
class DiagnosticRecord:
    """One timestamped row of run diagnostics."""

    t: float
    mass: float
    momentum: list
    energy: float
    rho_sup: float
    m_sup: float
    e_sup: float
    E_norms: dict
    Z_norms: dict
    a_bar_plain_sup: float
    a_bar_weighted_sup: float
    c_bar_sup: float
    null_term_sup: float
    sharp_diff_vs_t0: float
    h_value: float
    clipped_mass: float


def _difference(values, spacing, axis):
    """Centred first difference along axis, one-sided (second order) at its ends."""
    return np.gradient(values, spacing, axis=axis, edge_order=2)


def _x1_difference(values, spacing, rows):
    """_difference(values, spacing, 0)[rows], computed on those rows alone."""
    lo, hi, _ = rows.indices(len(values))
    out = np.empty_like(values[lo:hi])
    a, b = max(lo, 1), min(hi, len(values) - 1)
    out[a - lo:b - lo] = (values[a + 1:b + 1] - values[a - 1:b - 1]) / (2.0 * spacing)
    if lo == 0:
        out[0] = _difference(values[:3], spacing, 0)[0]
    if hi == len(values):
        out[-1] = _difference(values[-3:], spacing, 0)[-1]
    return out


def record_derivatives(g, grid: Grid, t, rows=slice(None)):
    """Yield (key, derivative) of g at time t for the keys of RECORD_ORDERS, in order.

    The derivatives are g itself, d_v1 g, and Y_1 g = t d_x1 g + d_v1 g
    (d_v1 g when d_x = 0), on the rows of g's first axis that rows picks.  g
    has the grid's shape, or is a slab of it: a range of rows of the first
    spatial axis holding rows and the rows next to them that the x_1
    difference reads, whose first and last rows take one-sided differences
    in x_1.  Centred differences throughout; d_v1 is taken once, on rows
    alone.  Each derivative is built when the caller asks for the next one,
    so a caller that handles one at a time holds one at a time.
    """
    own = g[rows]
    yield "abs", own
    dg = _difference(own, grid.dv, grid.d_x)
    yield "ab1s", dg
    if grid.d_x:
        dg = dg + t * _x1_difference(g, grid.dx, rows)
    yield "abs1", dg


def z_norm(dg, vb, xw, t, beta, zeta, theta):
    """Weighted sup norm of one derivative D g of g.

    sup (1+t)^(-zeta-|beta|) <v>^(1-theta) <x-tv>^(M_max+5-|sigma|) |D g|, with
    vb = <v>, xw = <x-tv>^(M_max+5-|sigma|) and beta = |beta|.
    """
    w = vb ** (1.0 - theta) * xw
    pref = (1.0 + t) ** (-zeta - beta)
    return float(pref * np.max(w * np.abs(dg)))


def e_norm(dg, xw, t, beta, cell_volume):
    """Fixed-time weighted L2 piece (1+T)^-|beta| ||<x-tv>^(M_max+5-|sigma|) D g||_L2.

    Arguments as in z_norm.  On slabs of a field, the field's norm is the
    math.hypot of the slabs' norms.
    """
    return (1.0 + t) ** (-beta) * math.sqrt(float(np.sum((xw * dg) ** 2)) * cell_volume)


class ENormAccumulator:
    """Trapezoid accumulator for the time-integrated energy piece."""

    def __init__(self):
        self._last_t = None
        self._last_val = None
        self.total = 0.0

    def add(self, t, integrand):
        if self._last_t is not None:
            self.total += 0.5 * (t - self._last_t) * (integrand + self._last_val)
        self._last_t = t
        self._last_val = integrand

    @property
    def value(self):
        return math.sqrt(self.total)


def velocity_moments(values, grid):
    """Mass, momentum and energy densities: sums over the trailing d_v velocity axes.

    values is a full field or a velocity slice; rho and e keep its leading
    axes, and m gains a trailing axis of length d_v.
    """
    f = np.asarray(values, dtype=float)
    scale = grid.dv ** grid.d_v
    v_axes = tuple(range(f.ndim - grid.d_v, f.ndim))
    rho = np.sum(f, axis=v_axes) * scale
    m = np.empty(rho.shape + (grid.d_v,))
    e = np.zeros(rho.shape)
    for a, ax in enumerate(v_axes):
        shp = [1] * f.ndim
        shp[ax] = grid.n_v
        va = grid.v_axis().reshape(shp)
        fv = f * va
        m[..., a] = np.sum(fv, axis=v_axes) * scale
        e += np.sum(fv * va, axis=v_axes)
    return rho, m, 0.5 * e * scale


def conserved_moments(values, grid):
    """(mass, momentum, energy) summed over the leading axes, without the dx^d_x factor."""
    rho, m, e = velocity_moments(values, grid)
    return float(np.sum(rho)), m.reshape(-1, grid.d_v).sum(axis=0), float(np.sum(e))


def fit_decay_rate(series, window=None):
    """Least-squares slope of log(value) against log(1+t) inside the window."""
    pts = [(float(t), float(v)) for t, v in series]
    if window is not None:
        lo, hi = window
        pts = [(t, v) for t, v in pts if lo <= t <= hi]
    if len(pts) < 5:
        raise InsufficientPoints(f"{len(pts)} points in window, need >= 5")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0.0):
        raise NonPositiveValue("decay fit needs positive values")
    x = np.log1p(t)
    y = np.log(v)
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    return float(slope), float(math.sqrt(max(cov[0, 0], 0.0)))


def dispersive_window(x_width, v_width, dv, t_end):
    """Fit window [2.5 tau, 1.2 x_width / dv] for Gaussian data, capped at t_end.

    tau = x_width / v_width is the dispersion time: decay rates are asymptotic
    only from a few tau on.  Past 1.2 x_width / dv the velocity grid no longer
    resolves the width x_width / t of the slices f(t, x, .), and the discrete
    density stops dispersing.  The window is empty when the run ends before it
    opens.
    """
    return 2.5 * x_width / v_width, min(t_end, 1.2 * x_width / dv)


def null_structure_gain(plain_series, weighted_series, window=None):
    """slope(plain a_bar sup) - slope(weighted a_bar sup).

    The predicted gain min{2+gamma, 1} holds for d_x = d_v.  With a velocity
    axis that no spatial axis pairs with, the predicted gain is 0 (see
    coefficient_sup_norms).
    """
    sp, _ = fit_decay_rate(plain_series, window)
    sw, _ = fit_decay_rate(weighted_series, window)
    return sp - sw


def record_slabs(grid: Grid):
    """(rows, halo, inner) of each slab of the record's slab pass.

    rows is a slab of threads.slab_rows, a slice of the first spatial axis.
    halo widens rows by the rows that a first difference in x_1 reads,
    np.gradient's one-sided stencil at the box edges included, and inner
    picks rows out of halo.  With d_x = 0, one slab holds the field.
    """
    if grid.d_x == 0:
        return [(slice(None),) * 3]
    n = grid.n_x
    slabs = []
    for rows in slab_rows(grid):
        lo, hi = rows.start, rows.stop
        hlo, hhi = max(0, lo - 1), min(n, hi + 1)
        if lo == 0:
            hhi = max(hhi, min(n, 3))
        if hi == n:
            hlo = min(hlo, max(0, n - 3))
        slabs.append((rows, slice(hlo, hhi), slice(lo - hlo, hi - hlo)))
    return slabs


def sup_bounds(f: DistributionField, p, cells, null_weight):
    """Upper bounds on each of cells' null term and coefficient sups, shape (len(cells), 4).

    The columns are null_term_sup, a_bar_plain_sup, a_bar_weighted_sup and
    c_bar_sup of the cell alone.  With s = 2 + gamma, f+ = max(f_c, 0), and
    K_a, A = max |a_ij| and C = max |c| of coefficients.table_bounds:

        plain     2^(s/2) K_a dv^d sum_w <w>^s f+(w), as |a_ij[v - w]| <=
                  K_a <v - w>^s <= 2^(s/2) K_a <v>^s <w>^s (Peetre);
        weighted  A dv^d sum_w f+(w), both weights being at most 1;
        c         C dv^d sum_w f+(w);
        null      plain times max_v (sum_i |D2_ii f_c| + 2 sum_{i<j} |D_i D_j f_c|),
                  with the diffusion operator's own stencils on the raw f_c.

    cells is an index array of the cell axis and null_weight = <v>^s on the
    velocity axes, of shape (n_v,) * d_v.  The bounds are taken block by block
    on the pool.
    """
    grid = f.grid
    s = 2.0 + p.gamma
    k_a, a_max, c_max = table_bounds(grid, p)
    fv = cell_view(f.values, grid)
    scale = grid.dv ** grid.d_v
    v_axes = tuple(range(1, grid.d_v + 1))

    def block(bounds):
        raw = fv[cells[slice(*bounds)]]
        pos = np.maximum(raw, 0.0)
        plain = 2.0 ** (0.5 * s) * k_a * scale * np.sum(pos * null_weight, axis=v_axes)
        mass = scale * np.sum(pos, axis=v_axes)
        null = plain * np.max(diffusion_stencil_sum(raw, grid), axis=v_axes)
        return np.stack([null, plain, a_max * mass, c_max * mass], axis=1)

    parts = pool_map(block, cell_blocks(len(cells), block_cells(grid)))
    return np.concatenate([np.empty((0, 4)), *parts])


def _coefficient_sups(f: DistributionField, p, vb):
    """(null_term_sup, a_bar_plain_sup, a_bar_weighted_sup, c_bar_sup) of f, with vb = <v>.

    Each is the max over the stepper's cells (data_cells) of the cell's own,
    and the cells are convolved in rounds of pool_threads() blocks, in
    decreasing order of their largest sup_bounds relative to that column's
    largest.  After each round the cells whose every bound, times (1 +
    SUP_BOUND_MARGIN), is below the sups so far are dropped: they cannot
    attain one.  So the sups are bitwise those of a pass over every data cell.
    A field with no positive value has no data cell, and its sups are 0.
    """
    grid, t = f.grid, f.time
    fv = cell_view(f.values, grid)
    vbv = vb.reshape((grid.n_v,) * grid.d_v)  # broadcasts over a block of cells
    null_weight = vbv ** (2.0 + p.gamma)

    def sups(cells, coeffs):
        # the null term a_bar_ij D_ij f and the coefficient sups of one block
        diffusion = apply_collision_diffusion(fv[cells], coeffs, grid)
        xtb = bracket(grid.x_minus_tv_squared(t, cells))
        out = coefficient_sup_norms(coeffs, p.gamma, vbv, xtb)
        return (np.max(np.abs(diffusion) / null_weight),
                out["plain"], out["weighted_down"], out["c_sup"])

    cells = data_cells(f.values, grid)
    bounds = sup_bounds(f, p, cells, null_weight)
    top = np.max(bounds, axis=0, initial=0.0)
    share = np.divide(bounds, top, out=np.zeros_like(bounds), where=top > 0.0)
    order = np.argsort(-np.max(share, axis=1, initial=0.0), kind="stable")
    best = np.zeros(4)
    per_round = pool_threads() * block_cells(grid)
    while order.size:
        visit, order = np.sort(order[:per_round]), order[per_round:]
        blocks = coefficient_pass(f, p, "ac", sups, cells[visit])
        best = np.maximum(best, np.max(np.reshape(blocks, (-1, 4)), axis=0))
        order = order[np.any(bounds[order] * (1.0 + SUP_BOUND_MARGIN) >= best, axis=1)]
    return tuple(float(v) for v in best)


def make_record(f: DistributionField, p, d0, sharp0: DistributionField, acc, clipped_mass):
    """The DiagnosticRecord of f.

    p is the kernel, d0 the Gaussian weight's constant, sharp0 the f-sharp the
    record is compared with, and acc the ENormAccumulator of the run, which
    this record adds its E-norm integrand to.  Three passes on the pool of
    threads do the per-cell work, and no weight, derivative, coefficient or
    f-sharp is built over the whole field:

    - the slab pass (record_slabs) takes g, <x - t v>^power, the derivatives
      of RECORD_ORDERS, their Z maxima and E-norms, the L2_t integrand's norm,
      each cell's velocity moments and H, slab by slab.  |x - t v|^2 is
      Grid.x_minus_tv_squared on the slab's cells, so at d_x < d_v the weight
      and its powers have length 1 on the unpaired velocity axes;
    - the f-sharp difference sup is taken on each slab of the first velocity
      axis (threads.velocity_slab_rows) as the pullback shifts it
      (transport.shift_chunk), the difference in the shift's own output;
    - the coefficient passes take the null term and the coefficient sups
      (_coefficient_sups): over the stepper's cells (data_cells), in rounds,
      convolving only the cells whose bounds (sup_bounds) can reach the sups
      found so far.

    The calling thread combines maxima and sums.  Every field but E_norms and
    h_value is bitwise independent of the slab size; those two sum the slabs'
    pieces and move with it within 1e-14 relative.
    """
    grid, t = f.grid, f.time
    if sharp0.grid != grid:
        raise GridMismatch("sharp fields live on different grids")
    hp = hierarchy_params(p.gamma)
    vol, xvol = grid.cell_volume, grid.dx ** grid.d_x
    vb = bracket(grid.v_squared())
    gw = gaussian_weight_field(f, WeightSpec.from_gamma(p.gamma, d0))
    row_cells = grid.n_x ** max(grid.d_x - 1, 0)  # flat cells per row of x_1

    def slab(bounds):
        rows, halo, inner = bounds
        fs = f.values[rows]
        g = f.values[halo] * gw
        # the slab's rows as a range of flat cells; at d_x = 0 its one cell
        cells = slice(rows.start * row_cells, rows.stop * row_cells) if grid.d_x else rows
        xt2 = grid.x_minus_tv_squared(t, cells)
        xtb = bracket(xt2.reshape(fs.shape[:grid.d_x] + xt2.shape[1:]))
        z_norms, e_norms = {}, {}
        power = None
        for key, dg in record_derivatives(g, grid, t, inner):
            nb, ns = RECORD_ORDERS[key]
            if power != hp.M_max + 5 - ns:  # the orders come sorted by |sigma|
                power = hp.M_max + 5 - ns
                xw = xtb ** power
                # the Z weight <v>^(1-theta_k) xw, theta_k = 0 at k = |beta| + |sigma| <= 1
                w = vb * xw
            wdg = w * dg
            z_norms[key] = (1.0 + t) ** (-hp.zeta[nb + ns] - nb) * float(np.max(np.abs(wdg)))
            e_norms[key] = e_norm(dg, xw, t, nb, vol)
            if key == "abs":
                # ||<v> <x-tv>^(M_max+5) g||, whose square the L2_t integrand takes
                e_norms["abs_Lt2"] = math.sqrt(float(np.sum(wdg ** 2)) * vol)
        return velocity_moments(fs, grid), z_norms, e_norms, h_functional(f, rows)

    def sharp_sup(chunk):
        # the pullback f(t, x + t v, v) on one slab of the first velocity
        # axis, which takes the difference in place unless it is a view of f
        cells = (slice(None),) * grid.d_x + (chunk,)
        pulled = shift_chunk(f, -t, chunk)
        own = not np.may_share_memory(pulled, f.values)
        diff = np.subtract(pulled, sharp0.values[cells], out=pulled if own else None)
        return _sharp_sup(diff, vb[cells], grid)

    # one pass on the pool for both, so that neither waits on the other's last task
    chunks = velocity_slab_rows(grid)
    results = pool_map(lambda job: job[0](job[1]),
                       [(sharp_sup, c) for c in chunks] + [(slab, b) for b in record_slabs(grid)])
    sharp_sups, slabs = results[:len(chunks)], results[len(chunks):]
    moments, z_parts, e_parts, h_parts = zip(*slabs)
    rho, m, e = (np.concatenate(parts) if grid.d_x else parts[0] for parts in zip(*moments))
    z_norms = {key: max(part[key] for part in z_parts) for key in z_parts[0]}
    e_norms = {key: math.hypot(*(part[key] for part in e_parts)) for key in e_parts[0]}
    acc.add(t, (1.0 + t) ** (-1.0 - hp.delta) * e_norms["abs_Lt2"] ** 2)
    e_norms["abs_Lt2"] = acc.value

    null_term, plain, weighted, c_sup = _coefficient_sups(f, p, vb)
    return DiagnosticRecord(
        t=t,
        mass=float(np.sum(rho)) * xvol,
        momentum=list(m.reshape(-1, grid.d_v).sum(axis=0) * xvol),
        energy=float(np.sum(e)) * xvol,
        rho_sup=float(np.max(np.abs(rho))),
        m_sup=float(np.max(np.abs(m))),
        e_sup=float(np.max(np.abs(e))),
        E_norms=e_norms,
        Z_norms=z_norms,
        a_bar_plain_sup=plain,
        a_bar_weighted_sup=weighted,
        c_bar_sup=c_sup,
        null_term_sup=null_term,
        sharp_diff_vs_t0=max(sharp_sups),
        h_value=sum(h_parts),
        clipped_mass=clipped_mass,
    )


def _sharp_sup(diff, vb, grid: Grid):
    """sup <v>^2 <x>^2 |diff| over every x cell, with vb = <v> on diff's velocity cells.

    Overwrites diff.  The weight is built one row of the first velocity axis
    at a time, so its temporaries are one row's.
    """
    # plain <x> on the spatial axes: the terms of x_minus_tv_squared(0.0)
    xb = bracket(sum(grid.wrap_x(x) ** 2 for x in grid.x_mesh()))
    np.abs(diff, out=diff)
    for j in range(diff.shape[grid.d_x]):
        row = (slice(None),) * grid.d_x + (slice(j, j + 1),)
        diff[row] *= vb[row] ** 2 * xb ** 2.0
    return float(np.max(diff))


def sharp_cauchy_diff(f_sharp_1: DistributionField, f_sharp_2: DistributionField):
    """sup <v>^2 <x>^2 |f_sharp(T1) - f_sharp(T2)| on a common grid."""
    if f_sharp_1.grid != f_sharp_2.grid:
        raise GridMismatch("sharp fields live on different grids")
    grid = f_sharp_1.grid
    return _sharp_sup(f_sharp_1.values - f_sharp_2.values, bracket(grid.v_squared()), grid)
