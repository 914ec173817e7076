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

from .coefficients import coefficient_sup_norms, compute_coefficients
from .collision import apply_collision_diffusion, h_functional
from .errors import GammaOutOfRange, GridMismatch, InsufficientPoints, NonPositiveValue
from .phase_state import DistributionField, WeightSpec, bracket, to_g
from .transport import pullback_sharp

# The record's derivatives d_x^alpha d_v^beta Y^sigma of g, each with its
# NDJSON key: (key, alpha, beta, sigma).
RECORD_ORDERS = (("abs", (), (), ()), ("ab1s", (), (1,), ()), ("abs1", (), (), (1,)))


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


def _diff(values, spacing, axis, order):
    out = values
    for _ in range(order):
        out = np.gradient(out, spacing, axis=axis, edge_order=2)
    return out


def apply_derivatives(f: DistributionField, alpha, beta, sigma):
    """d_x^alpha d_v^beta Y^sigma of a field, Y_a = t d_x_a + d_v_a.

    alpha indexes spatial axes (length d_x), beta and sigma velocity axes
    (length d_v); for an axis without a spatial partner, Y reduces to d_v.
    Centered differences throughout.
    """
    grid = f.grid
    alpha = tuple(alpha) + (0,) * (grid.d_x - len(tuple(alpha)))
    beta = tuple(beta) + (0,) * (grid.d_v - len(tuple(beta)))
    sigma = tuple(sigma) + (0,) * (grid.d_v - len(tuple(sigma)))
    out = f.values
    for a, order in enumerate(sigma):
        for _ in range(order):
            term = _diff(out, grid.dv, grid.d_x + a, 1)
            if a < grid.d_x:
                term = term + f.time * _diff(out, grid.dx, a, 1)
            out = term
    for a, order in enumerate(beta):
        if order:
            out = _diff(out, grid.dv, grid.d_x + a, order)
    for a, order in enumerate(alpha):
        if order:
            out = _diff(out, grid.dx, a, order)
    return out


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

    Arguments as in z_norm.
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


def null_structure_gain(plain_series, weighted_series, window=None):
    """slope(plain a_bar sup) - slope(weighted a_bar sup).

    The predicted gain min{2+gamma, 1} holds for d_x = d_v.  With a velocity
    axis that no spatial axis pairs with, the predicted gain is 0 (see
    coefficient_sup_norms).
    """
    sp, _ = fit_decay_rate(plain_series, window)
    sw, _ = fit_decay_rate(weighted_series, window)
    return sp - sw


def make_record(f: DistributionField, p, d0, sharp0: DistributionField, acc, clipped_mass):
    """The DiagnosticRecord of f.

    p is the kernel, d0 the Gaussian weight's constant, sharp0 the f-sharp the
    record is compared with, and acc the ENormAccumulator of the run, which
    this record adds its E-norm integrand to.  <v> and <x - t v> are built once
    and each derivative is taken once.  A zero field has zero coefficients, so
    its sups and null term are 0.
    """
    grid = f.grid
    hp = hierarchy_params(p.gamma)
    rho, m, e = velocity_moments(f.values, grid)
    xvol = grid.dx ** grid.d_x
    diff0 = sharp_cauchy_diff(pullback_sharp(f), sharp0)
    # In this order the weights do not coexist with the operator's temporaries,
    # and the coefficient fields are gone before the norms run.
    coeffs = compute_coefficients(f, p)
    diffusion = apply_collision_diffusion(f.values, coeffs, grid)
    vb = bracket(grid.v_squared())
    null_term = float(np.max(np.abs(diffusion) / vb ** (2.0 + p.gamma)))
    del diffusion
    xtb = bracket(grid.x_minus_tv_squared(f.time))
    sups = coefficient_sup_norms(coeffs, p.gamma, vb, xtb)
    del coeffs

    g = to_g(f, WeightSpec.from_gamma(p.gamma, d0))
    z_norms = {}
    e_norms = {}
    for key, alpha, beta, sigma in RECORD_ORDERS:
        k = sum(alpha) + sum(beta) + sum(sigma)
        dg = apply_derivatives(g, alpha, beta, sigma)
        xw = xtb ** (hp.M_max + 5 - sum(sigma))
        z_norms[key] = z_norm(dg, vb, xw, f.time, sum(beta), hp.zeta[k], hp.theta[k])
        e_norms[key] = e_norm(dg, xw, f.time, sum(beta), grid.cell_volume)
        if key == "abs":
            # the L2_t integrand ||(1+t)^(-1/2-delta/2) <v> <x-tv>^(M_max+5) g||^2
            acc.add(f.time, (1.0 + f.time) ** (-1.0 - hp.delta)
                    * float(np.sum((vb * xw * dg) ** 2)) * grid.cell_volume)
            e_norms["abs_Lt2"] = acc.value
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
        clipped_mass=clipped_mass,
    )


def sharp_cauchy_diff(f_sharp_1: DistributionField, f_sharp_2: DistributionField):
    """sup <v>^2 <x>^2 |f_sharp(T1) - f_sharp(T2)| on a common grid."""
    if f_sharp_1.grid != f_sharp_2.grid:
        raise GridMismatch("sharp fields live on different grids")
    grid = f_sharp_1.grid
    vb = bracket(grid.v_squared())
    xb = bracket(grid.x_minus_tv_squared(0.0))  # plain <x> at t = 0
    w = vb ** 2 * xb ** 2.0
    return float(np.max(w * np.abs(f_sharp_1.values - f_sharp_2.values)))
