"""Landau collision operator in divergence and nonconservative form.

Divergence form (the evolution default): Q = div_v(a_bar grad_v f - b_bar f),
discretized with face-centered fluxes (arithmetic-mean coefficients, compact
normal differences) and zero flux at the velocity-box boundary, which makes
the discrete mass of Q vanish by telescoping.

Nonconservative form (cross-validation): Q = a_bar_ij D2_ij f - c_bar f with
centered second differences, the analytical form of the equation.
"""

import numpy as np

from .coefficients import CoefficientFields
from .phase_state import DistributionField, Grid


def _vaxis(grid: Grid, a, ndim):
    """Array axis index of velocity axis a for an array of given ndim."""
    return ndim - grid.d_v + a


def _centered_gradient(f, dv, axis):
    return np.gradient(f, dv, axis=axis, edge_order=1)


def apply_collision_divergence(f_slice, coeffs: CoefficientFields, grid: Grid):
    """Flux-form collision operator; exact discrete mass conservation."""
    f = np.asarray(f_slice, dtype=float)
    dv = grid.dv
    d = grid.d_v
    nd = f.ndim
    a_bar = coeffs.a_bar
    b_bar = coeffs.b_bar

    grads = [_centered_gradient(f, dv, _vaxis(grid, j, nd)) for j in range(d)]
    q = np.zeros_like(f)
    for a in range(d):
        ax = _vaxis(grid, a, nd)
        lo = [slice(None)] * nd
        hi = [slice(None)] * nd
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)

        # Interior face flux G_a between consecutive cells along axis a.
        g_face = np.zeros_like(f[lo])
        for j in range(d):
            a_aj = a_bar[a][j]
            a_face = 0.5 * (a_aj[lo] + a_aj[hi])
            if j == a:
                df = (f[hi] - f[lo]) / dv
            else:
                df = 0.5 * (grads[j][lo] + grads[j][hi])
            g_face += a_face * df
        b_a = b_bar[a]
        g_face -= 0.5 * (b_a[lo] + b_a[hi]) * 0.5 * (f[lo] + f[hi])

        # Divergence with zero-flux boundary faces.
        q += np.diff(g_face, axis=ax, prepend=0, append=0) / dv
    return q


def _second_difference(f, dv, axis):
    """Centered second difference with zero extension past the boundary."""
    out = (-2.0 * f + np.roll(f, 1, axis=axis) + np.roll(f, -1, axis=axis)) / dv ** 2
    first = [slice(None)] * f.ndim
    last = [slice(None)] * f.ndim
    first[axis] = 0
    last[axis] = -1
    nb_first = [slice(None)] * f.ndim
    nb_last = [slice(None)] * f.ndim
    nb_first[axis] = 1
    nb_last[axis] = -2
    out[tuple(first)] = (-2.0 * f[tuple(first)] + f[tuple(nb_first)]) / dv ** 2
    out[tuple(last)] = (-2.0 * f[tuple(last)] + f[tuple(nb_last)]) / dv ** 2
    return out


def apply_collision_nonconservative(f_slice, coeffs: CoefficientFields, grid: Grid):
    """a_bar_ij D2_ij f - c_bar f with centered differences."""
    f = np.asarray(f_slice, dtype=float)
    dv = grid.dv
    d = grid.d_v
    nd = f.ndim
    q = -coeffs.c_bar * f
    grads = [_centered_gradient(f, dv, _vaxis(grid, j, nd)) for j in range(d)]
    for i in range(d):
        q += coeffs.a_bar[i][i] * _second_difference(f, dv, _vaxis(grid, i, nd))
        for j in range(i + 1, d):
            cross = _centered_gradient(grads[j], dv, _vaxis(grid, i, nd))
            q += 2.0 * coeffs.a_bar[i][j] * cross
    return q


def h_functional(f: DistributionField):
    """H = sum f log f dx dv with the convention 0 log 0 = 0."""
    vals = f.values
    pos = vals > 0.0
    return float(np.sum(vals[pos] * np.log(vals[pos]))) * f.grid.cell_volume
