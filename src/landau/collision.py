"""Landau collision operator in divergence and nonconservative form.

Divergence form (the evolution default): Q = div_v(a_bar grad_v f - b_bar f),
discretized with face-centered fluxes (arithmetic-mean coefficients, compact
normal differences) and zero flux at the velocity-box boundary, which makes
the discrete mass of Q vanish by telescoping.

Nonconservative form (cross-validation): Q = a_bar_ij D2_ij f - c_bar f with
centered second differences, the analytical form of the equation; its
diffusion term a_bar_ij D2_ij f alone is the diagnostics' null term.
"""

import itertools

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


def _stencil(coeffs: CoefficientFields, grid: Grid):
    """The offsets o along at most two axes, and rows[k][p] = A[p, p + offsets[k]], Q = A f.

    The flux through the face p + e_a / 2 weighs f at the offsets 0 and e_a (normal
    difference, drift) and s e_j, e_a + s e_j, s = -1, 0, 1 (cross terms, np.gradient along j).
    A weight w adds w / dv to A[p, p + o] and takes it from A[p + e_a, p + o].  The arrays
    are flat, so that p + e_a is a shift by a stride; no face leads out of the box.
    """
    a_bar, b_bar, dv, d, n = coeffs.a_bar, coeffs.b_bar, grid.dv, grid.d_v, grid.n_v
    shape = a_bar[0][0].shape
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=d) if np.count_nonzero(o) <= 2]
    # rows by key, an offset's digits plus 1 in base 3: the key of o + s e_a is key(o) + s unit[a]
    unit = [3 ** (d - 1 - a) for a in range(d)]
    index = {int(np.dot(np.add(o, 1), unit)): k for k, o in enumerate(offsets)}
    rows = np.zeros((len(offsets), a_bar[0][0].size))
    zero, edges = sum(unit), slice(None, None, n - 1)
    # dv times np.gradient's weight of f[p + s e_j] in g_j[p]: s / 2 inside, and
    # one-sided (edge_order=1) at p_j = 0 and n_v - 1, by s + 1 and the edge
    edge_weights = np.array([[0.0, -1.0], [-1.0, 1.0], [1.0, 0.0]]) / dv

    def at(x, a, k):  # the flat array x at the points p with p_a = k, an index or a slice
        return x.reshape(shape)[(Ellipsis, k) + (slice(None),) * (d - 1 - a)]

    for a in range(d):
        stride = n ** (d - 1 - a)

        def face(comp, scale):
            # scale (comp[p] + comp[p + e_a]), 0 at p_a = n_v - 1
            out, flat = np.empty(comp.size), comp.reshape(-1)
            np.multiply(np.add(flat[:-stride], flat[stride:], out=out[:-stride]), scale,
                        out=out[:-stride])
            at(out, a, -1)[...] = 0.0
            return out

        def scatter(o, w):
            rows[index[o]] += w
            row = rows[index[o - unit[a]]][stride:]
            row -= w[:-stride]

        # G_a / dv = normal (f[p + e_a] - f[p]) + drift (f[p] + f[p + e_a])
        # + cross (g_j[p] + g_j[p + e_a]) for each j != a
        normal = face(a_bar[a][a], 0.5 / dv ** 2)
        drift = face(b_bar[a], -0.25 / dv)
        scatter(zero, drift - normal)
        scatter(zero + unit[a], np.add(normal, drift, out=normal))
        for j in (j for j in range(d) if j != a):
            cross = face(a_bar[a][j], 0.25 / dv)
            ends = edge_weights.reshape((3, 2) + (1,) * (d - 1 - j))
            for s in (-1, 0, 1):
                term = cross * (0.5 * s / dv)
                at(term, j, edges)[...] = at(cross, j, edges) * ends[s + 1]
                scatter(zero + s * unit[j], term)
                scatter(zero + unit[a] + s * unit[j], term)
    return offsets, rows.reshape((len(offsets),) + shape)


def divergence_row_sums(coeffs: CoefficientFields, grid: Grid):
    """sum_q |A_pq| at each point p of coeffs' arrays, A the matrix of apply_collision_divergence.

    Each neighbour's weight is summed over every face in _stencil before its magnitude is taken,
    as the cross terms of opposite faces nearly cancel.  The largest bounds rho(A) (Gershgorin).
    """
    rows = _stencil(coeffs, grid)[1]
    return np.sum(np.abs(rows, out=rows), axis=0)


def _second_difference(f, dv, axis):
    """Centered second difference with zero extension past the boundary."""
    lo = (slice(None),) * axis + (slice(0, -1),)
    hi = (slice(None),) * axis + (slice(1, None),)
    out = -2.0 * f
    out[hi] += f[lo]
    out[lo] += f[hi]
    return out / dv ** 2


def _diffusion_stencils(f, grid: Grid):
    """(i, j, D_i D_j f) for i <= j, the centred differences of a_bar_ij D2_ij f.

    D_i D_i is the second difference with zero extension, and D_i D_j (i < j)
    the centred gradient along i of the centred gradient along j, in the order
    apply_collision_diffusion adds them.
    """
    dv, nd = grid.dv, f.ndim
    grads = {j: _centered_gradient(f, dv, _vaxis(grid, j, nd)) for j in range(1, grid.d_v)}
    for i in range(grid.d_v):
        yield i, i, _second_difference(f, dv, _vaxis(grid, i, nd))
        for j in range(i + 1, grid.d_v):
            yield i, j, _centered_gradient(grads[j], dv, _vaxis(grid, i, nd))


def apply_collision_diffusion(f_slice, coeffs: CoefficientFields, grid: Grid):
    """a_bar_ij D2_ij f with centered differences."""
    f = np.asarray(f_slice, dtype=float)
    q = np.zeros_like(f)
    for i, j, stencil in _diffusion_stencils(f, grid):
        q += (coeffs.a_bar[i][i] if i == j else 2.0 * coeffs.a_bar[i][j]) * stencil
    return q


def diffusion_stencil_sum(f_slice, grid: Grid):
    """sum_i |D2_ii f| + 2 sum_{i<j} |D_i D_j f|, the stencils of apply_collision_diffusion.

    |a_bar_ij D2_ij f| is at most max_ij |a_bar_ij| times this, point by point.
    """
    f = np.asarray(f_slice, dtype=float)
    out = np.zeros_like(f)
    for i, j, stencil in _diffusion_stencils(f, grid):
        out += np.abs(stencil) if i == j else 2.0 * np.abs(stencil)
    return out


def apply_collision_nonconservative(f_slice, coeffs: CoefficientFields, grid: Grid):
    """a_bar_ij D2_ij f - c_bar f with centered differences."""
    f = np.asarray(f_slice, dtype=float)
    return apply_collision_diffusion(f, coeffs, grid) - coeffs.c_bar * f


def h_functional(f: DistributionField, rows=slice(None)):
    """H = sum f log f dx dv with the convention 0 log 0 = 0.

    rows, a slice of the first spatial axis, restricts the sum to those rows.
    """
    vals = f.values[rows]
    pos = vals[vals > 0.0]
    return float(np.sum(pos * np.log(pos))) * f.grid.cell_volume
