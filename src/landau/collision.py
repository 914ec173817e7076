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


def divergence_row_sums(coeffs: CoefficientFields, grid: Grid):
    """sum_q |A_pq| at each point p of coeffs' arrays, A the matrix of apply_collision_divergence.

    Q = A f at frozen coefficients couples each velocity point to the points
    of its 3^d_v box that differ from it along at most two axes.  Each
    neighbour's coefficient is collected from the face values of a_bar and
    b_bar, the normal and cross terms and the drift of both faces of every
    axis, with np.gradient's one-sided edges and no boundary faces, before its
    magnitude is taken: the cross terms of opposite faces nearly cancel.  The
    largest row sum bounds the spectral radius of A (Gershgorin).

    The arrays are taken flat, so that a face is a shift by the axis' stride,
    and a face array holds 0 on the rows p with p_a = n_v - 1, which have no
    face to p + e_a.  The temporaries are one array of coeffs' size per
    neighbour: 9 at d_v = 2 and 19 at d_v = 3.
    """
    dv, d, n = grid.dv, grid.d_v, grid.n_v
    a_bar, b_bar = coeffs.a_bar, coeffs.b_bar
    shape = a_bar[0][0].shape
    nd = len(shape)
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=d) if np.count_nonzero(o) <= 2]
    rows = np.zeros((len(offsets), a_bar[0][0].size))
    index = {o: k for k, o in enumerate(offsets)}

    def plane(a, at):
        # the points p with p_a = at, in a flat array's grid view
        return (slice(None),) * _vaxis(grid, a, nd) + (at,)

    def face(comp, a, scale):
        # scale (comp[p] + comp[p + e_a]) at each p, 0 where p_a = n_v - 1
        stride = n ** (d - 1 - a)
        flat = comp.reshape(-1)
        out = np.zeros(flat.size)
        np.add(flat[:-stride], flat[stride:], out=out[:-stride])
        out *= scale
        out.reshape(shape)[plane(a, n - 1)] = 0.0
        return out

    def add(offset, value, a=None, op=np.add):
        # rows[offset][p] op= value[p], or value[p - e_a], the face of p's lower neighbour
        row = rows[index[tuple(offset)]]
        if a is not None:
            stride = n ** (d - 1 - a)
            row, value = row[stride:], value[:-stride]
        op(row, value, out=row)

    unit = np.eye(d, dtype=int)
    for a in range(d):
        e = unit[a]
        # G[p + e_a / 2] / dv = normal (f[p + e_a] - f[p]) - drift (f[p] + f[p + e_a])
        # + cross terms, with the face values at p; q[p] adds it and q[p + e_a]
        # subtracts it
        normal = face(a_bar[a][a], a, 0.5 / dv ** 2)
        drift = face(b_bar[a], a, 0.25 / dv)
        ahead, behind = normal - drift, np.add(normal, drift, out=normal)
        add(e, ahead)
        add(0 * e, behind, op=np.subtract)
        add(0 * e, ahead, a, np.subtract)
        add(-e, behind, a)
        for j in range(d):
            if j == a:
                continue
            # the cross terms: cross (g_j[p] + g_j[p + e_a]), g_j = np.gradient along j
            cross = face(a_bar[a][j], a, 0.25 / dv)
            for s in (-1, 0, 1):
                # the weight of f[p + s e_j] in g_j[p]: s / (2 dv) inside, and
                # one-sided (edge_order=1) at p_j = 0 and n_v - 1
                term = cross * (0.5 * s / dv)
                for at, w in ((0, (0.0, -1.0, 1.0)[s + 1]), (n - 1, (-1.0, 1.0, 0.0)[s + 1])):
                    edge = plane(j, at)
                    term.reshape(shape)[edge] = (w / dv) * cross.reshape(shape)[edge]
                add(s * unit[j], term)
                add(e + s * unit[j], term)
                add(s * unit[j], term, a, np.subtract)
                add(-e + s * unit[j], term, a, np.subtract)
    np.abs(rows, out=rows)
    return np.sum(rows, axis=0).reshape(shape)


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
