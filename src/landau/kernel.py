"""Pointwise Landau collision kernel and its calculus.

The kernel is the projection matrix a_ij(z) = (delta_ij - z_i z_j/|z|^2) |z|^(gamma+2)
for a velocity difference z, together with its first divergence b_i = (1-d)|z|^gamma z_i
and double divergence c_d = -(d-1)(d+gamma)|z|^gamma.  Everything is generalized to
velocity dimension d in {2, 3}; at d = 3 the contraction constant reduces to the
classical -2(gamma+3).
"""

from dataclasses import dataclass

import numpy as np

from .errors import GammaOutOfRange, SingularPoint

# Adaptive cell-average quadrature controls.
QUAD_REL_TOL = 1e-8
QUAD_MAX_DEPTH = 24
# Nodes per kernel call of the quadrature.  A level's boxes are evaluated in
# chunks of whole boxes, which bounds the temporaries: building the d = 3,
# n_v = 5, gamma = -1.9 tables peaks 2 MB higher in 2^12-node chunks, 3.5 MB
# in 2^13 (15% faster) and 29 MB in 2^16.
QUAD_CHUNK_NODES = 2 ** 12
SINGULAR_CELL_RADIUS = 2.0  # in units of max spacing


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponent and velocity dimension."""

    gamma: float
    d: int

    def __post_init__(self):
        if not (-2.0 < self.gamma < 0.0):
            raise GammaOutOfRange(f"gamma={self.gamma} not in (-2, 0)")
        if self.d not in (2, 3):
            raise ValueError(f"velocity dimension d={self.d} not in {{2, 3}}")
        # gamma > -d holds automatically on (-2, 0) with d >= 2, so |z|^gamma
        # is locally integrable and cell averages are finite.


def kernel_matrix(z, p: KernelParams):
    """Projection kernel a_ij(z), vectorized over leading axes of z.

    z has shape (..., d); the result has shape (..., d, d).  The z = 0 value is
    the continuous limit, the zero matrix (gamma + 2 > 0).
    """
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z * z, axis=-1)
    safe = np.where(r2 > 0.0, r2, 1.0)
    proj = np.eye(p.d) - z[..., :, None] * z[..., None, :] / safe[..., None, None]
    amp = np.where(r2 > 0.0, safe ** (0.5 * (p.gamma + 2.0)), 0.0)
    return amp[..., None, None] * proj


def kernel_divergence(z, p: KernelParams):
    """Row divergence b_i(z) = d/dz_j a_ij = (1-d)|z|^gamma z_i."""
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 == 0.0):
        if p.gamma <= -1.0:
            raise SingularPoint("kernel divergence unbounded at z=0")
        amp = np.where(r2 > 0.0, r2 ** (0.5 * p.gamma), 0.0)
    else:
        amp = r2 ** (0.5 * p.gamma)
    return (1.0 - p.d) * amp[..., None] * z


def kernel_c(z, p: KernelParams):
    """Double divergence c_d(z) = -(d-1)(d+gamma)|z|^gamma."""
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 == 0.0):
        raise SingularPoint("kernel contraction singular at z=0")
    return -(p.d - 1.0) * (p.d + p.gamma) * r2 ** (0.5 * p.gamma)


# Component selector -> (pointwise kernel, homogeneity degree minus gamma).
_COMPONENTS = {
    "matrix": (kernel_matrix, 2.0),
    "divergence": (kernel_divergence, 1.0),
    "c": (kernel_c, 0.0),
}


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)   # mapped to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _corners(d, base):
    """The base^d multi-indices in meshgrid "ij" order, shape (base^d, d)."""
    return np.array(np.meshgrid(*([np.arange(base)] * d), indexing="ij")).reshape(d, -1).T


def _box_rules(f, lo, hi, sign, ncomp):
    """Tensor 4-point Gauss-Legendre estimates of the integrals over the boxes [lo, hi].

    lo, hi and sign have shape (boxes, d); f is evaluated at sign * z, so a box
    reflected into the positive orthant integrates the original integrand.
    The kernel is called on whole boxes, QUAD_CHUNK_NODES nodes at a time (at
    least one box).  Each box's estimate is the same for any chunking.
    """
    m, d = lo.shape
    node = _corners(d, _GL_NODES.size)
    w = _GL_WEIGHTS
    for _ in range(d - 1):
        w = np.multiply.outer(w, _GL_WEIGHTS)
    w = w.reshape(-1)
    per_call = max(1, QUAD_CHUNK_NODES // len(node))
    out = np.empty((m, ncomp))
    for start in range(0, m, per_call):
        s = slice(start, start + per_call)
        axes = lo[s, None, :] + (hi[s] - lo[s])[:, None, :] * _GL_NODES[:, None]
        pts = np.stack([axes[:, node[:, a], a] for a in range(d)], axis=-1) * sign[s, None, :]
        vals = f(pts.reshape(-1, d)).reshape(len(pts), len(node), ncomp)
        # each component's weighted nodes contiguous: np.sum then adds them
        # pairwise, in the order of the depth-first reference in the tests
        terms = np.multiply(vals.transpose(0, 2, 1), w, order="C")
        out[s] = np.sum(terms, axis=2) * np.prod(hi[s] - lo[s], axis=1)[:, None]
    return out


def _adaptive_boxes(f, lo, hi, sign, ncomp):
    """Adaptive quadrature of f over each root box [lo, hi] (integrals, not averages).

    The integrand must be finite on the closed boxes.  Breadth first, one level
    at a time: every open box compares its tensor Gauss-Legendre estimate with
    the sum over its 2^d children and is split where they disagree.  A root's
    absolute budget is QUAD_REL_TOL times its largest fine component, and each
    level splits a box's budget evenly among its children, so a root's total
    error stays below QUAD_REL_TOL times its integral.  A child's estimate is
    its coarse estimate at the next level.  The leaves are summed in
    depth-first order: each box adds its children's values in corner order.
    """
    d = lo.shape[1]
    kids = 2 ** d
    corners = _corners(d, 2)
    coarse = _box_rules(f, lo, hi, sign, ncomp)
    tol = None
    levels = []
    for depth in range(QUAD_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        lo = (lo[:, None, :] + corners * half[:, None, :]).reshape(-1, d)
        hi = lo + np.repeat(half, kids, axis=0)
        sign = np.repeat(sign, kids, axis=0)
        est = _box_rules(f, lo, hi, sign, ncomp)
        fine = _sum_children(est, kids)
        if tol is None:
            tol = QUAD_REL_TOL * (np.max(np.abs(fine), axis=1) + 1e-300)
        err = np.max(np.abs(fine - coarse), axis=1)
        split = ~(err <= tol) & (depth < QUAD_MAX_DEPTH)
        levels.append((fine, split))
        if not split.any():
            break
        # the children of the split boxes, in (box, corner) order
        child = np.repeat(split, kids)
        lo, hi, sign, coarse = lo[child], hi[child], sign[child], est[child]
        tol = np.repeat(tol[split] / kids, kids)
    value = levels[-1][0]
    for fine, split in reversed(levels[:-1]):
        fine[split] = _sum_children(value, kids)
        value = fine
    return value


def _sum_children(values, kids):
    """Each run of kids rows of values summed in order from 0, shape (len // kids, ncomp)."""
    values = values.reshape(-1, kids, values.shape[-1])
    total = np.zeros((len(values), values.shape[-1]))
    for k in range(kids):
        total = total + values[:, k]
    return total


def cell_averages(centers, spacing, p: KernelParams, which="matrix"):
    """Exact cell averages of the chosen kernel component over grid cells.

    centers has shape (cells, d) and spacing is a scalar or one value per
    axis.  Returns shape (cells,) + the component's shape.  Cells within
    SINGULAR_CELL_RADIUS spacings of z = 0 are integrated by one adaptive
    quadrature (_adaptive_boxes) over all their boxes at once; a cell holding
    the origin is split there into up to 2^d boxes, each reflected into the
    positive orthant with its corner singularity summed in closed form via
    homogeneity.  Farther cells use the midpoint value, accurate to
    O(spacing^2).
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, p.d)
    d = p.d
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (d,)).copy()
    if np.any(spacing <= 0.0):
        raise ValueError("cell spacing must be positive")
    if which not in _COMPONENTS:
        raise ValueError(f"unknown kernel component selector {which!r}")
    kernel, hom_shift = _COMPONENTS[which]
    shape = np.shape(kernel(np.ones(d), p))
    ncomp = int(np.prod(shape))

    def f(z):
        # Quadrature nodes are interior to boxes that at most touch z = 0 at
        # a corner, and far cells are evaluated at their center, so z != 0.
        return kernel(z, p).reshape(len(z), ncomp)

    out = np.empty((len(centers), ncomp))
    near = np.linalg.norm(centers, axis=1) < SINGULAR_CELL_RADIUS * np.max(spacing)
    if not near.all():
        out[~near] = f(centers[~near])
    lo = centers - 0.5 * spacing
    hi = centers + 0.5 * spacing
    origin = near & np.all(lo <= 0.0, axis=1) & np.all(hi >= 0.0, axis=1)
    whole = np.flatnonzero(near & ~origin)

    # The roots: each whole cell, then the 2^d - 1 shell boxes of each corner
    # box [0, extent] of each cell holding the origin.  Scaling a corner box by
    # 1/2 multiplies its integral by 2^-(d+p), so the corner integral is its
    # shell's divided by 1 - 2^-(d+p).  The divergence is odd under
    # reflection, which the sign-composed evaluator accounts for.
    orthants = _corners(d, 2)
    roots = [(lo[whole], hi[whole], np.ones((len(whole), d)))]
    shells = []  # per cell holding the origin, the root rows of each corner box's shell
    start = len(whole)
    for cell in np.flatnonzero(origin):
        rows = []
        for s in orthants:
            extent = np.where(s == 1, hi[cell], -lo[cell])
            if np.any(extent <= 0.0):
                continue
            half = 0.5 * extent
            shell_lo = orthants[1:] * half  # all but the inner half-box
            sign = np.broadcast_to(np.where(s == 1, 1.0, -1.0), shell_lo.shape)
            roots.append((shell_lo, shell_lo + half, sign))
            rows.append(slice(start, start + len(shell_lo)))
            start += len(shell_lo)
        shells.append(rows)
    integrals = _adaptive_boxes(f, *map(np.concatenate, zip(*roots)), ncomp)

    vol = float(np.prod(spacing))
    out[whole] = integrals[:len(whole)] / vol
    scale = 1.0 - 2.0 ** (-(d + (p.gamma + hom_shift)))
    for cell, rows in zip(np.flatnonzero(origin), shells):
        corner = [_sum_children(integrals[r], len(orthants) - 1)[0] / scale for r in rows]
        out[cell] = _sum_children(np.array(corner), len(corner))[0] / vol
    return out.reshape((len(centers),) + shape)


def cell_averaged_kernel(cell_center, spacing, p: KernelParams, which="matrix"):
    """Exact cell average of the chosen kernel component over one grid cell.

    The one-cell call of cell_averages: an array of the component's shape, or
    a float for "c".
    """
    avg = cell_averages(np.atleast_1d(np.asarray(cell_center, dtype=float))[None, :],
                        spacing, p, which)[0]
    return avg if avg.shape else float(avg)


def contraction_identities(v, v_star, p: KernelParams):
    """Check the exact contractions of the kernel with v and with v (x) v.

    Returns both sides of a(v - v*) v, the full contraction a : v v, and the
    Pythagorean-type bound |v|^2|v*|^2 - (v.v*)^2 <= 2|v - v*|^2 |v*|^2.
    """
    v = np.asarray(v, dtype=float)
    vs = np.asarray(v_star, dtype=float)
    z = v - vs
    r2 = float(np.dot(z, z))
    if r2 == 0.0:
        raise SingularPoint("contractions need v != v_star")
    amp = r2 ** (0.5 * p.gamma)
    a = kernel_matrix(z, p)
    av = a @ v
    av_expected = amp * (np.dot(v, z) * vs - np.dot(vs, z) * v)
    avv = float(v @ a @ v)
    gram = float(np.dot(v, v) * np.dot(vs, vs) - np.dot(v, vs) ** 2)
    avv_expected = amp * gram
    bound = 2.0 * r2 * float(np.dot(vs, vs))
    return {
        "a_dot_v": av,
        "a_dot_v_expected": av_expected,
        "a_vv": avv,
        "a_vv_expected": avv_expected,
        "pythagorean_lhs": gram,
        "pythagorean_rhs": bound,
        "pythagorean_ok": gram <= bound * (1.0 + 1e-12) + 1e-300,
    }
