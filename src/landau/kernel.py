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


def _box_rule(f, lo, hi):
    """Tensor 4-point Gauss-Legendre estimate of the integral over [lo, hi]."""
    d = lo.size
    axes = [lo[a] + (hi[a] - lo[a]) * _GL_NODES for a in range(d)]
    pts = np.array(np.meshgrid(*axes, indexing="ij")).reshape(d, -1).T
    w = _GL_WEIGHTS
    for _ in range(d - 1):
        w = np.multiply.outer(w, _GL_WEIGHTS)
    vol = float(np.prod(hi - lo))
    return np.sum(w.reshape(-1, 1) * f(pts), axis=0) * vol


def _adaptive_box(f, lo, hi, ncomp, abs_tol=None, depth=0):
    """Adaptive quadrature of f over the box [lo, hi] (integral, not average).

    The integrand must be finite on the closed box.  Each box compares its
    tensor Gauss-Legendre estimate with the sum over its 2^d children and
    refines where they disagree; the absolute error budget is split among
    children so the total error stays below QUAD_REL_TOL times the integral.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    coarse = _box_rule(f, lo, hi)

    half = 0.5 * (hi - lo)
    corners = np.array(np.meshgrid(*([[0, 1]] * d), indexing="ij")).reshape(d, -1).T
    fine = np.zeros(ncomp)
    for s in corners:
        clo = lo + s * half
        fine = fine + _box_rule(f, clo, clo + half)

    if abs_tol is None:
        abs_tol = QUAD_REL_TOL * (np.max(np.abs(fine)) + 1e-300)
    err = np.max(np.abs(fine - coarse))
    if depth >= QUAD_MAX_DEPTH or err <= abs_tol:
        return fine
    total = np.zeros(ncomp)
    for s in corners:
        clo = lo + s * half
        total += _adaptive_box(f, clo, clo + half, ncomp, abs_tol / 2 ** d, depth + 1)
    return total


def _corner_box_integral(f, hi, ncomp, homogeneity):
    """Integral over [0, hi] of a homogeneous integrand singular only at 0.

    Scaling the box by 1/2 multiplies the integral by 2^-(d+p), so the full
    integral is the (smooth-region) integral over box minus half-box divided by
    1 - 2^-(d+p).  This sums the corner singularity exactly instead of chasing
    it by subdivision.
    """
    hi = np.asarray(hi, dtype=float)
    d = hi.size
    half = 0.5 * hi
    shell = np.zeros(ncomp)
    for s in np.array(np.meshgrid(*([[0, 1]] * d), indexing="ij")).reshape(d, -1).T:
        if not np.any(s):
            continue  # the inner half-box, handled by the scaling relation
        lo = s * half
        shell += _adaptive_box(f, lo, lo + half, ncomp)
    return shell / (1.0 - 2.0 ** (-(d + homogeneity)))


def cell_averaged_kernel(cell_center, spacing, p: KernelParams, which="matrix"):
    """Exact cell average of the chosen kernel component over one grid cell.

    Cells within SINGULAR_CELL_RADIUS spacings of z = 0 are integrated by
    adaptive quadrature (the cell containing the origin is split at the origin
    and its corner singularity summed in closed form via homogeneity); cells
    farther out use the midpoint value, accurate to O(spacing^2).
    """
    center = np.atleast_1d(np.asarray(cell_center, dtype=float))
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), center.shape).copy()
    if np.any(spacing <= 0.0):
        raise ValueError("cell spacing must be positive")
    if which not in _COMPONENTS:
        raise ValueError(f"unknown kernel component selector {which!r}")
    kernel, hom_shift = _COMPONENTS[which]
    hom = p.gamma + hom_shift
    shape = np.shape(kernel(np.ones(p.d), p))
    ncomp = int(np.prod(shape))

    def f(z):
        # Quadrature nodes are interior to boxes that at most touch z = 0 at
        # a corner, and far cells are evaluated at their center, so z != 0.
        return kernel(z, p).reshape(len(z), ncomp)

    def reshape(flat):
        return flat.reshape(shape) if shape else float(flat[0])

    if np.linalg.norm(center) >= SINGULAR_CELL_RADIUS * np.max(spacing):
        return reshape(f(center[None, :])[0])

    lo = center - 0.5 * spacing
    hi = center + 0.5 * spacing
    vol = float(np.prod(spacing))
    if np.all(lo <= 0.0) and np.all(hi >= 0.0):
        # Origin inside the cell (or on its boundary): split at the origin into
        # up to 2^d boxes, each with the singularity at a corner.  Reflect
        # negative-side boxes into the positive orthant so the homogeneous
        # corner formula applies; the divergence component is odd under
        # reflection, which the sign-composed evaluator accounts for.
        d = center.size
        total = np.zeros(ncomp)
        for s in np.array(np.meshgrid(*([[0, 1]] * d), indexing="ij")).reshape(d, -1).T:
            extent = np.where(s == 1, hi, -lo)
            if np.any(extent <= 0.0):
                continue
            sign = np.where(s == 1, 1.0, -1.0)

            def fs(z, sign=sign):
                return f(z * sign)

            total += _corner_box_integral(fs, extent, ncomp, hom)
        return reshape(total / vol)
    return reshape(_adaptive_box(f, lo, hi, ncomp) / vol)


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
