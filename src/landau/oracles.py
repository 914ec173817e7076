"""Brute-force verification of the standalone convolution inequalities in 3D.

All checks run in the true three-dimensional setting on radial analytic test
functions, decoupled from any solver grid.  The radial reduction

    (|.|^-nu * h)(R) = (2 pi / R) int_0^inf r h(r) [int_{|R-r|}^{R+r} s^{1-nu} ds] dr

(with the R -> 0 limit 4 pi int r^{2-nu} h(r) dr) turns every left-hand side
into one-dimensional quadrature.  Empirical constants are logged, not asserted
against specific values: the inequalities hide constants, so the assertion is
finiteness and stability under refinement.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad as _scipy_quad

from .errors import BranchMismatch, QuadratureFailure


def quad(*args, **kwargs):
    """scipy.integrate.quad minus its advisory convergence warnings; every
    result here is validated against its own error estimate instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return _scipy_quad(*args, **kwargs)


@dataclass(frozen=True)
class RadialTestFunction:
    """Radial test function on R^3 with a finite support/decay scale."""

    name: str
    profile: callable       # float r -> float h(r) >= 0, one point at a time
    r_max: float            # effectively sup of the support

    def l1(self):
        val, err = quad(lambda r: 4.0 * math.pi * r * r * self.profile(r),
                        0.0, self.r_max, limit=200)
        _check_quad(val, err)
        return val

    def l2(self):
        val, err = quad(lambda r: 4.0 * math.pi * r * r * self.profile(r) ** 2,
                        0.0, self.r_max, limit=200)
        _check_quad(val, err)
        return math.sqrt(val)

    def linf(self):
        return float(max(self.profile(r) for r in np.linspace(0.0, self.r_max, 4001)))


def _check_quad(val, err):
    # quad error estimates are conservative near fractional-power endpoints;
    # 1e-4 relative with a small absolute floor for far-field tail values is
    # still an order tighter than anything the checks assert
    if not math.isfinite(val) or err > 1e-4 * abs(val) + 1e-7:
        raise QuadratureFailure(f"quadrature error {err:.3g} on value {val:.6g}")


def default_catalog():
    """Twenty radial test functions: Gaussians, balls, bumps, shells, products."""
    cat = []
    for s in (0.5, 1.0, 2.0, 4.0):
        cat.append(RadialTestFunction(
            f"gaussian_s{s}", lambda r, s=s: math.exp(-(r / s) ** 2), 8.0 * s))
    for a in (0.5, 1.0, 2.0, 3.0):
        cat.append(RadialTestFunction(
            f"ball_a{a}", lambda r, a=a: 1.0 if r <= a else 0.0, a))
    for a in (1.0, 2.0, 4.0):
        def bump(r, a=a):
            u = (r / a) ** 2
            return math.exp(-1.0 / (1.0 - u)) if u < 1.0 else 0.0
        cat.append(RadialTestFunction(f"bump_a{a}", bump, a))
    for r0 in (1.0, 2.0, 3.0):
        cat.append(RadialTestFunction(
            f"shell_r{r0}", lambda r, r0=r0: math.exp(-((r - r0) / 0.5) ** 2), r0 + 5.0))
    for k in (2, 4):
        cat.append(RadialTestFunction(
            f"poly{k}_gaussian", lambda r, k=k: r ** k * math.exp(-r ** 2), 9.0))
    cat.append(RadialTestFunction("cusp", lambda r: math.exp(-abs(r)), 30.0))
    cat.append(RadialTestFunction("lorentz4", lambda r: 1.0 / (1.0 + r ** 2) ** 4, 60.0))
    cat.append(RadialTestFunction("gauss_drift", lambda r: math.exp(-(r - 1.0) ** 2 / 2.0), 9.0))
    cat.append(RadialTestFunction(
        "double_scale", lambda r: math.exp(-r ** 2) + 0.1 * math.exp(-(r / 3.0) ** 2), 24.0))
    return cat


def convolve_radial(h: RadialTestFunction, nu, R):
    """(|.|^-nu * h)(R) for radial h in 3D, by the radial reduction."""
    if R < 1e-12:
        val, err = quad(lambda r: 4.0 * math.pi * r ** (2.0 - nu) * h.profile(r),
                        0.0, h.r_max, limit=200)
        _check_quad(val, err)
        return val

    two_minus = 2.0 - nu

    def inner(r):
        lo, hi = abs(R - r), R + r
        if two_minus == 0.0:
            return math.log(hi) - math.log(lo) if lo > 0.0 else math.inf
        if lo == 0.0 and two_minus < 0.0:
            return math.inf
        return (hi ** two_minus - lo ** two_minus) / two_minus

    # r = R is an (integrable) kink/singularity of the inner integral.
    val1, err1 = quad(lambda r: r * h.profile(r) * inner(r), 0.0, min(R, h.r_max),
                      limit=200)
    val2, err2 = 0.0, 0.0
    if h.r_max > R:
        val2, err2 = quad(lambda r: r * h.profile(r) * inner(r), R, h.r_max,
                          limit=200)
    val = 2.0 * math.pi / R * (val1 + val2)
    _check_quad(val, err1 + err2)
    return val


def _r_grid(h: RadialTestFunction, nu, n):
    # quadratic grading: slowly decaying profiles have r_max far beyond the
    # scale on which their convolution varies, so cluster samples near 0
    u = np.linspace(0.0, 1.0, n)
    return (h.r_max + 2.0) * u ** 2


def check_interpolation(h: RadialTestFunction, nu, n_points=160):
    """sup_v (|.|^-nu * |h|)(v) against ||h||_1^(1-nu/3) ||h||_inf^(nu/3)."""
    if not (0.0 < nu < 3.0):
        raise ValueError("nu must lie in (0, 3)")
    rs = _r_grid(h, nu, n_points)
    vals = np.array([convolve_radial(h, nu, R) for R in rs])
    lhs = _sampled_peak(vals)
    rhs = h.l1() ** (1.0 - nu / 3.0) * h.linf() ** (nu / 3.0)
    return {"name": h.name, "nu": nu, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}


def _sampled_peak(vals):
    """Max of a sampled smooth curve, parabolic through the top three points.

    Removes the O(spacing^2) dependence of the raw sampled max so the reported
    sup is stable under refinement of the sampling grid.
    """
    i = int(np.argmax(vals))
    peak = float(vals[i])
    if 0 < i < vals.size - 1:
        y0, y1, y2 = float(vals[i - 1]), float(vals[i]), float(vals[i + 1])
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            peak = y1 - 0.125 * (y2 - y0) ** 2 / denom
    return peak


def check_dispersion(t_values=None, a=1.0, b=1.0):
    """Transported Gaussian h = e^{-a|x-tv|^2 - b|v|^2} against the
    (1+t)^-3 (||<v>^4 h||_inf + ||<x-tv>^4 h||_inf) bound, via closed forms."""
    if t_values is None:
        t_values = np.linspace(0.0, 100.0, 201)

    def peak_weight(c):
        # sup_u (1+|u|^2)^2 e^{-c|u|^2}
        u = max(0.0, 2.0 / c - 1.0)
        return (1.0 + u) ** 2 * math.exp(-c * u)

    wv = peak_weight(b)
    wx = peak_weight(a)
    out = []
    for t in t_values:
        linf_l1 = (math.pi / (a * t * t + b)) ** 1.5
        bound = (1.0 + t) ** (-3.0) * (wv + wx)
        out.append({"t": float(t), "lhs": linf_l1, "bound": bound,
                    "ratio": linf_l1 / bound})
    return out


def check_hls(h: RadialTestFunction, nu, branch, epsrel=1e-6):
    """HLS-type bounds on the convolution |.|^-nu * h for radial h.

    branch "L2": nu in (3/2, 3), LHS = L2 norm, RHS = ||h||_1^(2-2nu/3) ||h||_2^(2nu/3-1).
    branch "L15over4nu": nu in [0, 3/2], LHS = L^(15/(4 nu)) norm (sup at nu=0),
    RHS = ||h||_1^(1-2nu/15) ||h||_2^(2nu/15).
    """
    if branch == "L2":
        if not (1.5 < nu < 3.0):
            raise BranchMismatch("L2 branch needs nu in (3/2, 3)")
    elif branch == "L15over4nu":
        if not (0.0 <= nu <= 1.5):
            raise BranchMismatch("L15over4nu branch needs nu in [0, 3/2]")
    else:
        raise ValueError(f"unknown branch {branch!r}")

    # Generous outer range: the convolution decays like R^-nu for localized h.
    tail = 12.0 * h.r_max + 12.0
    if branch == "L2":
        p = 2.0
        rhs = h.l1() ** (2.0 - 2.0 * nu / 3.0) * h.l2() ** (2.0 * nu / 3.0 - 1.0)
    else:
        p = math.inf if nu == 0.0 else 15.0 / (4.0 * nu)
        rhs = h.l1() ** (1.0 - 2.0 * nu / 15.0) * h.l2() ** (2.0 * nu / 15.0)
    if math.isinf(p):
        vals = np.array([convolve_radial(h, nu, R) for R in _r_grid(h, nu, 160)])
        lhs = _sampled_peak(vals)
    else:
        # the convolution kinks at the support edge of h, so tell quad about it
        val, err = quad(
            lambda r: 4.0 * math.pi * r * r * convolve_radial(h, nu, r) ** p,
            0.0, tail, points=[min(h.r_max, tail)], limit=300, epsrel=epsrel)
        if not math.isfinite(val) or (val > 0.0 and err > 50.0 * epsrel * val):
            raise QuadratureFailure(f"norm quadrature error {err:.3g} on {val:.6g}")
        lhs = val ** (1.0 / p)
    if not math.isfinite(lhs):
        raise QuadratureFailure("nonfinite left-hand side")
    return {"name": h.name, "nu": nu, "branch": branch, "lhs": lhs, "rhs": rhs,
            "ratio": lhs / rhs}
