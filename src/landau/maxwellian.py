"""Traveling global Maxwellian family and projection of f-sharp data onto it.

The family is the Gaussian in the pair u = (v, x - t v) with block precision
matrix S = [[sigma I, beta I + B], [beta I - B, alpha I]], B skew-symmetric,
subject to Q = (alpha sigma - beta^2) I + B^2 positive definite.  M-sharp
(the pullback to t = 0 coordinates) is exactly t-independent.

On reduced spatial dimension (d_x < d_v) the coupling block keeps only the
columns paired with a spatial axis and the prefactor uses the general Gaussian
normalization, which reduces to m sqrt(det Q)/(2 pi)^d when d_x = d_v.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConstraintViolated, ZeroMass
from .phase_state import DistributionField, Grid

FIT_MAX_EVALS = 4000  # Nelder-Mead evaluation cap of fit_maxwellian


@dataclass
class TravelingMaxwellianParams:
    m: float
    alpha: float
    sigma: float
    beta: float
    B: np.ndarray  # d_v x d_v skew-symmetric

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)

    def validate(self):
        if self.m < 0.0:
            raise ConstraintViolated("mass scale m must be >= 0")
        if self.alpha <= 0.0 or self.sigma <= 0.0:
            raise ConstraintViolated("alpha and sigma must be positive")
        if not np.allclose(self.B, -self.B.T, atol=1e-12):
            raise ConstraintViolated("B must be skew-symmetric")
        q = self.q_matrix()
        if np.min(np.linalg.eigvalsh(q)) <= 0.0:
            raise ConstraintViolated("Q = (alpha sigma - beta^2) I + B^2 not PD")

    def q_matrix(self):
        d = self.B.shape[0]
        return (self.alpha * self.sigma - self.beta ** 2) * np.eye(d) + self.B @ self.B

    def precision(self, d_x=None):
        """Block precision matrix on (v, x) with d_x spatial axes."""
        d = self.B.shape[0]
        if d_x is None:
            d_x = d
        pair = np.eye(d)[:, :d_x]
        coupling = (self.beta * np.eye(d) + self.B) @ pair
        s = np.zeros((d + d_x, d + d_x))
        s[:d, :d] = self.sigma * np.eye(d)
        s[:d, d:] = coupling
        s[d:, :d] = coupling.T
        s[d:, d:] = self.alpha * np.eye(d_x)
        return s

    def prefactor(self, d_x=None):
        d = self.B.shape[0]
        if d_x is None:
            d_x = d
        s = self.precision(d_x)
        det = float(np.linalg.det(s))
        if det <= 0.0:
            raise ConstraintViolated("precision matrix not positive definite")
        return self.m * math.sqrt(det) / (2.0 * math.pi) ** (0.5 * (d + d_x))


def eval_maxwellian(p: TravelingMaxwellianParams, t, x, v, grid: Grid = None):
    """M(t, x, v); positive wherever the constraints hold."""
    p.validate()
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d_x = x.size
    u_x = x - t * v[:d_x]
    if grid is not None:
        u_x = grid.wrap_x(u_x)
    u = np.concatenate([v, u_x])
    s = p.precision(d_x)
    return p.prefactor(d_x) * math.exp(-0.5 * float(u @ s @ u))


def maxwellian_sharp(p: TravelingMaxwellianParams, x, v, grid: Grid = None):
    """M-sharp(x, v) = M(0, x, v); equals M(t, x + t v, v) for every t."""
    return eval_maxwellian(p, 0.0, x, v, grid=grid)


def maxwellian_sharp_field(p: TravelingMaxwellianParams, grid: Grid):
    """M-sharp sampled on a phase-space grid as a DistributionField at t = 0."""
    p.validate()
    d = grid.d_v
    d_x = grid.d_x
    s = p.precision(d_x)
    vs = grid.v_mesh()
    xs = grid.x_mesh()
    coords = vs + xs  # u = (v, x)
    expo = np.zeros(grid.shape)
    for i in range(d + d_x):
        for j in range(d + d_x):
            if s[i, j] != 0.0:
                expo = expo + s[i, j] * coords[i] * coords[j]
    return DistributionField(0.0, p.prefactor(d_x) * np.exp(-0.5 * expo), grid)


@dataclass
class MaxwellianFit:
    params: TravelingMaxwellianParams
    residual: float
    converged: bool


def _fit_residual(values, model, weight, vol):
    return math.sqrt(float(np.sum((weight * (values - model)) ** 2)) * vol)


def _weighted_l2(field: DistributionField):
    grid = field.grid
    w = (1.0 + grid.v_squared()) * (1.0 + grid.x_minus_tv_squared(0.0))
    return w  # <v>^2 <x>^2


def _second_moments(field: DistributionField):
    """Mass and raw second-moment matrix of u = (v, x) under the field."""
    grid = field.grid
    vol = grid.cell_volume
    mass = float(np.sum(field.values)) * vol
    coords = grid.v_mesh() + grid.x_mesh()
    n = grid.d_v + grid.d_x
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            cov[i, j] = cov[j, i] = float(np.sum(field.values * coords[i] * coords[j])) * vol / mass
    return mass, cov


def _project_params(mass, cov, d, d_x):
    """Moment-matching projection of an inverse covariance onto the family."""
    s = np.linalg.inv(cov)
    sigma = float(np.trace(s[:d, :d])) / d
    alpha = float(np.trace(s[d:, d:])) / max(d_x, 1)
    c = s[:d, d:]
    beta = float(np.trace(c[:d_x, :d_x])) / max(d_x, 1)
    b = np.zeros((d, d))
    for i in range(d):
        for a in range(d_x):
            val = c[i, a] - (beta if i == a else 0.0)
            b[i, a] += val
            b[a, i] -= val
    if d_x == d:
        b *= 0.5  # each entry set twice by the symmetric sweep above
    return TravelingMaxwellianParams(mass, alpha, sigma, beta, b)


def _params_vector(p, d_x):
    vec = [math.log(max(p.m, 1e-300)), math.log(p.alpha), math.log(p.sigma), p.beta]
    d = p.B.shape[0]
    for i in range(d):
        for a in range(min(i, d_x)):
            vec.append(p.B[i, a])
    return np.array(vec)


def _params_from_vector(vec, d, d_x):
    m, alpha, sigma = math.exp(vec[0]), math.exp(vec[1]), math.exp(vec[2])
    beta = vec[3]
    b = np.zeros((d, d))
    k = 4
    for i in range(d):
        for a in range(min(i, d_x)):
            b[i, a] = vec[k]
            b[a, i] = -vec[k]
            k += 1
    return TravelingMaxwellianParams(m, alpha, sigma, beta, b)


def fit_maxwellian(sharp_field: DistributionField):
    """Project f-sharp data onto the traveling Maxwellian family.

    Moment matching (mass and second moments of (v, x)) initializes the
    parameters; the family's covariance is the inverse of its precision
    matrix, so an in-family field is recovered immediately up to quadrature
    error.  A Nelder-Mead pass then refines the weighted L2 residual
    ||<v>^2 <x>^2 (f_sharp - M_sharp)||_L2.
    """
    grid = sharp_field.grid
    mass = float(np.sum(sharp_field.values)) * grid.cell_volume
    norm = math.sqrt(float(np.sum(sharp_field.values ** 2)) * grid.cell_volume)
    if mass <= 1e-12 * max(norm, 1e-300) or mass <= 0.0:
        raise ZeroMass("cannot fit a traveling Maxwellian to (near) zero mass data")

    weight = _weighted_l2(sharp_field)
    vol = grid.cell_volume
    d, d_x = grid.d_v, grid.d_x

    def residual_of(params):
        try:
            model = maxwellian_sharp_field(params, grid)
        except ConstraintViolated:
            return math.inf
        return _fit_residual(sharp_field.values, model.values, weight, vol)

    mass0, cov = _second_moments(sharp_field)
    try:
        best = _project_params(mass0, cov, d, d_x)
        best.validate()
    except (ConstraintViolated, np.linalg.LinAlgError):
        best = TravelingMaxwellianParams(mass0, 1.0, 1.0, 0.0, np.zeros((d, d)))
    best_res = residual_of(best)

    vec = _params_vector(best, d_x)
    opt = minimize(lambda u: residual_of(_params_from_vector(u, d, d_x)), vec,
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": FIT_MAX_EVALS})
    converged = bool(opt.success)
    if opt.fun < best_res:
        best_res = float(opt.fun)
        best = _params_from_vector(opt.x, d, d_x)
    return MaxwellianFit(best, best_res, converged)
