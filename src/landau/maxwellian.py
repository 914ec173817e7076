"""Traveling global Maxwellian family and projection of f-sharp data onto it.

The family is the Gaussian in the pair u = (v, x - t v) with block precision
matrix S = [[sigma I, beta I + B], [beta I - B, alpha I]], B skew-symmetric,
subject to S positive definite; at d_x = d_v its Schur complement is Q / sigma,
Q = (alpha sigma - beta^2) I + B^2.  M-sharp (the pullback to t = 0
coordinates) is exactly t-independent.

On reduced spatial dimension (d_x < d_v) the coupling block keeps only the
columns paired with a spatial axis and the prefactor uses the general Gaussian
normalization, which reduces to m sqrt(det Q)/(2 pi)^d when d_x = d_v.

log M-sharp = sum_k eta_k psi_k is linear in the natural coordinates eta =
(log prefactor, sigma, alpha, beta, free B_ia) with fixed fields psi (1 and
_features), so the fit is damped Gauss-Newton (Marquardt, SIAM J. Appl. Math.
11, 1963) on normal equations that one model evaluation gives.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, ZeroMass
from .phase_state import DistributionField, Grid
from .threads import pool_map, slab_rows

FIT_MAX_STEPS = 100  # trial steps (model evaluations) of fit_maxwellian before it gives up
FIT_RTOL = 1e-12  # relative decrease of the residual, or relative step, that ends the fit


@dataclass
class TravelingMaxwellianParams:
    m: float
    alpha: float
    sigma: float
    beta: float
    B: np.ndarray  # d_v x d_v skew-symmetric

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)

    def validate(self, d_x):
        if self.m < 0.0:
            raise ConstraintViolated("mass scale m must be >= 0")
        if self.alpha <= 0.0 or self.sigma <= 0.0:
            raise ConstraintViolated("alpha and sigma must be positive")
        if not np.allclose(self.B, -self.B.T, atol=1e-12):
            raise ConstraintViolated("B must be skew-symmetric")
        if np.min(np.linalg.eigvalsh(self.precision(d_x))) <= 0.0:
            raise ConstraintViolated(f"precision S on (v, x) with d_x = {d_x} not PD")

    def precision(self, d_x):
        """Block precision matrix on (v, x) with d_x spatial axes."""
        d = self.B.shape[0]
        pair = np.eye(d)[:, :d_x]
        coupling = (self.beta * np.eye(d) + self.B) @ pair
        s = np.zeros((d + d_x, d + d_x))
        s[:d, :d] = self.sigma * np.eye(d)
        s[:d, d:] = coupling
        s[d:, :d] = coupling.T
        s[d:, d:] = self.alpha * np.eye(d_x)
        return s

    def prefactor(self, d_x):
        d = self.B.shape[0]
        s = self.precision(d_x)
        det = float(np.linalg.det(s))
        if det <= 0.0:
            raise ConstraintViolated("precision matrix not positive definite")
        return self.m * math.sqrt(det) / (2.0 * math.pi) ** (0.5 * (d + d_x))


def eval_maxwellian(p: TravelingMaxwellianParams, t, x, v):
    """M(t, x, v); positive wherever the constraints hold."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d_x = x.size
    p.validate(d_x)
    u = np.concatenate([v, x - t * v[:d_x]])
    s = p.precision(d_x)
    return p.prefactor(d_x) * math.exp(-0.5 * float(u @ s @ u))


def maxwellian_sharp(p: TravelingMaxwellianParams, x, v):
    """M-sharp(x, v) = M(0, x, v); equals M(t, x + t v, v) for every t."""
    return eval_maxwellian(p, 0.0, x, v)


def _free_entries(d, d_x):
    """Index pairs (i, a) of the free entries B_ia, a < min(i, d_x); B_ai = -B_ia."""
    return [(i, a) for i in range(d) for a in range(min(i, d_x))]


def _features(grid: Grid):
    """-|v|^2/2, -|x|^2/2, -sum_a v_a x_a and, per free B_ia, -(v_i x_a - [i < d_x] v_a x_i):
    the fields that multiply sigma, alpha, beta and B_ia in log M-sharp."""
    vs, xs = grid.v_mesh(), grid.x_mesh()
    feats = [-0.5 * sum(v * v for v in vs), -0.5 * sum(x * x for x in xs),
             -sum(v * x for v, x in zip(vs, xs))]
    for i, a in _free_entries(grid.d_v, grid.d_x):
        feats.append(-(vs[i] * xs[a] - (vs[a] * xs[i] if i < grid.d_x else 0.0)))
    return feats


def _coords(p: TravelingMaxwellianParams, d_x):
    """The coefficients of _features in log M-sharp."""
    return [p.sigma, p.alpha, p.beta] + [p.B[i, a] for i, a in _free_entries(p.B.shape[0], d_x)]


def maxwellian_sharp_field(p: TravelingMaxwellianParams, grid: Grid):
    """M-sharp sampled on a phase-space grid as a DistributionField at t = 0."""
    p.validate(grid.d_x)
    expo = sum(c * psi for c, psi in zip(_coords(p, grid.d_x), _features(grid)))
    return DistributionField(0.0, p.prefactor(grid.d_x) * np.exp(expo), grid)


@dataclass
class MaxwellianFit:
    params: TravelingMaxwellianParams
    residual: float
    converged: bool


def _rows(a, rows):
    """The rows of a's first axis, or a itself where that axis broadcasts."""
    return a if a.shape[0] == 1 else a[rows]


def _slab_sums(part, grid: Grid):
    """The sums over the slabs of threads.slab_rows of part(rows), a tuple of
    numbers or arrays; the slabs run on the pool and add up in slab order."""
    return [sum(pieces) for pieces in zip(*pool_map(part, slab_rows(grid)))]


def _moments(field: DistributionField):
    """Mass, squared L2 norm and the integrals of u_i u_j f, u = (v, x), of the
    field f, in one slab pass."""
    grid, values = field.grid, field.values
    coords = grid.v_mesh() + grid.x_mesh()

    def part(rows):
        # np.sum's pairwise sums: an in-family fit ends at its round-off
        # residual, which a start summed by np.einsum moved by 6e-3 relative
        fs = values[rows]
        cs = [_rows(c, rows) for c in coords]
        cov = np.empty((len(cs), len(cs)))
        for i in range(len(cs)):
            for j in range(i, len(cs)):
                cov[i, j] = cov[j, i] = np.sum(fs * cs[i] * cs[j])
        return np.sum(fs), np.sum(fs * fs), cov

    total, square, cov = _slab_sums(part, grid)
    vol = grid.cell_volume
    return float(total) * vol, float(square) * vol, cov * vol


def _project_params(mass, cov, d, d_x):
    """Moment-matching projection of an inverse covariance onto the family."""
    s = np.linalg.inv(cov)
    sigma = float(np.trace(s[:d, :d])) / d
    alpha = float(np.trace(s[d:, d:])) / max(d_x, 1)
    c = s[:d, d:]
    beta = float(np.trace(c[:d_x, :d_x])) / max(d_x, 1)
    b = np.zeros((d, d))
    for i, a in _free_entries(d, d_x):
        # the antisymmetric part where both axes are spatial, else C_ia itself
        b[i, a] = 0.5 * (c[i, a] - c[a, i]) if i < d_x else c[i, a]
        b[a, i] = -b[i, a]
    return TravelingMaxwellianParams(mass, alpha, sigma, beta, b)


def _member(eta, d, d_x):
    """The family member with natural coordinates eta; ConstraintViolated outside it."""
    b = np.zeros((d, d))
    for (i, a), val in zip(_free_entries(d, d_x), eta[4:]):
        b[i, a], b[a, i] = val, -val
    p = TravelingMaxwellianParams(1.0, float(eta[2]), float(eta[1]), float(eta[3]), b)
    p.m = math.exp(eta[0]) / p.prefactor(d_x)  # the prefactor is linear in m
    p.validate(d_x)
    return p


def fit_maxwellian(sharp_field: DistributionField):
    """Project f-sharp data onto the traveling Maxwellian family.

    Minimises ||<v>^2 <x>^2 (f_sharp - M_sharp)||_L2 over eta from the
    moment-matched start by steps that solve the column-scaled normal equations
    damped by lam I; lam falls tenfold after a step that lowers the residual and
    rises tenfold otherwise.  Converged: an accepted step lowered the squared
    residual by at most FIT_RTOL of it, or a trial step moved the weighted model
    by at most FIT_RTOL of its norm (round-off reached); not converged: the
    FIT_MAX_STEPS trials ran out.  A feature that is 0 on the grid keeps its start.

    The start's moments and each model evaluation are one slab pass on the
    pool of threads (threads.slab_rows), whose sums the calling thread adds in
    slab order: the fit does not depend on the number of threads, and the slab
    size moves it within round-off.
    """
    grid = sharp_field.grid
    values = sharp_field.values
    mass, square, moments = _moments(sharp_field)
    if mass <= 1e-12 * max(math.sqrt(square), 1e-300) or mass <= 0.0:
        raise ZeroMass("cannot fit a traveling Maxwellian to (near) zero mass data")

    d, d_x = grid.d_v, grid.d_x
    try:
        start = _project_params(mass, moments / mass, d, d_x)
        start.validate(d_x)
    except (ConstraintViolated, np.linalg.LinAlgError):
        start = TravelingMaxwellianParams(mass, 1.0, 1.0, 0.0, np.zeros((d, d)))
    # d log M-sharp / d eta, each with the field's axes (the x features are the scalar 0 at d_x = 0)
    columns = [np.full((1,) * values.ndim, psi) if np.ndim(psi) == 0 else psi
               for psi in [1.0] + _features(grid)]
    w = (1.0 + sum(v * v for v in grid.v_mesh())) * (1.0 + sum(x * x for x in grid.x_mesh()))
    wf = values * w
    sub = "abcdef"[:values.ndim]
    two, three = f"{sub},{sub}->", f"{sub},{sub},{sub}->"  # sums of products, no temporaries
    n = len(columns)

    def evaluate(eta):
        """|r|^2, J^T J and J^T r of r = w (f_sharp - M_sharp), J_k = w M_sharp psi_k,
        in one slab pass."""
        def part(rows):
            cols = [_rows(psi, rows) for psi in columns]
            wm = math.exp(eta[0]) * np.exp(sum(c * psi for c, psi in zip(eta[1:], cols[1:])))
            wm *= _rows(w, rows)
            wr = _rows(wf, rows) - wm
            g, h = wm * wm, wm * wr
            jtj = np.empty((n, n))
            for k in range(n):
                for j in range(k, n):
                    jtj[k, j] = jtj[j, k] = np.einsum(three, g, cols[k], cols[j])
            return np.einsum(two, wr, wr), jtj, np.array([np.einsum(two, h, psi) for psi in cols])

        cost, jtj, jtr = _slab_sums(part, grid)
        return float(cost), jtj, jtr

    eta = np.array([math.log(start.prefactor(d_x))] + _coords(start, d_x))
    cost, jtj, jtr = evaluate(eta)
    lam, converged = 1e-3, False
    for _ in range(FIT_MAX_STEPS):
        scale = np.sqrt(np.diag(jtj))
        scale[scale == 0.0] = 1.0
        damped = jtj / np.outer(scale, scale) + lam * np.eye(n)
        step = np.linalg.lstsq(damped, jtr / scale, rcond=None)[0] / scale
        trial = evaluate(eta + step)
        if trial[0] < cost:
            converged = cost - trial[0] <= FIT_RTOL * cost
            eta, lam = eta + step, lam / 10.0
            cost, jtj, jtr = trial
        else:
            lam *= 10.0
        if converged or step @ jtj @ step <= FIT_RTOL ** 2 * jtj[0, 0]:
            converged = True
            break
    return MaxwellianFit(_member(eta, d, d_x), math.sqrt(cost * grid.cell_volume), converged)
