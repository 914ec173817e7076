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
(log prefactor, sigma, alpha, beta, free B_ia), and each psi_k is a quadratic
form in the cell centres (_forms).  The fit is damped Gauss-Newton (Marquardt,
SIAM J. Appl. Math. 11, 1963), whose normal equations are the forms contracted
with the moments, to order 4, that one model evaluation sums per axis.
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


def _free_entries(d, d_x):
    """Index pairs (i, a) of the free entries B_ia, a < min(i, d_x); B_ai = -B_ia."""
    return [(i, a) for i in range(d) for a in range(min(i, d_x))]


def _forms(d, d_x):
    """psi_0 = 1 and the fields that multiply sigma, alpha, beta and each free B_ia in
    log M-sharp, -|v|^2/2, -|x|^2/2, -sum_a v_a x_a and -(v_i x_a - [i < d_x] v_a x_i),
    as upper-triangular forms psi_k = u^T A_k u in u = (x, v, 1), x and v cell centres."""
    n, free = d_x + d, _free_entries(d, d_x)
    forms = np.zeros((4 + len(free), n + 1, n + 1))
    forms[0, n, n] = 1.0
    forms[1, range(d_x, n), range(d_x, n)] = forms[2, range(d_x), range(d_x)] = -0.5
    forms[3, range(d_x), range(d_x, 2 * d_x)] = -1.0
    for k, (i, a) in enumerate(free, start=4):
        forms[k, a, d_x + i], forms[k, i, d_x + a] = -1.0, float(i < d_x)
    return forms


def _quadratic(form, coords):
    """u^T form u on the broadcast coordinate arrays u, its terms added in row-major order."""
    return sum(form[a, b] * (coords[a] * coords[b]) for a, b in zip(*np.nonzero(form)))


def maxwellian_sharp_field(p: TravelingMaxwellianParams, grid: Grid):
    """M-sharp sampled on a phase-space grid as a DistributionField at t = 0."""
    p.validate(grid.d_x)
    coords = grid.x_mesh() + grid.v_mesh()
    eta = [p.sigma, p.alpha, p.beta] + [p.B[i, a] for i, a in _free_entries(p.B.shape[0], grid.d_x)]
    expo = sum(c * _quadratic(form, coords)
               for c, form in zip(eta, _forms(grid.d_v, grid.d_x)[1:]))
    return DistributionField(0.0, p.prefactor(grid.d_x) * np.exp(expo), grid)


@dataclass
class MaxwellianFit:
    params: TravelingMaxwellianParams
    residual: float
    converged: bool
    evaluations: int  # model evaluations, each one slab pass


def _slab_sums(part, grid: Grid):
    """The sums over the slabs of threads.slab_rows of part(cell centres (x, v) on the rows,
    rows), a tuple of numbers or arrays; the slabs run on the pool and add up in slab order."""
    mesh = grid.x_mesh() + grid.v_mesh()  # only the first spans the rows
    return [sum(pieces) for pieces in zip(*pool_map(
        lambda rows: part([mesh[0][rows]] + mesh[1:], rows), slab_rows(grid)))]


def _power_sums(values, coords, order):
    """sum values prod_a u_a^p_a for every p in {0, ..., order}^D, indexed [p_0, ...]:
    one tensordot per axis with its powers, the last axis (the one pass over values) first."""
    for a in reversed(range(len(coords))):
        values = np.tensordot(values, np.vander(coords[a].ravel(), order + 1, True), (a, 0))
    return values.transpose()


def _moments(sums, rank):
    """The moments sum f u_a u_b ... (rank indices) in u = (x, v, 1) from f's power sums."""
    unit = np.vstack([np.eye(sums.ndim, dtype=int), np.zeros(sums.ndim, dtype=int)])
    powers = sum(unit[index] for index in np.ix_(*[range(sums.ndim + 1)] * rank))
    return sums[tuple(np.moveaxis(powers, -1, 0))]


def _weight(coords, d_x):
    """The factors 1 + |v|^2 and 1 + |x|^2 of <v>^2 <x>^2 on the cell centres (x, v)."""
    return 1.0 + sum(v * v for v in coords[d_x:]), 1.0 + sum(x * x for x in coords[:d_x])


def _member(eta, d, d_x):
    """The family member with natural coordinates eta; ConstraintViolated outside it."""
    b = np.zeros((d, d))
    for (i, a), val in zip(_free_entries(d, d_x), eta[4:]):
        b[i, a], b[a, i] = val, -val
    p = TravelingMaxwellianParams(1.0, float(eta[2]), float(eta[1]), float(eta[3]), b)
    p.m = math.exp(eta[0]) / p.prefactor(d_x)  # the prefactor is linear in m
    p.validate(d_x)
    return p


def _normal_equations(eta, wf, grid: Grid):
    """|r|^2, J^T J and J^T r of r = wf - w M, J_k = w M psi_k, for M = exp(sum_k eta_k
    psi_k) and w = <v>^2 <x>^2, in one slab pass.  With psi_k = u^T A_k u, J^T J_kj is
    A_k and A_j contracted with the fourth moments of (w M)^2, J^T r_k is A_k contracted
    with the second moments of w M r, and a slab sums each in one pass (_power_sums)."""
    forms = _forms(grid.d_v, grid.d_x)

    def part(coords, rows):
        # the arithmetic of maxwellian_sharp_field, so that an in-family fit ends where
        # the model is the sampled member, whatever the slabs
        wm = np.exp(sum(c * _quadratic(form, coords) for c, form in zip(eta[1:], forms[1:])))
        w_v, w_x = _weight(coords, grid.d_x)
        wm *= math.exp(eta[0]) * w_x
        wm *= w_v
        wr = wf[rows] - wm
        cost = np.einsum("i,i->", wr.ravel(), wr.ravel())
        wr *= wm
        h = _power_sums(wr, coords, 2)
        wm *= wm
        return cost, _power_sums(wm, coords, 4), h

    cost, g, h = _slab_sums(part, grid)
    jtj = np.einsum("kab,abcd,jcd->kj", forms, _moments(g, 4), forms)
    return float(cost), jtj, np.einsum("kab,ab->k", forms, _moments(h, 2))


def fit_maxwellian(sharp_field: DistributionField):
    """Project f-sharp data onto the traveling Maxwellian family.

    Minimises ||<v>^2 <x>^2 (f_sharp - M_sharp)||_L2 over eta from the
    moment-matched start by steps that solve the column-scaled normal equations
    damped by lam I; lam falls tenfold after a step that lowers the residual and
    rises tenfold otherwise.  Converged: an accepted step lowered the squared
    residual by at most FIT_RTOL of it, or a trial step moved the weighted model
    by at most FIT_RTOL of its norm (round-off reached); not converged: the
    FIT_MAX_STEPS trials ran out.  A feature that is 0 on the grid keeps its start.
    The start's moments and each model evaluation are one slab pass on the pool
    (threads.slab_rows), whose sums the calling thread adds in slab order: the fit
    does not depend on the number of threads, and the slab size moves it within
    round-off.
    """
    grid, values = sharp_field.grid, sharp_field.values
    sums, square = _slab_sums(lambda u, rows: (
        _power_sums(values[rows], u, 2), np.einsum("i,i->", *[values[rows].ravel()] * 2)), grid)
    moments = _moments(sums, 2) * grid.cell_volume
    mass, square = float(moments[-1, -1]), float(square) * grid.cell_volume
    if mass <= 1e-12 * max(math.sqrt(square), 1e-300) or mass <= 0.0:
        raise ZeroMass("cannot fit a traveling Maxwellian to (near) zero mass data")

    d, d_x = grid.d_v, grid.d_x
    forms = _forms(d, d_x)[1:, :-1, :-1]
    try:  # -u^T s u / 2, s the inverse covariance, projected onto the (orthogonal) forms
        sym = forms + forms.transpose(0, 2, 1)
        eta = -np.einsum("kab,ab->k", sym, np.linalg.inv(moments[:-1, :-1] / mass))
        eta = np.r_[0.0, eta / np.maximum(np.einsum("kab,kab->k", sym, sym), 1.0)]
        _member(eta, d, d_x)
    except (ConstraintViolated, np.linalg.LinAlgError):
        eta = np.r_[0.0, 1.0, 1.0, np.zeros(len(forms) - 2)]
    eta[0] = math.log(mass / _member(eta, d, d_x).m)
    wf = math.prod(_weight(grid.x_mesh() + grid.v_mesh(), d_x), start=values)
    cost, jtj, jtr = _normal_equations(eta, wf, grid)
    evaluations, lam, converged = 1, 1e-3, False
    for _ in range(FIT_MAX_STEPS):
        scale = np.sqrt(np.diag(jtj))
        scale[scale == 0.0] = 1.0
        damped = jtj / np.outer(scale, scale) + lam * np.eye(len(eta))
        step = np.linalg.lstsq(damped, jtr / scale, rcond=None)[0] / scale
        trial = _normal_equations(eta + step, wf, grid)
        evaluations += 1
        if trial[0] < cost:
            converged = cost - trial[0] <= FIT_RTOL * cost
            eta, lam = eta + step, lam / 10.0
            cost, jtj, jtr = trial
        else:
            lam *= 10.0
        if converged or step @ jtj @ step <= FIT_RTOL ** 2 * jtj[0, 0]:
            converged = True
            break
    return MaxwellianFit(_member(eta, d, d_x), math.sqrt(cost * grid.cell_volume), converged,
                         evaluations)
