"""Hierarchy constants, weighted norms, the diagnostic record, and decay-rate fitting."""

import math

import numpy as np
import pytest

import landau.diagnostics
from landau.coefficients import compute_coefficients
from landau.collision import apply_collision_nonconservative
from landau.config import SimulationConfig, initial_data
from landau.diagnostics import (ENormAccumulator, apply_derivatives,
                                fit_decay_rate, hierarchy_params,
                                null_structure_gain, sharp_cauchy_diff,
                                velocity_moments, z_norm)
from landau.errors import (GammaOutOfRange, GridMismatch, InsufficientPoints,
                           NonPositiveValue)
from landau.phase_state import DistributionField, Grid, bracket
from landau.stepper import run


def test_hierarchy_gamma_minus_one():
    hp = hierarchy_params(-1.0)
    assert hp.M_max == 14
    assert hp.M_int == 8
    assert hp.zeta[10] == pytest.approx(1.5)
    assert hp.zeta[9] == pytest.approx(0.75)
    assert all(z == 0.0 for z in hp.zeta[:9])
    assert hp.delta == pytest.approx(0.1)


def test_hierarchy_branches():
    # soft branch: gamma <= -1 uses ceil(2/(2+gamma) + 4)
    hp = hierarchy_params(-1.5)
    assert hp.M_max == 2 + 2 * math.ceil(2.0 / 0.5 + 4.0)
    assert hp.M_int == hp.M_max - math.ceil(2.0 / 0.5 + 4.0)
    # mild branch: gamma > -1 uses ceil(1/|gamma| + 4)
    hp = hierarchy_params(-0.5)
    assert hp.M_max == 2 + 2 * math.ceil(2.0 + 4.0)
    top = hp.M_max - 4
    assert hp.theta[top] == pytest.approx(1.0)
    assert hp.theta[top - 1] == pytest.approx(1.0 + (-0.5))
    assert hp.zeta[top - 1] == pytest.approx(0.75)


def test_hierarchy_p_exponents():
    assert math.isinf(hierarchy_params(-0.5).p_star)
    assert math.isinf(hierarchy_params(-1.0).p_star)
    hp = hierarchy_params(-1.5)
    assert hp.p_star == pytest.approx(-15.0 / (4.0 * (-0.5)))
    assert hierarchy_params(-1.0).p_star_star == pytest.approx(15.0 / 4.0)
    assert hierarchy_params(-1.8).p_star_star == pytest.approx(2.0)


def test_hierarchy_interface_inequality_sampled():
    for gamma in np.linspace(-1.99, -0.01, 50):
        hp = hierarchy_params(float(gamma))
        assert hp.M_max + 2 >= 2 * hp.M_int


def test_hierarchy_rejects_bad_gamma():
    with pytest.raises(GammaOutOfRange):
        hierarchy_params(0.0)


def test_apply_derivatives_polynomial_exact():
    # centered differences are exact on quadratics
    g = Grid(1, 1, 16, 16, 8.0, 2.0)
    x = g.x_mesh()[0]
    v = g.v_mesh()[0]
    f = DistributionField(0.0, (x ** 2 + 3.0 * x * v) * np.ones(g.shape), g)
    dx = apply_derivatives(f, (1,), (), ())
    interior = (slice(1, -1), slice(1, -1))
    assert np.allclose(dx[interior], (2.0 * x + 3.0 * v)[interior], atol=1e-10)
    dv = apply_derivatives(f, (), (1,), ())
    assert np.allclose(dv[interior], (3.0 * x * np.ones_like(v))[interior], atol=1e-10)


def test_y_derivative_combines_transport_direction():
    # Y = t d_x + d_v annihilates any function of x - t v
    g = Grid(1, 1, 64, 64, 16.0, 2.0)
    t = 1.25
    x = g.x_mesh()[0]
    v = g.v_mesh()[0]
    u = x - t * v
    f = DistributionField(t, np.exp(-0.1 * u ** 2), g)
    y = apply_derivatives(f, (), (), (1,))
    interior = (slice(2, -2), slice(2, -2))
    assert np.max(np.abs(y[interior])) < 1e-2 * np.max(np.abs(
        apply_derivatives(f, (), (1,), ())[interior]))


def test_z_norm_constant_field():
    g = Grid(0, 2, 1, 8, 1.0, 1.0)
    hp = hierarchy_params(-1.0)
    xw = bracket(g.x_minus_tv_squared(0.0)) ** (hp.M_max + 5)
    val = z_norm(np.ones(g.shape), bracket(g.v_squared()), xw, 0.0, 0, zeta=0.0, theta=1.0)
    # weight <v>^0 <x-tv>^(M_max+5) with x-part zero in homogeneous mode
    assert val == pytest.approx(1.0)


def _record_cfg(t_final):
    return SimulationConfig(
        gamma=-1.0, d0=0.2, epsilon=1e-6, d_x=1, d_v=2, n_x=48, n_v=16,
        L_x=480.0, v_max=6.5, t_final=t_final, dt_max=0.25, output_every=0.25,
        initial_kind="gaussian",
        initial_parameters={"x_width": 35.0, "v_width": 1.0, "drift": [0.3, -0.2]})


# (alpha, beta, sigma) of each record key: none, d_v1, and Y_1 = t d_x1 + d_v1.
RECORD_KEYS = {"abs": ((), (), ()), "ab1s": ((), (1,), ()), "abs1": ((), (), (1,))}


def _expected_record(f, cfg):
    """The record's fields from their formulas, and the E-norm integrand."""
    grid, t, gamma = f.grid, f.time, cfg.gamma
    hp = hierarchy_params(gamma)
    vb = bracket(grid.v_squared())
    xtb = bracket(grid.x_minus_tv_squared(t))
    coeffs = compute_coefficients(f, cfg.kernel_params())
    amax = np.max(np.abs(coeffs.a_bar), axis=(-2, -1))
    # a_bar_ij d_ij f: the nonconservative operator without its -c_bar f
    diffusion = apply_collision_nonconservative(f.values, coeffs, grid) + coeffs.c_bar * f.values
    out = {
        "a_bar_plain_sup": np.max(amax / vb ** (2.0 + gamma)),
        "a_bar_weighted_sup": np.max(amax / xtb ** min(1.0, 2.0 + gamma)
                                     / vb ** max(0.0, 1.0 + gamma)),
        "null_term_sup": np.max(np.abs(diffusion) / vb ** (2.0 + gamma)),
        "Z_norms": {}, "E_norms": {},
    }
    d_t = cfg.d0 * (1.0 + (1.0 + t) ** -hp.delta)
    g = DistributionField(t, f.values * np.exp(d_t * (1.0 + grid.v_squared())), grid)
    for key, (alpha, beta, sigma) in RECORD_KEYS.items():
        k, nb = sum(beta) + sum(sigma), sum(beta)
        dg = apply_derivatives(g, alpha, beta, sigma)
        xw = xtb ** (hp.M_max + 5 - sum(sigma))
        out["Z_norms"][key] = ((1.0 + t) ** (-hp.zeta[k] - nb)
                               * np.max(vb ** (1.0 - hp.theta[k]) * xw * np.abs(dg)))
        out["E_norms"][key] = (1.0 + t) ** -nb * math.sqrt(
            np.sum((xw * dg) ** 2) * grid.cell_volume)
        if key == "abs":
            integrand = ((1.0 + t) ** (-1.0 - hp.delta)
                         * np.sum((vb * xw * dg) ** 2) * grid.cell_volume)
    return out, integrand


def test_record_values_match_their_formulas():
    cfg = _record_cfg(0.25)
    art = run(cfg)
    fields = [initial_data(cfg), art.final]
    assert [r.t for r in art.records] == [f.time for f in fields] == [0.0, 0.25]
    integrands = []
    for rec, f in zip(art.records, fields):
        want, integrand = _expected_record(f, cfg)
        integrands.append(integrand)
        for name in ("a_bar_plain_sup", "a_bar_weighted_sup", "null_term_sup"):
            assert getattr(rec, name) == pytest.approx(want[name], rel=1e-14, abs=0.0)
        assert set(rec.Z_norms) == set(RECORD_KEYS)
        assert set(rec.E_norms) == set(RECORD_KEYS) | {"abs_Lt2"}
        for key in RECORD_KEYS:
            assert rec.Z_norms[key] == pytest.approx(want["Z_norms"][key], rel=1e-14, abs=0.0)
            assert rec.E_norms[key] == pytest.approx(want["E_norms"][key], rel=1e-14, abs=0.0)
    # the trapezoid of the integrand over [0, 0.25]
    assert art.records[0].E_norms["abs_Lt2"] == 0.0
    lt2 = math.sqrt(0.5 * 0.25 * sum(integrands))
    assert art.records[1].E_norms["abs_Lt2"] == pytest.approx(lt2, rel=1e-14, abs=0.0)


def test_record_takes_each_weight_and_derivative_once(monkeypatch):
    counts = dict.fromkeys(("v_squared", "x_minus_tv_squared", "apply_derivatives"), 0)

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Grid, "v_squared")
    count(Grid, "x_minus_tv_squared")
    count(landau.diagnostics, "apply_derivatives")
    records = run(_record_cfg(0.0)).records  # t_final = 0: no step, one record
    assert len(records) == 1
    assert counts["apply_derivatives"] == 3
    assert counts["v_squared"] <= 3
    assert counts["x_minus_tv_squared"] <= 2


def test_e_norm_accumulator_trapezoid():
    acc = ENormAccumulator()
    acc.add(0.0, 1.0)
    acc.add(2.0, 3.0)
    assert acc.value == pytest.approx(2.0)  # sqrt(0.5*2*(1+3))


def test_velocity_moments_uniform():
    g = Grid(1, 2, 4, 16, 8.0, 2.0)
    rho, m, e = velocity_moments(np.ones(g.shape), g)
    assert rho.shape == e.shape == (4,)
    assert m.shape == (4, 2)
    assert np.max(np.abs(rho)) == pytest.approx(16.0)
    assert np.max(np.abs(m)) < 1e-12
    assert np.max(np.abs(e)) > 0.0


def test_fit_decay_rate_recovers_power_law():
    ts = np.linspace(1.0, 60.0, 40)
    series = [(t, 7.0 * (1.0 + t) ** -1.5) for t in ts]
    slope, err = fit_decay_rate(series, window=(5.0, 50.0))
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert err < 1e-12


def test_fit_decay_rate_gates():
    with pytest.raises(InsufficientPoints):
        fit_decay_rate([(1.0, 1.0), (2.0, 0.5)])
    series = [(t, -1.0) for t in range(10)]
    with pytest.raises(NonPositiveValue):
        fit_decay_rate(series)


def test_null_structure_gain_synthetic():
    ts = np.linspace(1.0, 50.0, 30)
    plain = [(t, (1.0 + t) ** -1.0) for t in ts]
    weighted = [(t, (1.0 + t) ** -2.0) for t in ts]
    assert null_structure_gain(plain, weighted) == pytest.approx(1.0, abs=1e-10)


def test_sharp_cauchy_diff_zero_and_mismatch():
    g = Grid(1, 1, 8, 8, 4.0, 1.0)
    f = DistributionField(0.0, np.ones(g.shape), g)
    assert sharp_cauchy_diff(f, f) == 0.0
    g2 = Grid(1, 1, 8, 8, 5.0, 1.0)
    f2 = DistributionField(0.0, np.ones(g2.shape), g2)
    with pytest.raises(GridMismatch):
        sharp_cauchy_diff(f, f2)
