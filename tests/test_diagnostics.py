"""Hierarchy constants, weighted norms, and decay-rate fitting."""

import math

import numpy as np
import pytest

from landau.diagnostics import (ENormAccumulator, apply_derivatives, e_norm,
                                fit_decay_rate, hierarchy_params,
                                null_structure_gain, sharp_cauchy_diff,
                                velocity_moments, z_norm)
from landau.errors import (GammaOutOfRange, GridMismatch, InsufficientPoints,
                           NonPositiveValue, OrderTooHigh)
from landau.phase_state import DistributionField, Grid


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


def test_norm_order_cap():
    g = Grid(0, 2, 1, 8, 1.0, 1.0)
    f = DistributionField(0.0, np.ones(g.shape), g)
    hp = hierarchy_params(-1.0)
    with pytest.raises(OrderTooHigh):
        z_norm(f, ((), (2,), (1,)), hp, k_max=2)
    with pytest.raises(OrderTooHigh):
        e_norm(f, ((), (2,), (1,)), hp, k_max=2)


def test_z_norm_constant_field():
    g = Grid(0, 2, 1, 8, 1.0, 1.0)
    f = DistributionField(0.0, np.ones(g.shape), g)
    hp = hierarchy_params(-1.0)
    val = z_norm(f, ((), (), ()), hp, zeta=0.0, theta=1.0)
    # weight <v>^0 <x-tv>^(M_max+5) with x-part zero in homogeneous mode
    assert val == pytest.approx(1.0)


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
