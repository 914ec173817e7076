"""Collision operator structure: conservation, equilibrium, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from landau.coefficients import compute_coefficients
from landau.collision import (apply_collision_divergence,
                              apply_collision_nonconservative, h_functional)
from landau.diagnostics import conserved_moments
from landau.kernel import KernelParams
from landau.phase_state import DistributionField, Grid
from landau.stepper import RunState, collision_substep


def _maxwellian(grid, width2=2.0):
    expo = np.zeros(grid.shape)
    for vm in grid.v_mesh():
        expo = expo + vm ** 2 / width2
    return DistributionField(0.0, np.exp(-expo), grid)


def test_zero_field_gives_zero_q():
    g = Grid(0, 2, 1, 8, 1.0, 2.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.zeros(g.shape), g)
    coeffs = compute_coefficients(f, p)
    for op in (apply_collision_divergence, apply_collision_nonconservative):
        assert np.all(op(f.values, coeffs, g) == 0.0)


def test_divergence_form_conserves_mass_random():
    rng = np.random.default_rng(7)
    g = Grid(0, 2, 1, 16, 1.0, 2.0)
    p = KernelParams(-1.0, 2)
    for _ in range(5):
        f = DistributionField(0.0, rng.random(g.shape), g)
        coeffs = compute_coefficients(f, p)
        q = apply_collision_divergence(f.values, coeffs, g)
        mass, _, _ = conserved_moments(q, g)
        scale = conserved_moments(f.values, g)[0]
        assert abs(mass) <= 1e-13 * scale


@st.composite
def _collision_inputs(draw):
    """Random nonnegative f on a small velocity grid, with a kernel exponent.

    A d_v = 3 kernel table takes seconds to build, so at d_v = 3 the exponent
    is one of three values and n_v is fixed, and the cached tables are reused.
    """
    d = draw(st.sampled_from([2, 3]))
    if d == 2:
        n_v, gamma = draw(st.integers(4, 12)), draw(st.floats(-1.95, -0.05))
    else:
        n_v, gamma = 5, draw(st.sampled_from([-1.9, -1.0, -0.1]))
    grid = Grid(0, d, 1, n_v, 1.0, 2.0)
    values = draw(hnp.arrays(float, grid.shape, elements=st.floats(0.0, 1.0)))
    return grid, values, gamma


@settings(max_examples=30, deadline=None)
@given(_collision_inputs())
def test_divergence_form_conserves_mass_property(inputs):
    g, values, gamma = inputs
    coeffs = compute_coefficients(DistributionField(0.0, values, g), KernelParams(gamma, g.d_v))
    q = apply_collision_divergence(values, coeffs, g)
    assert abs(conserved_moments(q, g)[0]) <= 1e-12 * conserved_moments(values, g)[0]


def test_momentum_machine_zero_for_symmetric_data():
    g = Grid(0, 2, 1, 32, 1.0, 6.0)
    p = KernelParams(-1.0, 2)
    f = _maxwellian(g)
    coeffs = compute_coefficients(f, p)
    q = apply_collision_divergence(f.values, coeffs, g)
    _, mom, _ = conserved_moments(q, g)
    assert np.max(np.abs(mom)) < 1e-12


def test_maxwellian_q_and_energy_converge():
    # equilibrium residual and energy drift both vanish at order >= 1.8
    p = KernelParams(-1.0, 2)
    qs = []
    es = []
    for n in (16, 32, 64):
        g = Grid(0, 2, 1, n, 1.0, 6.0)
        f = _maxwellian(g)
        coeffs = compute_coefficients(f, p)
        q = apply_collision_divergence(f.values, coeffs, g)
        qs.append(np.max(np.abs(q)))
        es.append(abs(conserved_moments(q, g)[2]))
    for seq in (qs, es):
        orders = [math.log2(seq[i] / seq[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (seq, orders)


def test_forms_agree_under_refinement():
    # divergence and nonconservative forms approach each other at order >= 0.9
    p = KernelParams(-1.0, 2)
    errs = []
    for n in (16, 32, 64):
        g = Grid(0, 2, 1, n, 1.0, 6.0)
        v1, v2 = g.v_mesh()
        vals = (1.5 + np.tanh(v1) + 0.5 * np.tanh(v2)) * np.exp(-(v1 ** 2 + v2 ** 2) / 2.0)
        f = DistributionField(0.0, vals, g)
        coeffs = compute_coefficients(f, p)
        qd = apply_collision_divergence(f.values, coeffs, g)
        qn = apply_collision_nonconservative(f.values, coeffs, g)
        errs.append(np.max(np.abs(qd - qn)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9, (errs, orders)


def test_reaction_term_sign():
    g = Grid(0, 2, 1, 24, 1.0, 4.0)
    p = KernelParams(-1.3, 2)
    f = _maxwellian(g)
    coeffs = compute_coefficients(f, p)
    assert np.all(-coeffs.c_bar * f.values >= -1e-14)


def test_conserved_moments_constant_density():
    g = Grid(0, 2, 1, 10, 1.0, 1.0)
    mass, mom, energy = conserved_moments(np.ones(g.shape), g)
    assert mass == pytest.approx(4.0)
    assert np.allclose(mom, 0.0, atol=1e-13)


def test_conserved_moments_gaussian_mass():
    g = Grid(0, 2, 1, 64, 1.0, 6.0)
    f = _maxwellian(g, width2=1.0)
    mass, _, _ = conserved_moments(f.values, g)
    assert abs(mass - math.pi) < 1e-10


def test_h_functional_conventions():
    g = Grid(0, 2, 1, 2, 1.0, 0.5)  # unit-volume velocity box
    f = DistributionField(0.0, np.zeros(g.shape), g)
    assert h_functional(f) == 0.0
    f = DistributionField(0.0, np.full(g.shape, math.e), g)
    assert h_functional(f) == pytest.approx(math.e, rel=1e-13)


def test_h_decreases_on_short_anisotropic_run():
    # reduced-size version of the entropy regression
    g = Grid(0, 2, 1, 48, 1.0, 8.0)
    v1, v2 = g.v_mesh()
    f = DistributionField(0.0, np.exp(-(v1 / 1.5) ** 2 - (v2 / 0.8) ** 2), g)
    p = KernelParams(-1.0, 2)
    state = RunState()
    h_prev = h_functional(f)
    tol = 1e-10 * abs(h_prev)
    for _ in range(4):
        f = collision_substep(f, 0.02, p, 0.5, state)
        h = h_functional(f)
        assert h - h_prev <= tol
        h_prev = h
