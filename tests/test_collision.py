"""Collision operator structure: conservation, equilibrium, entropy."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from landau.coefficients import cell_view, compute_coefficients
from landau.collision import (_stencil, apply_collision_divergence,
                              apply_collision_nonconservative, divergence_row_sums, h_functional)
from landau.config import SimulationConfig, initial_data
from landau.diagnostics import conserved_moments
from landau.kernel import KernelParams
from landau.phase_state import DistributionField, Grid
from landau.stepper import RunState, collision_substep
from landau.transport import transport_shift


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



def _assembled_operator(coeffs, grid):
    """The matrix A of apply_collision_divergence at one cell's coeffs, sparse, from 3^d_v probes.

    A probe is 1 at the points whose index along every axis is its color
    modulo 3.  Each point's 3^d_v box holds one point of each color, so
    Q(probe)[p] is A_pq for the one point q of that color in p's box.
    """
    d, n = grid.d_v, grid.n_v
    index = np.indices((n,) * d).reshape(d, -1)
    rows, cols, vals = [], [], []
    for color in itertools.product(range(3), repeat=d):
        color = np.reshape(color, (d, 1))
        probe = np.all(index % 3 == color, axis=0).astype(float)
        q = apply_collision_divergence(probe.reshape((n,) * d), coeffs, grid).reshape(-1)
        neighbour = index + (color - index + 1) % 3 - 1  # its offset is -1, 0 or 1 per axis
        inside = np.all((neighbour >= 0) & (neighbour < n), axis=0)
        assert np.all(q[~inside] == 0.0)
        rows.append(np.flatnonzero(inside))
        cols.append(np.ravel_multi_index(tuple(neighbour[:, inside]), (n,) * d))
        vals.append(q[inside])
    return scipy.sparse.csr_array((np.concatenate(vals), (np.concatenate(rows),
                                                           np.concatenate(cols))),
                                  shape=(n ** d, n ** d))


def _stencil_matrix(grid, offsets, weights):
    """The sparse matrix of _stencil's rows; no weight may lead out of the velocity box."""
    d, n = grid.d_v, grid.n_v
    index = np.indices((n,) * d).reshape(d, -1)
    entries = []
    for offset, row in zip(offsets, weights.reshape(len(offsets), -1)):
        neighbour = index + np.reshape(offset, (d, 1))
        inside = np.all((neighbour >= 0) & (neighbour < n), axis=0)
        assert np.all(row[~inside] == 0.0)
        entries.append((row[inside], np.flatnonzero(inside),
                        np.ravel_multi_index(tuple(neighbour[:, inside]), (n,) * d)))
    vals, rows, cols = (np.concatenate(part) for part in zip(*entries))
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(n ** d, n ** d))


def _one_cell_coefficients(values, grid, p):
    """The coefficients of the velocity profile values on a d_x = 0 grid like grid."""
    cell = Grid(0, grid.d_v, 1, grid.n_v, 1.0, grid.v_max)
    return cell, compute_coefficients(DistributionField(0.0, values, cell), p)


def _spectral_radius(a):
    if a.shape[0] <= 1000:
        return float(np.max(np.abs(np.linalg.eigvals(a.toarray()))))
    return float(np.abs(scipy.sparse.linalg.eigs(a, k=1, which="LM", tol=1e-10)[0][0]))


def _peak_cell(f):
    """f's velocity profile in the spatial cell of its peak."""
    cells = cell_view(f.values, f.grid)
    return cells[np.argmax(np.max(cells.reshape(len(cells), -1), axis=1))]


def _vacuum_cfg(d_v, n_v):
    # criterion 8's g1 config, the bench's near_vacuum one, at d_v = 2 or 3
    return SimulationConfig(
        gamma=-1.0, d0=0.2, epsilon=1e-3, d_x=1, d_v=d_v, n_x=128, n_v=n_v,
        L_x=900.0, v_max=6.0, t_final=1.0, dt_max=0.25, output_every=0.5,
        initial_kind="gaussian",
        initial_parameters={"x_width": 3.5 * 900.0 / 128, "v_width": 1.0})


def _bound_cases():
    """(name, grid, coefficients) of the fields whose row sums the tests check."""
    rng = np.random.default_rng(12)
    for d, n, gamma in ((2, 7, -1.0), (2, 2, -1.5), (3, 5, -0.7)):
        # random data up to the box edges, where the gradient is one-sided
        g = Grid(0, d, 1, n, 1.0, 2.0)
        yield f"random d_v={d} n_v={n}", *_one_cell_coefficients(rng.random(g.shape), g,
                                                                  KernelParams(gamma, d))
    for d, n in ((2, 64), (3, 32)):
        cfg = _vacuum_cfg(d, n)
        f = initial_data(cfg)
        yield f"near vacuum d_v={d}", *_one_cell_coefficients(_peak_cell(f), f.grid,
                                                               cfg.kernel_params())
        if d == 2:
            # g1's data dispersed by free transport to t = 25
            g1 = transport_shift(f, 25.0)
            yield "g1 at t = 25", *_one_cell_coefficients(_peak_cell(g1), f.grid,
                                                          cfg.kernel_params())


@pytest.fixture(scope="module")
def bound_cases():
    return [(name, g, coeffs, _assembled_operator(coeffs, g)) for name, g, coeffs in _bound_cases()]


def test_row_sums_are_those_of_the_assembled_operator(bound_cases):
    for name, g, coeffs, a in bound_cases:
        want = np.abs(a).sum(axis=1)
        got = divergence_row_sums(coeffs, g).reshape(-1)
        assert np.max(np.abs(got - want) / want) <= 1e-14, name


def test_stencil_is_the_assembled_operator(bound_cases):
    # entry by entry, signs included: the row-sum test above would pass a
    # weight of the wrong sign at a neighbour that only one face reaches
    for name, g, coeffs, a in bound_cases:
        error = abs(_stencil_matrix(g, *_stencil(coeffs, g)) - a).max(axis=1).toarray()
        assert np.all(error <= 1e-14 * np.abs(a).sum(axis=1)), name


def test_largest_row_sum_bounds_the_spectral_radius(bound_cases):
    for name, g, coeffs, a in bound_cases:
        assert float(np.max(divergence_row_sums(coeffs, g))) >= _spectral_radius(a), name
