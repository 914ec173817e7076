"""Hierarchy constants, weighted norms, the diagnostic record, and decay-rate fitting."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import landau.coefficients
import landau.diagnostics
import landau.threads
from landau.coefficients import (CLIP_REL_TOL, DATA_TOL, cell_view, coefficient_sup_norms,
                                 compute_coefficients)
from landau.collision import apply_collision_diffusion, apply_collision_nonconservative
from landau.kernel import KernelParams
from landau.config import SimulationConfig, initial_data
from landau.diagnostics import (SUP_BOUND_MARGIN, ENormAccumulator, e_norm, fit_decay_rate,
                                hierarchy_params, make_record, null_structure_gain,
                                record_derivatives, record_slabs, sharp_cauchy_diff, sup_bounds,
                                velocity_moments, z_norm)
from landau.errors import (GammaOutOfRange, GridMismatch, InsufficientPoints, NanDetected,
                           NegativeInput, NonPositiveValue)
from landau.phase_state import (DistributionField, Grid, WeightSpec, bracket, cell_extrema,
                                gaussian_exponent)
from landau.stepper import run
from landau.transport import pullback_sharp


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


def test_record_derivatives_polynomial_exact():
    # centered differences are exact on quadratics
    g = Grid(1, 1, 16, 16, 8.0, 2.0)
    x = g.x_mesh()[0]
    v = g.v_mesh()[0]
    t = 0.5
    f = DistributionField(t, (x ** 2 + 3.0 * x * v) * np.ones(g.shape), g)
    dg = dict(record_derivatives(f.values, g, t))
    assert list(dg) == list(landau.diagnostics.RECORD_ORDERS)
    assert np.array_equal(dg["abs"], f.values)
    interior = (slice(1, -1), slice(1, -1))
    assert np.allclose(dg["ab1s"][interior], (3.0 * x * np.ones_like(v))[interior], atol=1e-10)
    dx = (dg["abs1"] - dg["ab1s"]) / t
    assert np.allclose(dx[interior], (2.0 * x + 3.0 * v)[interior], atol=1e-10)


def test_y_derivative_combines_transport_direction():
    # Y = t d_x + d_v annihilates any function of x - t v
    g = Grid(1, 1, 64, 64, 16.0, 2.0)
    t = 1.25
    x = g.x_mesh()[0]
    v = g.v_mesh()[0]
    u = x - t * v
    f = DistributionField(t, np.exp(-0.1 * u ** 2), g)
    dg = dict(record_derivatives(f.values, g, t))
    interior = (slice(2, -2), slice(2, -2))
    assert np.max(np.abs(dg["abs1"][interior])) < 1e-2 * np.max(np.abs(dg["ab1s"][interior]))


@pytest.mark.parametrize("d_x, d_v, n_x, rows_per_slab", [
    (0, 2, 1, 1), (1, 2, 9, 1), (1, 2, 9, 4), (1, 3, 7, 2), (2, 2, 5, 1), (2, 2, 3, 1),
    (2, 2, 6, 3)])
def test_record_derivatives_on_slabs_are_the_full_field_differences(d_x, d_v, n_x,
                                                                     rows_per_slab, monkeypatch):
    # np.gradient over the whole field is the reference: each slab's
    # derivatives, from its halo, are that field's on the slab's rows, bitwise
    g = Grid(d_x, d_v, n_x, 8 if d_v == 2 else 5, 30.0, 3.0)
    monkeypatch.setattr(landau.threads, "SLAB_POINTS", rows_per_slab * g.n_x ** max(d_x - 1, 0)
                        * g.n_v ** d_v)
    t = 0.75
    vals = np.random.default_rng(7 * n_x + d_v).random(g.shape)
    dv1 = np.gradient(vals, g.dv, axis=d_x, edge_order=2)
    y1 = dv1 + t * np.gradient(vals, g.dx, axis=0, edge_order=2) if d_x else dv1
    slabs = record_slabs(g)
    assert len(slabs) == (-(-n_x // rows_per_slab) if d_x else 1)
    for rows, halo, inner in slabs:
        dg = dict(record_derivatives(vals[halo], g, t, inner))
        assert np.array_equal(dg["abs"], vals[rows])
        assert np.array_equal(dg["ab1s"], dv1[rows])
        assert np.array_equal(dg["abs1"], y1[rows])


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


# (|beta|, |sigma|) of each record key: none, d_v1, and Y_1 = t d_x1 + d_v1.
RECORD_KEYS = {"abs": (0, 0), "ab1s": (1, 0), "abs1": (0, 1)}


def _expected_record(f, cfg):
    """The record's fields from their formulas, and the E-norm integrand."""
    grid, t, gamma = f.grid, f.time, cfg.gamma
    hp = hierarchy_params(gamma)
    vb = bracket(grid.v_squared())
    xtb = bracket(grid.x_minus_tv_squared(t))
    coeffs = compute_coefficients(f, cfg.kernel_params())
    amax = np.max(np.abs(np.array(coeffs.a_bar)), axis=(0, 1))
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
    g = f.values * np.exp(d_t * (1.0 + grid.v_squared()))
    derivatives = dict(record_derivatives(g, grid, t))
    for key, (nb, ns) in RECORD_KEYS.items():
        k, dg = nb + ns, derivatives[key]
        xw = xtb ** (hp.M_max + 5 - ns)
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


@pytest.mark.parametrize("d_x, d_v", [(0, 2), (1, 2), (2, 2), (1, 3)])
def test_record_null_term_and_sups_are_the_full_field_ones(d_x, d_v, monkeypatch):
    # the record takes them block by block; in blocks of 8 cells, 20 and 25
    # cells end in a partial block
    n_x = {0: 1, 1: 20, 2: 5}[d_x]
    g = Grid(d_x, d_v, n_x, 12 if d_v == 2 else 6, 30.0, 3.0)
    monkeypatch.setattr(landau.coefficients, "BLOCK_POINTS", 8 * g.n_v ** d_v)
    p = KernelParams(-1.3, d_v)
    vals = np.exp(-g.v_squared()) * np.random.default_rng(20 * d_x + d_v).random(g.shape)
    f = DistributionField(0.75, vals, g)
    rec = make_record(f, p, 0.2, pullback_sharp(f), ENormAccumulator(), 0.0)
    coeffs = compute_coefficients(f, p)
    vb = bracket(g.v_squared())
    sups = coefficient_sup_norms(coeffs, p.gamma, vb, bracket(g.x_minus_tv_squared(f.time)))
    diffusion = apply_collision_diffusion(vals, coeffs, g)
    assert rec.null_term_sup == float(np.max(np.abs(diffusion) / vb ** (2.0 + p.gamma)))
    assert rec.a_bar_plain_sup == sups["plain"]
    assert rec.a_bar_weighted_sup == sups["weighted_down"]
    assert rec.c_bar_sup == sups["c_sup"]


@pytest.mark.parametrize("d_x, d_v", [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3)])
def test_record_norms_are_those_of_full_field_weights(d_x, d_v):
    # the record builds <v>, the Gaussian weight and <x> on their own axes
    g = Grid(d_x, d_v, {0: 1, 1: 9, 2: 5}[d_x], 12 if d_v == 2 else 6, 30.0, 3.0)
    p = KernelParams(-1.3, d_v)
    rng = np.random.default_rng(30 * d_x + d_v)
    vals = np.exp(-g.v_squared()) * rng.random(g.shape)
    f = DistributionField(0.75, vals, g)
    sharp0 = DistributionField(0.0, np.exp(-g.v_squared()) * rng.random(g.shape), g)
    acc = ENormAccumulator()
    acc.add(0.0, 2.0)
    rec = make_record(f, p, 0.2, sharp0, acc, 0.0)

    hp = hierarchy_params(p.gamma)
    vsq = np.broadcast_to(g.v_squared(), g.shape).copy()
    vb, xtb = bracket(vsq), bracket(g.x_minus_tv_squared(f.time))
    d_t = gaussian_exponent(f.time, WeightSpec.from_gamma(p.gamma, 0.2))
    weighted = vals * np.exp(d_t * (1.0 + vsq))
    derivatives = dict(record_derivatives(weighted, g, f.time))
    for key, (nb, ns) in RECORD_KEYS.items():
        k, dg = nb + ns, derivatives[key]
        xw = xtb ** (hp.M_max + 5 - ns)
        assert rec.Z_norms[key] == z_norm(dg, vb, xw, f.time, nb, hp.zeta[k], hp.theta[k])
        # the record sums the norm's square slab by slab
        assert rec.E_norms[key] == pytest.approx(e_norm(dg, xw, f.time, nb, g.cell_volume),
                                                 rel=1e-14, abs=0.0)
        if key == "abs":
            want = ENormAccumulator()
            want.add(0.0, 2.0)
            want.add(f.time, (1.0 + f.time) ** (-1.0 - hp.delta)
                     * float(np.sum((vb * xw * dg) ** 2)) * g.cell_volume)
            assert rec.E_norms["abs_Lt2"] == pytest.approx(want.value, rel=1e-14, abs=0.0)
    xb = bracket(g.x_minus_tv_squared(0.0))
    diff = np.abs(pullback_sharp(f).values - sharp0.values)
    assert rec.sharp_diff_vs_t0 == float(np.max(vb ** 2 * xb ** 2.0 * diff)) > 0.0


@pytest.mark.parametrize("d_x", [1, 2])
def test_record_sups_skip_round_off_cells(d_x, monkeypatch):
    # every other x cell holds round-off, below CLIP_REL_TOL of the peak, and
    # some of those hold -1e-15 of it; every fourth holds 1e-9 of its data,
    # above CLIP_REL_TOL but below DATA_TOL of the peak.  Only the rest are
    # visited, and the sups are the full-field ones
    g = Grid(d_x, 2, {1: 20, 2: 6}[d_x], 12, 30.0, 3.0)
    p = KernelParams(-1.3, 2)
    vals = np.exp(-g.v_squared()) * np.random.default_rng(40 + d_x).random(g.shape)
    cells = cell_view(vals, g)
    cells[1::2] *= 0.5 * CLIP_REL_TOL
    cells[1::4, :3, 5] = -1e-15 * np.max(vals)
    cells[2::4] *= 1e-9
    assert np.all(np.max(cells[2::4], axis=(1, 2)) >= CLIP_REL_TOL * np.max(vals))
    assert np.all(np.max(cells[2::4], axis=(1, 2)) < DATA_TOL * np.max(vals))
    f = DistributionField(0.75, vals, g)
    visited = []
    convolve_cells = landau.diagnostics.convolve_cells

    def pass_over(*args):
        visited.extend(args[-1])
        return convolve_cells(*args)
    monkeypatch.setattr(landau.diagnostics, "convolve_cells", pass_over)
    rec = make_record(f, p, 0.2, pullback_sharp(f), ENormAccumulator(), 0.0)
    assert visited == list(range(0, cells.shape[0], 4))
    coeffs = compute_coefficients(f, p)
    vb = bracket(g.v_squared())
    sups = coefficient_sup_norms(coeffs, p.gamma, vb, bracket(g.x_minus_tv_squared(f.time)))
    diffusion = apply_collision_diffusion(np.maximum(vals, 0.0), coeffs, g)
    assert rec.null_term_sup == float(np.max(np.abs(diffusion) / vb ** (2.0 + p.gamma)))
    assert rec.a_bar_plain_sup == sups["plain"]
    assert rec.a_bar_weighted_sup == sups["weighted_down"]
    assert rec.c_bar_sup == sups["c_sup"]
    zero = DistributionField(0.75, np.zeros(g.shape), g)
    rec = make_record(zero, p, 0.2, zero, ENormAccumulator(), 0.0)
    sups = (rec.null_term_sup, rec.a_bar_plain_sup, rec.a_bar_weighted_sup, rec.c_bar_sup)
    assert sups == (0.0,) * 4


def test_record_refuses_negative_input_before_any_block(monkeypatch):
    # the negative value sits in a cell below DATA_TOL of the peak, which no
    # coefficient pass would visit: the record checks the sign of every cell
    g = Grid(1, 2, 12, 8, 20.0, 3.0)
    p = KernelParams(-1.0, 2)
    vals = np.exp(-g.v_squared()) * np.ones(g.shape)
    cells = cell_view(vals, g)
    peak = np.max(vals)
    cells[5] *= 1e-9
    cells[5, 3, 4] = -1e-3 * peak
    assert cell_extrema(vals, g.d_v)[0, 5] < DATA_TOL * peak
    visited = []
    monkeypatch.setattr(landau.diagnostics, "convolve_cells", lambda *args: visited.append(args))
    f = DistributionField(0.5, vals, g)
    with pytest.raises(NegativeInput):
        make_record(f, p, 0.2, f, ENormAccumulator(), 0.0)
    assert visited == []



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_record_and_coefficients_refuse_a_nonfinite_field(bad, monkeypatch):
    # a NaN peak once passed the sign check and picked no data cell, so the
    # record read coefficient sups of 0.0, as for a vacuum.  The record's
    # slab pass and f-sharp shift run before the check, and their FFTs warn
    # on an infinity
    g = Grid(1, 2, 12, 8, 20.0, 3.0)
    p = KernelParams(-1.0, 2)
    vals = np.exp(-g.v_squared()) * np.ones(g.shape)
    vals[7, 2, 5] = bad
    f = DistributionField(0.5, vals, g)
    visited = []
    monkeypatch.setattr(landau.diagnostics, "convolve_cells", lambda *args: visited.append(args))
    with pytest.raises(NanDetected):
        make_record(f, p, 0.2, f, ENormAccumulator(), 0.0)
    assert visited == []
    for method in ("fft", "direct"):
        with pytest.raises(NanDetected):
            compute_coefficients(f, p, method)


def _cell_sups(f, p):
    """Each cell's null term and coefficient sups, from full-field coefficients: shape (cells, 4)."""
    g, s = f.grid, 2.0 + p.gamma
    coeffs = compute_coefficients(f, p)
    vb, xtb = bracket(g.v_squared()), bracket(g.x_minus_tv_squared(f.time))
    amax = np.max(np.abs(np.array(coeffs.a_bar)), axis=(0, 1))
    per_point = [np.abs(apply_collision_diffusion(f.values, coeffs, g)) / vb ** s, amax / vb ** s,
                 amax / xtb ** min(1.0, s) / vb ** max(0.0, 1.0 + p.gamma), np.abs(coeffs.c_bar)]
    v_axes = tuple(range(1, g.d_v + 1))
    return np.stack([np.max(cell_view(x, g), axis=v_axes) for x in per_point], axis=1)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d_v=st.sampled_from([2, 3]), gamma=st.sampled_from([-1.9, -1.0, -0.1]),
       t=st.floats(0.0, 4.0))
def test_sup_bounds_bound_each_cells_sups(data, d_v, gamma, t):
    # the record skips a cell only when each of its bounds, times 1 + the
    # margin, is below a sup: so each bound must hold for the computed sups
    g = Grid(1, d_v, 3, 8 if d_v == 2 else 5, 20.0, 3.0)
    p = KernelParams(gamma, d_v)
    if data.draw(st.booleans()):
        vals = data.draw(hnp.arrays(float, g.shape, elements=st.floats(0.0, 1.0)))
    else:
        # a few spikes: a spike's c-bar peaks at |c[0]| f dv^d, its bound
        vals = np.zeros(g.shape)
        for index in data.draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in g.shape)),
                                        min_size=1, max_size=4)):
            vals[index] = data.draw(st.floats(1e-3, 1.0))
    f = DistributionField(t, vals, g)
    null_weight = bracket(g.v_squared()).reshape((g.n_v,) * d_v) ** (2.0 + gamma)
    bounds = sup_bounds(f, p, np.arange(g.n_x), null_weight)
    assert bounds.shape == (g.n_x, 4)
    assert np.all(bounds * (1.0 + SUP_BOUND_MARGIN) >= _cell_sups(f, p))


def _sup_cells_off_the_densest(g, kind):
    """Ten cells of near-equal mass, and six of 1e-3 of it: Gaussians of widths
    0.3 to 1.5, or bumps of width 0.5 drifting from v_1 = -1 to 2.6, near the
    velocity edge at 4."""
    v1, v2 = g.v_mesh()
    c = np.arange(g.n_x).reshape(-1, 1, 1)
    mass = np.where(c < 10, 1.0, 1e-3) / (1.0 + 0.05 * c)
    if kind == "widths":
        width = 0.3 + 0.08 * c
        return mass * np.exp(-(v1 ** 2 + v2 ** 2) / width ** 2) / width ** 2
    drift = -1.0 + 3.6 * c / (g.n_x - 1)
    return mass * np.exp(-((v1 - drift) ** 2 + v2 ** 2) / 0.25)


@pytest.mark.parametrize("gamma, kind", [(-1.9, "drift"), (-1.0, "widths"), (-1.0, "drift"),
                                         (-0.3, "widths")])
def test_record_sups_are_a_full_pass_ones_when_cells_are_skipped(gamma, kind, monkeypatch):
    # blocks of one cell, so that rounds of pool_threads() cells visit the
    # cells that can attain a sup and skip the small ones; the sups are
    # bitwise those of every data cell even where a sup is not attained in
    # the densest cell
    g = Grid(1, 2, 16, 16, 40.0, 4.0)
    p = KernelParams(gamma, 2)
    monkeypatch.setattr(landau.coefficients, "BLOCK_POINTS", g.n_v ** 2)
    f = DistributionField(0.5, _sup_cells_off_the_densest(g, kind), g)
    cells = _cell_sups(f, p)
    densest = int(np.argmax(np.sum(cell_view(f.values, g), axis=(1, 2))))
    assert any(int(np.argmax(column)) != densest for column in cells.T)
    visited = []
    convolve_cells = landau.diagnostics.convolve_cells

    def pass_over(*args):
        visited.extend(args[-1])
        return convolve_cells(*args)
    monkeypatch.setattr(landau.diagnostics, "convolve_cells", pass_over)
    rec = make_record(f, p, 0.2, pullback_sharp(f), ENormAccumulator(), 0.0)
    assert len(set(visited)) == len(visited) < g.n_x
    sups = (rec.null_term_sup, rec.a_bar_plain_sup, rec.a_bar_weighted_sup, rec.c_bar_sup)
    assert sups == tuple(float(v) for v in np.max(cells, axis=0))


@pytest.mark.parametrize("d_x, n_x", [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
def test_record_does_not_depend_on_slabs_or_threads(d_x, n_x, monkeypatch):
    # slabs of 1 and 2 rows of x_1 and of the whole box, on 1 and 2 threads;
    # at n_x = 3, 4 and 5 the halos meet the box edges
    g = Grid(d_x, 2, n_x, 8, 12.0, 3.0)
    p = KernelParams(-1.3, 2)
    rng = np.random.default_rng(50 + 10 * d_x + n_x)
    f = DistributionField(0.75, np.exp(-g.v_squared()) * rng.random(g.shape), g)
    sharp0 = DistributionField(0.0, np.exp(-g.v_squared()) * rng.random(g.shape), g)
    row = n_x ** (d_x - 1) * g.n_v ** 2
    records = []
    for rows in (n_x, 1, 2):
        monkeypatch.setattr(landau.threads, "SLAB_POINTS", rows * row)
        assert len(record_slabs(g)) == -(-n_x // rows)
        for threads in (1, 2):
            with ThreadPoolExecutor(threads) as pool:
                monkeypatch.setattr(landau.threads, "_POOL", pool)
                acc = ENormAccumulator()
                acc.add(0.0, 2.0)
                records.append(dataclasses.asdict(make_record(f, p, 0.2, sharp0, acc, 0.0)))
    whole, *others = records
    for rec in others:
        for name, value in whole.items():
            if name == "E_norms":
                assert rec[name] == pytest.approx(value, rel=1e-14, abs=0.0)
            elif name == "h_value":
                assert rec[name] == pytest.approx(value, rel=1e-14, abs=0.0)
            else:
                assert rec[name] == value, name


def test_record_takes_each_weight_and_derivative_once(monkeypatch):
    # once per slab: one velocity difference, on the slab's own rows, and
    # <x - t v> on the slab's cells
    counts = {"v_squared": 0}
    differences = []  # (axis, rows) of each difference the record takes
    cells = []

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Grid, "v_squared")
    difference = landau.diagnostics._difference

    def counted_difference(values, spacing, axis):
        differences.append((axis, len(values)))
        return difference(values, spacing, axis)
    monkeypatch.setattr(landau.diagnostics, "_difference", counted_difference)
    x_minus_tv_squared = Grid.x_minus_tv_squared

    def picked(self, t, cells_=None):
        cells.append(cells_)
        return x_minus_tv_squared(self, t, cells_)
    monkeypatch.setattr(Grid, "x_minus_tv_squared", picked)
    cfg = _record_cfg(0.0)
    # 48 x cells of 16^2 velocity points: slabs of 5 rows, the last partial
    monkeypatch.setattr(landau.threads, "SLAB_POINTS", 5 * 16 ** 2)
    records = run(cfg).records  # t_final = 0: no step, one record
    assert len(records) == 1
    slabs = record_slabs(cfg.grid())
    assert len(slabs) == 10
    # one velocity difference (axis d_x = 1) per slab, on the slab's own rows
    assert sorted(rows for axis, rows in differences if axis == 1) == [3] + [5] * 9
    # the x_1 difference of the rows inside the box is written out; at each
    # box edge it takes np.gradient's one-sided stencil on 3 rows
    assert sorted(d for d in differences if d[0] != 1) == [(0, 3), (0, 3)]
    assert counts["v_squared"] <= 3
    # <x - t v> over a slab's or a block's own cells, never the whole field:
    # once per slab, on the slab's rows as a slice of the flat cells (one
    # cell per row at d_x = 1), and on each block's index array of cells
    slab_calls = sorted((c for c in cells if isinstance(c, slice)), key=lambda c: c.start)
    assert slab_calls == [rows for rows, _, _ in slabs]
    block_calls = [c for c in cells if not isinstance(c, slice)]
    assert block_calls and all(isinstance(c, np.ndarray) for c in block_calls)


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


@pytest.mark.parametrize("d_x, d_v", [(0, 2), (1, 1), (1, 2), (2, 2), (1, 3)])
def test_velocity_moments_are_the_weighted_sums(d_x, d_v):
    # against the sums of f, v_a f and |v|^2 f / 2 over the velocity axes, to
    # round-off, each momentum component on its own axis; and cell by cell,
    # so a slab of rows gets its rows' moments bit for bit
    g = Grid(d_x, d_v, 5, {1: 16, 2: 12, 3: 6}[d_v], 10.0, 3.0)
    vals = np.random.default_rng(60 + 10 * d_x + d_v).random(g.shape) - 0.25
    rho, m, e = velocity_moments(vals, g)
    v_axes = tuple(range(d_x, d_x + d_v))
    scale = g.dv ** d_v
    size = np.sum(np.abs(vals), axis=v_axes) * scale * g.v_max ** 2
    assert rho.shape == e.shape == g.shape[:d_x] and m.shape == g.shape[:d_x] + (d_v,)
    assert np.all(np.abs(rho - np.sum(vals, axis=v_axes) * scale) <= 1e-14 * size)
    for a, va in enumerate(g.v_mesh()):
        assert np.all(np.abs(m[..., a] - np.sum(vals * va, axis=v_axes) * scale) <= 1e-14 * size)
    energy = 0.5 * np.sum(vals * g.v_squared(), axis=v_axes) * scale
    assert np.all(np.abs(e - energy) <= 1e-14 * size)
    if d_x:
        rows = velocity_moments(vals[1:3], g)
        for whole, part in zip((rho, m, e), rows):
            assert np.array_equal(whole[1:3], part)


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
