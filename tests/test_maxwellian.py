"""Traveling Maxwellian family: constraints, evaluation, moment fit."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landau.threads
from landau.cli import main, save_checkpoint
from landau.config import SimulationConfig, initial_data
from landau.errors import ConstraintViolated, ZeroMass
from landau.maxwellian import (MaxwellianFit, TravelingMaxwellianParams,
                               eval_maxwellian, fit_maxwellian,
                               maxwellian_sharp, maxwellian_sharp_field)
from landau.phase_state import DistributionField, Grid


def _params_2d(m=1.0, alpha=1.0, sigma=1.0, beta=0.3, b01=0.4):
    b = np.array([[0.0, b01], [-b01, 0.0]])
    return TravelingMaxwellianParams(m, alpha, sigma, beta, b)


def test_validate_accepts_legal_params():
    _params_2d().validate(2)


def test_validate_rejects_bad_params():
    with pytest.raises(ConstraintViolated):
        TravelingMaxwellianParams(1.0, -1.0, 1.0, 0.0, np.zeros((2, 2))).validate(2)
    with pytest.raises(ConstraintViolated):
        TravelingMaxwellianParams(1.0, 1.0, 1.0, 0.0, np.ones((2, 2))).validate(2)
    # beta^2 >= alpha sigma with B = 0 breaks positive definiteness
    with pytest.raises(ConstraintViolated):
        TravelingMaxwellianParams(1.0, 1.0, 1.0, 1.0, np.zeros((2, 2))).validate(2)


def test_validate_checks_the_precision_of_the_paired_axes_only():
    # B_12 couples two velocity axes without a spatial partner: it enters
    # Q = (alpha sigma - beta^2) I + B^2 (not PD here) but not S or M-sharp
    b = np.zeros((3, 3))
    b[1, 2], b[2, 1] = 2.0, -2.0
    p = TravelingMaxwellianParams(1.0, 1.0, 1.0, 0.0, b)
    assert np.min(np.linalg.eigvalsh((1.0 * np.eye(3) + b @ b))) < 0.0
    g = Grid(1, 3, 8, 8, 10.0, 5.0)
    field = maxwellian_sharp_field(p, g)
    assert np.all(np.isfinite(field.values)) and np.max(field.values) > 0.0
    assert np.allclose(np.linalg.eigvalsh(p.precision(1)), 1.0)
    # at d_x = d_v the same B is a coupling: S has the Schur complement Q / sigma
    with pytest.raises(ConstraintViolated):
        p.validate(3)


def test_sharp_equals_time_slices():
    # M-sharp(x, v) = M(t, x + t v, v) for every t
    p = _params_2d()
    x = np.array([0.3, -0.7])
    v = np.array([1.1, 0.4])
    ref = maxwellian_sharp(p, x, v)
    for t in (0.5, 2.0, 9.0):
        assert math.isclose(eval_maxwellian(p, t, x + t * v, v), ref, rel_tol=1e-12)


def test_total_integral_is_mass_parameter():
    # integral of M-sharp over (x, v) equals m
    p = _params_2d(m=2.3)
    g = Grid(2, 2, 48, 48, 24.0, 6.0)
    field = maxwellian_sharp_field(p, g)
    total = float(np.sum(field.values)) * g.cell_volume
    assert total == pytest.approx(2.3, rel=1e-6)


def test_sharp_field_matches_pointwise_eval():
    p = _params_2d()
    g = Grid(1, 2, 8, 8, 10.0, 3.0)
    field = maxwellian_sharp_field(p, g)
    xs = g.x_axis()
    vs = g.v_axis()
    for i in (0, 3):
        for j in (1, 5):
            for k in (2, 6):
                ref = maxwellian_sharp(p, np.array([xs[i]]),
                                       np.array([vs[j], vs[k]]))
                assert field.values[i, j, k] == pytest.approx(ref, rel=1e-12)


def test_fit_recovers_in_family_field():
    p = _params_2d(m=1.7, alpha=1.2, sigma=0.9, beta=0.25, b01=0.3)
    g = Grid(2, 2, 40, 40, 26.0, 7.0)
    field = maxwellian_sharp_field(p, g)
    fit = fit_maxwellian(field)
    norm = math.sqrt(float(np.sum(field.values ** 2)) * g.cell_volume)
    assert fit.residual <= 1e-8 * norm
    assert fit.params.m == pytest.approx(1.7, rel=1e-3)
    assert fit.params.alpha == pytest.approx(1.2, rel=1e-2)
    assert fit.params.sigma == pytest.approx(0.9, rel=1e-2)


def test_fit_reduced_spatial_dimension():
    b = np.zeros((2, 2))
    p = TravelingMaxwellianParams(1.0, 1.1, 0.8, 0.2, b)
    g = Grid(1, 2, 48, 32, 26.0, 7.0)
    field = maxwellian_sharp_field(p, g)
    fit = fit_maxwellian(field)
    norm = math.sqrt(float(np.sum(field.values ** 2)) * g.cell_volume)
    assert fit.residual <= 1e-7 * norm
    assert fit.params.sigma == pytest.approx(0.8, rel=1e-2)
    assert fit.params.alpha == pytest.approx(1.1, rel=1e-2)
    assert fit.params.beta == pytest.approx(0.2, abs=1e-2)


def test_fit_zero_mass_gate():
    g = Grid(0, 2, 1, 8, 1.0, 1.0)
    f = DistributionField(0.0, np.zeros(g.shape), g)
    with pytest.raises(ZeroMass):
        fit_maxwellian(f)


def test_fit_off_family_leaves_residual():
    # two bumps are far from any single Maxwellian: residual stays large
    g = Grid(0, 2, 1, 32, 1.0, 6.0)
    v1, v2 = g.v_mesh()
    vals = np.exp(-((v1 - 2.0) ** 2 + v2 ** 2)) + np.exp(-((v1 + 2.0) ** 2 + v2 ** 2))
    f = DistributionField(0.0, vals, g)
    fit = fit_maxwellian(f)
    norm = math.sqrt(float(np.sum(vals ** 2)) * g.cell_volume)
    assert isinstance(fit, MaxwellianFit)
    assert fit.residual > 0.1 * norm


@settings(max_examples=25, deadline=None)
@given(scale=st.lists(st.floats(0.95, 1.05), min_size=5, max_size=5))
def test_fit_converges_on_perturbed_in_family_fields(scale):
    # every in-family draw within 5% of the defaults must converge, not only the defaults
    true = [1.7, 1.2, 0.9, 0.25, 0.3]
    m, alpha, sigma, beta, b01 = (s * t for s, t in zip(scale, true))
    p = _params_2d(m=m, alpha=alpha, sigma=sigma, beta=beta, b01=b01)
    g = Grid(2, 2, 16, 16, 14.0, 6.0)
    field = maxwellian_sharp_field(p, g)
    fit = fit_maxwellian(field)
    norm = math.sqrt(float(np.sum(field.values ** 2)) * g.cell_volume)
    assert fit.converged
    assert fit.residual <= 1e-8 * norm
    got = (fit.params.m, fit.params.alpha, fit.params.sigma, fit.params.beta, fit.params.B[0, 1])
    for value, want in zip(got, (m, alpha, sigma, beta, b01)):
        assert value == pytest.approx(want, rel=1e-6)


def test_fit_keeps_features_that_vanish_on_the_grid(tmp_path, capsys):
    # one x cell centred at x = 0: the alpha, beta and B features are all 0
    g = Grid(1, 2, 1, 16, 10.0, 5.0)
    assert np.all(g.x_axis() == 0.0)
    p = TravelingMaxwellianParams(1.0, 2.0, 1.2, 0.0, np.zeros((2, 2)))
    field = maxwellian_sharp_field(p, g)
    fit = fit_maxwellian(field)
    norm = math.sqrt(float(np.sum(field.values ** 2)) * g.cell_volume)
    assert fit.converged
    assert fit.residual <= 1e-8 * norm
    assert fit.params.sigma == pytest.approx(1.2, rel=1e-6)

    path = str(tmp_path / "one_cell.lndk")
    save_checkpoint(path, field, -1.0)
    assert main(["maxfit", path]) == 0
    assert "converged True" in capsys.readouterr().out


def _slab_fields():
    """Fields of 3, 6 and 3 default slabs: in-family at d_x = 1 and d_x = d_v = 2,
    and the two-bump seed, whose beta and B are 0 by symmetry."""
    one = maxwellian_sharp_field(_params_2d(m=1.0, alpha=1.1, sigma=0.8, beta=0.2, b01=0.15),
                                 Grid(1, 2, 192, 32, 26.0, 7.0))
    two = maxwellian_sharp_field(_params_2d(m=1.7, alpha=1.2, sigma=0.9, beta=0.25, b01=0.3),
                                 Grid(2, 2, 24, 24, 26.0, 7.0))
    seed = initial_data(SimulationConfig(
        gamma=-1.0, d0=0.2, epsilon=1e-3, d_x=1, d_v=2, n_x=192, n_v=32, L_x=200.0,
        v_max=8.0, t_final=0.0, initial_kind="seed",
        initial_parameters={"x_width": 10.0, "v_width": 1.0, "bump_velocity": [2.0]}))
    return {"d_x=1": (one, False), "d_x=d_v=2": (two, False), "two_bump": (seed, True)}


def _fit_tuple(fit):
    p = fit.params
    return (p.m, p.alpha, p.sigma, p.beta, p.B.tolist(), fit.residual, fit.converged)


@pytest.mark.parametrize("name", ["d_x=1", "d_x=d_v=2", "two_bump"])
def test_fit_does_not_depend_on_the_threads(name, monkeypatch):
    field, _ = _slab_fields()[name]
    assert len(landau.threads.slab_rows(field.grid)) > 1
    fits = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 7):
            with ThreadPoolExecutor(threads) as pool:
                monkeypatch.setattr(landau.threads, "_POOL", pool)
                fits.append(_fit_tuple(fit_maxwellian(field)))
    finally:
        sys.setswitchinterval(interval)
    assert fits[0] == fits[1]


@pytest.mark.parametrize("name", ["d_x=1", "d_x=d_v=2", "two_bump"])
def test_fit_slabs_move_it_within_round_off(name, monkeypatch):
    # the slabs' sums against one slab over the whole field
    field, symmetric = _slab_fields()[name]
    assert len(landau.threads.slab_rows(field.grid)) > 1
    slabs = fit_maxwellian(field)
    monkeypatch.setattr(landau.threads, "SLAB_POINTS", field.values.size)
    assert len(landau.threads.slab_rows(field.grid)) == 1
    whole = fit_maxwellian(field)
    assert slabs.converged and whole.converged
    for got, want in [(slabs.params.m, whole.params.m), (slabs.params.alpha, whole.params.alpha),
                      (slabs.params.sigma, whole.params.sigma), (slabs.residual, whole.residual)]:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    sigma = whole.params.sigma
    for got, want in [(slabs.params.beta, whole.params.beta),
                      (slabs.params.B[1, 0], whole.params.B[1, 0])]:
        if symmetric:
            assert abs(got) <= 1e-14 * sigma and abs(want) <= 1e-14 * sigma
        else:
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
