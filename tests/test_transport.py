"""Spectral free transport and the sharp pullback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.phase_state import DistributionField, Grid
from landau.transport import free_solution, pullback_sharp, transport_shift


def _smooth_field(grid, seed=0):
    x = grid.x_mesh()
    v = grid.v_mesh()
    vals = np.ones(grid.shape)
    for xm in x:
        vals = vals * (1.0 + 0.3 * np.sin(2.0 * np.pi * xm / grid.L_x))
    for vm in v:
        vals = vals * np.exp(-vm ** 2)
    return DistributionField(0.0, vals, grid)


def test_round_trip_identity():
    g = Grid(1, 2, 32, 16, 12.0, 3.0)
    f = _smooth_field(g)
    back = transport_shift(transport_shift(f, 1.7), -1.7)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(f.values)
    assert back.time == pytest.approx(0.0)


def test_shift_composes():
    g = Grid(1, 1, 32, 8, 10.0, 2.0)
    f = _smooth_field(g)
    one = transport_shift(f, 0.9)
    two = transport_shift(transport_shift(f, 0.4), 0.5)
    assert np.allclose(one.values, two.values, atol=1e-13)


def test_shift_translates_band_limited_data_exactly():
    # single Fourier mode: the shift is a closed-form phase rotation
    g = Grid(1, 1, 16, 4, 8.0, 1.0)
    x = g.x_axis()[:, None]
    v = g.v_axis()[None, :]
    k = 2.0 * np.pi / g.L_x
    f = DistributionField(0.0, 1.0 + 0.5 * np.cos(k * x) * np.ones_like(v), g)
    t = 0.63
    out = transport_shift(f, t)
    expected = 1.0 + 0.5 * np.cos(k * (x - t * v))
    assert np.allclose(out.values, expected, atol=1e-13)


def test_homogeneous_mode_is_identity_plus_timestamp():
    g = Grid(0, 2, 1, 8, 1.0, 2.0)
    f = DistributionField(1.0, np.random.default_rng(1).random(g.shape), g)
    out = transport_shift(f, 2.5)
    assert out.time == pytest.approx(3.5)
    assert np.array_equal(out.values, f.values)


def test_free_solution_rejects_negative_time():
    g = Grid(1, 1, 8, 4, 4.0, 1.0)
    f = _smooth_field(g)
    with pytest.raises(ValueError):
        free_solution(f, -1.0)


def test_sharp_frozen_under_free_transport():
    g = Grid(1, 2, 32, 12, 16.0, 2.0)
    f0 = _smooth_field(g)
    s0 = pullback_sharp(f0)
    for t in (0.5, 2.0, 7.0):
        ft = free_solution(f0, t)
        st = pullback_sharp(ft)
        assert np.max(np.abs(st.values - s0.values)) <= 1e-12 * np.max(f0.values)
        assert st.time == pytest.approx(t)


def test_mass_preserved_by_shift():
    g = Grid(1, 1, 16, 8, 6.0, 1.5)
    f = _smooth_field(g)
    out = transport_shift(f, 3.3)
    assert out.values.sum() == pytest.approx(f.values.sum(), rel=1e-13)


def _without_nyquist(vals, grid):
    """vals with every Nyquist plane of the x spectrum set to zero (even n_x)."""
    axes = tuple(range(grid.d_x))
    fhat = np.fft.fftn(vals, axes=axes)
    if grid.n_x % 2 == 0:
        for a in axes:
            plane = [slice(None)] * vals.ndim
            plane[a] = grid.n_x // 2
            fhat[tuple(plane)] = 0.0
    return np.fft.ifftn(fhat, axes=axes).real


@settings(max_examples=30, deadline=None)
@given(d_x=st.integers(1, 3), n_x=st.integers(4, 9), seed=st.integers(0, 2 ** 32 - 1),
       a=st.floats(-6.0, 6.0), b=st.floats(-6.0, 6.0))
def test_round_trip_and_composition_on_band_limited_random_data(d_x, n_x, seed, a, b):
    g = Grid(d_x, 3, n_x, 4, 7.0, 2.0)
    vals = _without_nyquist(np.random.default_rng(seed).standard_normal(g.shape), g)
    f = DistributionField(0.0, vals, g)
    tol = 1e-13 * np.max(np.abs(vals))
    back = transport_shift(transport_shift(f, a), -a)
    assert np.max(np.abs(back.values - vals)) <= tol
    one = transport_shift(f, a + b)
    two = transport_shift(transport_shift(f, a), b)
    assert np.max(np.abs(one.values - two.values)) <= tol


def test_nyquist_convention():
    # n_x even: the Nyquist modes are multiplied by a cosine, or travel as -pi/dx
    g = Grid(2, 2, 8, 6, 16.0, 2.0)
    dt = 0.37
    k_nyq, k_1 = np.pi / g.dx, 2.0 * np.pi / g.L_x
    x = np.arange(g.n_x) * g.dx  # the cell offsets the FFT sees
    alt = np.cos(k_nyq * x)  # (-1)^j
    wave = np.cos(k_1 * x)
    v1, v2 = g.v_mesh()
    cases = [
        # Nyquist on the last x axis: times cos(pi v_2 dt / dx), the rest translates
        (wave[:, None, None, None] * alt[None, :, None, None],
         np.cos(k_1 * (x[:, None, None, None] - v1 * dt)) * alt[None, :, None, None]
         * np.cos(k_nyq * v2 * dt)),
        # Nyquist on the first x axis, last-axis frequency 0: times cos(pi v_1 dt / dx)
        (alt[:, None, None, None] * np.ones((1, g.n_x, 1, 1)),
         alt[:, None, None, None] * np.cos(k_nyq * v1 * dt) * np.ones((1, g.n_x, 1, 1))),
        # Nyquist on the first x axis, last-axis frequency k_1: the wave (-pi/dx, k_1) travels
        (alt[:, None, None, None] * wave[None, :, None, None],
         alt[:, None, None, None]
         * np.cos(k_1 * (x[None, :, None, None] - v2 * dt) + k_nyq * v1 * dt)),
    ]
    for data, expected in cases:
        f = DistributionField(0.0, data * np.ones(g.shape), g)
        out = transport_shift(f, dt)
        assert np.max(np.abs(out.values - expected)) <= 1e-14


def test_shift_returns_an_owned_contiguous_real_array():
    g = Grid(2, 2, 8, 6, 16.0, 2.0)
    out = transport_shift(_smooth_field(g), 0.8)
    assert out.values.dtype == np.float64
    assert out.values.flags.c_contiguous
    assert out.values.flags.owndata
