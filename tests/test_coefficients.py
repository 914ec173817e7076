"""Convolution coefficients: FFT vs direct, structure, sup norms."""

import numpy as np
import pytest

from landau.coefficients import (compute_coefficients, coefficient_sup_norms,
                                 kernel_tables)
from landau.errors import NegativeInput
from landau.kernel import KernelParams
from landau.phase_state import DistributionField, Grid, bracket


def _gaussian_field(grid, widths=None, amp=1.0):
    vs = grid.v_mesh()
    widths = widths or [1.0] * grid.d_v
    expo = np.zeros(grid.shape)
    for vm, w in zip(vs, widths):
        expo = expo + (vm / w) ** 2
    return DistributionField(0.0, amp * np.exp(-expo), grid)


def test_fft_matches_direct():
    g = Grid(0, 2, 1, 12, 1.0, 3.0)
    p = KernelParams(-1.0, 2)
    rng = np.random.default_rng(5)
    f = DistributionField(0.0, rng.random(g.shape), g)
    fast = compute_coefficients(f, p, method="fft")
    slow = compute_coefficients(f, p, method="direct")
    for name in ("a_bar", "b_bar", "c_bar"):
        a = getattr(fast, name)
        b = getattr(slow, name)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)


def test_fft_matches_direct_3d():
    g = Grid(0, 3, 1, 6, 1.0, 2.0)
    p = KernelParams(-0.7, 3)
    rng = np.random.default_rng(6)
    f = DistributionField(0.0, rng.random(g.shape), g)
    fast = compute_coefficients(f, p, method="fft")
    slow = compute_coefficients(f, p, method="direct")
    assert np.allclose(fast.a_bar, slow.a_bar, atol=1e-12)
    assert np.allclose(fast.c_bar, slow.c_bar, atol=1e-12)


@pytest.mark.parametrize("grid", [Grid(1, 2, 20, 16, 10.0, 3.0), Grid(1, 3, 2, 4, 10.0, 2.0)])
def test_fft_is_bitwise_the_padded_transform(grid):
    # compute_coefficients transforms blocks of cells and only the lines that
    # hold data or kept outputs; 20 cells make two full blocks and a partial one
    p = KernelParams(-1.0, grid.d_v)
    n, m, d = grid.n_v, 2 * grid.n_v, grid.d_v
    vals = np.random.default_rng(7).random(grid.shape)
    out = compute_coefficients(DistributionField(0.0, vals, grid), p)
    padded = np.zeros((grid.n_x,) + (m,) * d)
    padded[(slice(None),) + (slice(0, n),) * d] = vals
    axes = tuple(range(1, d + 1))
    fhat = np.fft.rfftn(padded, axes=axes)
    that = kernel_tables(grid, p)[1]["c"]
    conv = np.fft.irfftn(fhat * that[None], s=(m,) * d, axes=axes)
    assert np.array_equal(out.c_bar, conv[(slice(None),) + (slice(0, n),) * d] * grid.dv ** d)


def test_with_c_false_skips_only_c_bar():
    g = Grid(1, 2, 4, 12, 10.0, 3.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.random.default_rng(8).random(g.shape), g)
    full = compute_coefficients(f, p)
    part = compute_coefficients(f, p, with_c=False)
    assert part.c_bar is None
    assert np.array_equal(part.a_bar, full.a_bar)
    assert np.array_equal(part.b_bar, full.b_bar)


def test_a_bar_positive_semidefinite_and_symmetric():
    g = Grid(0, 2, 1, 24, 1.0, 4.0)
    p = KernelParams(-1.0, 2)
    f = _gaussian_field(g)
    out = compute_coefficients(f, p)
    assert np.allclose(out.a_bar, np.swapaxes(out.a_bar, -1, -2))
    eigs = np.linalg.eigvalsh(out.a_bar.reshape(-1, 2, 2))
    assert np.min(eigs) >= -1e-12 * np.max(eigs)


def test_c_bar_nonpositive_for_nonnegative_f():
    g = Grid(0, 2, 1, 24, 1.0, 4.0)
    for gamma in (-0.5, -1.0, -1.7):
        p = KernelParams(gamma, 2)
        f = _gaussian_field(g)
        out = compute_coefficients(f, p)
        assert np.max(out.c_bar) <= 1e-14


def test_coefficients_scale_linearly_in_f():
    g = Grid(0, 2, 1, 16, 1.0, 3.0)
    p = KernelParams(-1.2, 2)
    f1 = _gaussian_field(g, amp=1.0)
    f2 = _gaussian_field(g, amp=2.5)
    o1 = compute_coefficients(f1, p)
    o2 = compute_coefficients(f2, p)
    assert np.allclose(o2.a_bar, 2.5 * o1.a_bar, rtol=1e-12)
    assert np.allclose(o2.c_bar, 2.5 * o1.c_bar, rtol=1e-12)


def test_negative_input_gate():
    g = Grid(0, 2, 1, 8, 1.0, 1.0)
    p = KernelParams(-1.0, 2)
    vals = np.ones(g.shape)
    vals[0, 0] = -1e-3
    with pytest.raises(NegativeInput):
        compute_coefficients(DistributionField(0.0, vals, g), p)
    # round-off level negatives are clipped silently
    vals[0, 0] = -1e-16
    compute_coefficients(DistributionField(0.0, vals, g), p)


def test_point_mass_reproduces_kernel_table():
    # f concentrated in one cell: a_bar(v) = a(v - v_j) f_j dv^d
    g = Grid(0, 2, 1, 10, 1.0, 2.0)
    p = KernelParams(-0.8, 2)
    vals = np.zeros(g.shape)
    j = (3, 6)
    vals[j] = 1.0
    f = DistributionField(0.0, vals, g)
    out = compute_coefficients(f, p)
    tables, _ = kernel_tables(g, p)
    n = g.n_v
    scale = g.dv ** 2
    for (i, k), name in (((0, 0), "a00"), ((0, 1), "a01"), ((1, 1), "a11")):
        tab = tables[name]
        block = tab[n - 1 - j[0]: 2 * n - 1 - j[0], n - 1 - j[1]: 2 * n - 1 - j[1]]
        assert np.allclose(out.a_bar[..., i, k], block * scale, atol=1e-13)


def test_tables_symmetry():
    g = Grid(0, 2, 1, 8, 1.0, 2.0)
    p = KernelParams(-1.0, 2)
    tables, _ = kernel_tables(g, p)
    # a(z) is even in z, b odd, c even
    for name in ("a00", "a01", "a11", "c"):
        t = tables[name]
        assert np.allclose(t, t[::-1, ::-1], atol=1e-12)
    for name in ("b0", "b1"):
        t = tables[name]
        assert np.allclose(t, -t[::-1, ::-1], atol=1e-12)


def test_sup_norms_positive_and_ordered():
    g = Grid(1, 2, 4, 16, 8.0, 3.0)
    p = KernelParams(-1.0, 2)
    x = g.x_mesh()[0]
    f = _gaussian_field(g)
    vals = f.values * np.exp(-x ** 2)
    out = compute_coefficients(DistributionField(0.0, vals, g), p)
    sups = coefficient_sup_norms(out, p.gamma, bracket(g.v_squared()),
                                 bracket(g.x_minus_tv_squared(0.0)))
    assert sups["plain"] > 0.0
    assert sups["weighted_down"] > 0.0
    assert sups["c_sup"] > 0.0
    # both weights are >= 1, so neither sup can exceed the raw sup of a_bar
    raw = float(np.max(np.abs(out.a_bar)))
    assert sups["plain"] <= raw * (1.0 + 1e-12)
    assert sups["weighted_down"] <= raw * (1.0 + 1e-12)
