"""Convolution coefficients: FFT vs direct, structure, sup norms."""

import os
import signal
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import landau.coefficients
import landau.threads
from landau.coefficients import (block_cells, cell_blocks, coefficient_pass, compute_coefficients,
                                 coefficient_sup_norms, kernel_tables, table_bounds)
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


def _component(coeffs, name):
    """The output array of the kernel table called name (a01, b1, c, ...)."""
    if name == "c":
        return coeffs.c_bar
    if name[0] == "b":
        return coeffs.b_bar[int(name[1])]
    return coeffs.a_bar[int(name[1])][int(name[2])]


def test_fft_matches_direct():
    g = Grid(0, 2, 1, 12, 1.0, 3.0)
    p = KernelParams(-1.0, 2)
    rng = np.random.default_rng(5)
    f = DistributionField(0.0, rng.random(g.shape), g)
    fast = compute_coefficients(f, p, method="fft")
    slow = compute_coefficients(f, p, method="direct")
    for name in ("a_bar", "b_bar", "c_bar"):
        a = np.array(getattr(fast, name))
        b = np.array(getattr(slow, name))
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)


def test_fft_matches_direct_3d():
    g = Grid(0, 3, 1, 6, 1.0, 2.0)
    p = KernelParams(-0.7, 3)
    rng = np.random.default_rng(6)
    f = DistributionField(0.0, rng.random(g.shape), g)
    fast = compute_coefficients(f, p, method="fft")
    slow = compute_coefficients(f, p, method="direct")
    assert np.allclose(np.array(fast.a_bar), np.array(slow.a_bar), atol=1e-12)
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
    fft_tables = kernel_tables(grid, p)[1]
    for name, that in fft_tables.items():
        conv = np.fft.irfftn(fhat * that[None], s=(m,) * d, axes=axes)
        want = conv[(slice(None),) + (slice(0, n),) * d] * grid.dv ** d
        assert np.array_equal(_component(out, name), want), name


def test_components_are_shared_contiguous_field_arrays():
    # one array per distinct component, of the field's shape, with no tensor
    # copy; 32 blocks, so that the blocks' temporaries weigh less than a field
    g = Grid(2, 2, 64, 16, 10.0, 3.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.random.default_rng(9).random(g.shape), g)
    kernel_tables(g, p)
    tracemalloc.start()
    try:
        out = compute_coefficients(f, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.a_bar[0][1] is out.a_bar[1][0]
    for comp in [*out.a_bar[0], *out.a_bar[1], *out.b_bar, out.c_bar]:
        assert comp.shape == g.shape
        assert comp.flags["C_CONTIGUOUS"]
    assert peak <= 8 * f.values.nbytes


def test_a_bar_positive_semidefinite_and_symmetric():
    g = Grid(0, 2, 1, 24, 1.0, 4.0)
    p = KernelParams(-1.0, 2)
    f = _gaussian_field(g)
    out = compute_coefficients(f, p)
    a_bar = np.moveaxis(np.array(out.a_bar), (0, 1), (-2, -1))
    assert np.allclose(a_bar, np.swapaxes(a_bar, -1, -2))
    eigs = np.linalg.eigvalsh(a_bar.reshape(-1, 2, 2))
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
    assert np.allclose(np.array(o2.a_bar), 2.5 * np.array(o1.a_bar), rtol=1e-12)
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


def test_pass_checks_the_sign_before_any_block():
    g = Grid(1, 2, 20, 8, 10.0, 1.0)
    p = KernelParams(-1.0, 2)
    vals = np.ones(g.shape)
    vals[17, 3, 4] = -1e-3
    seen = []
    with pytest.raises(NegativeInput):
        coefficient_pass(DistributionField(0.0, vals, g), p, "ac",
                         lambda cells, c: seen.append(cells), np.arange(20))
    assert seen == []


def test_pass_hands_each_block_its_requested_tables(monkeypatch):
    monkeypatch.setattr(landau.threads, "_THREADS", 2)
    g = Grid(1, 2, 80, 32, 10.0, 2.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.random.default_rng(12).random(g.shape), g)
    full = compute_coefficients(f, p)
    a01 = full.a_bar[0][1].reshape(80, 32, 32)
    c = full.c_bar.reshape(80, 32, 32)

    def check(cells, coeffs):
        assert coeffs.b_bar is None
        return (cells, np.array_equal(coeffs.a_bar[1][0], a01[cells])
                and np.array_equal(coeffs.c_bar, c[cells]))

    results = coefficient_pass(f, p, "ac", check, np.arange(80))
    # blocks of at most 2^15 velocity points, 32 cells: 3 blocks, rounded up
    # to 4 for the 2 threads, of 20 cells each
    assert block_cells(g) == 32
    assert [list(cells) for cells, _ in results] == [list(range(lo, lo + 20))
                                                     for lo in range(0, 80, 20)]
    assert all(ok for _, ok in results)


def test_pass_visits_only_the_given_cells(monkeypatch):
    monkeypatch.setattr(landau.threads, "_THREADS", 2)
    g = Grid(1, 2, 80, 32, 10.0, 2.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.random.default_rng(16).random(g.shape), g)
    c = compute_coefficients(f, p).c_bar.reshape(80, 32, 32)
    cells = np.array([0, 2, 3, 7, 8, 9] + list(range(20, 60)) + [79])
    results = coefficient_pass(f, p, "ac", lambda block, coeffs: (
        block, np.array_equal(coeffs.c_bar, c[block])), cells)
    # blocks of at most 32 cells: the 47 given ones in two blocks, of 23 and 24
    assert [list(block) for block, _ in results] == [list(cells[:23]), list(cells[23:])]
    assert all(ok for _, ok in results)
    assert coefficient_pass(f, p, "ac", lambda block, coeffs: 1, cells[:0]) == []


@pytest.mark.parametrize("count, size, threads, sizes", [
    (28, 8, 2, [7, 7, 7, 7]),       # near_vacuum's data cells: not 8, 8, 8 and 4
    (28, 8, 1, [7, 7, 7, 7]),
    (80, 32, 2, [20, 20, 20, 20]),  # 3 blocks of at most 32, rounded up to 4
    (80, 32, 1, [26, 27, 27]),
    (17, 8, 2, [4, 4, 4, 5]),
    (9, 8, 2, [4, 5]),
    (3, 8, 4, [1, 1, 1]),           # never more blocks than cells
    (1, 8, 2, [1]),
    (0, 8, 2, []),
])
def test_cell_blocks_are_the_fewest_near_equal_blocks(count, size, threads, sizes, monkeypatch):
    monkeypatch.setattr(landau.threads, "_THREADS", threads)
    blocks = cell_blocks(count, size)
    assert [hi - lo for lo, hi in blocks] == sizes
    assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
    assert blocks == [] or (blocks[0][0], blocks[-1][1]) == (0, count)


@pytest.mark.parametrize("d, n_v, gamma", [(2, 12, -1.9), (2, 9, -1.0), (3, 5, -0.1)])
def test_table_bounds_bound_every_table_entry(d, n_v, gamma):
    g = Grid(0, d, 1, n_v, 1.0, 3.0)
    p = KernelParams(gamma, d)
    tables, _ = kernel_tables(g, p)
    k_a, a_max, c_max = table_bounds(g, p)
    assert table_bounds(g, p) == (k_a, a_max, c_max)
    z = np.arange(-(n_v - 1), n_v) * g.dv
    mesh = np.meshgrid(*[z] * d, indexing="ij")
    weight = np.sqrt(1.0 + sum(m ** 2 for m in mesh)) ** (2.0 + gamma)
    ratios = [np.abs(tables[name]) / weight for name in tables if name[0] == "a"]
    assert len(ratios) == d * (d + 1) // 2
    # K_a is attained, and bounds every component at every offset
    assert k_a == max(float(np.max(r)) for r in ratios)
    assert a_max == max(float(np.max(np.abs(tables[name]))) for name in tables if name[0] == "a")
    assert c_max == float(np.max(np.abs(tables["c"])))


def test_pass_is_bitwise_the_same_with_one_cell_blocks(monkeypatch):
    g = Grid(1, 2, 40, 32, 10.0, 3.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.random.default_rng(15).random(g.shape), g)
    rule = compute_coefficients(f, p)
    monkeypatch.setattr(landau.coefficients, "BLOCK_POINTS", 1)
    assert block_cells(g) == 1
    cells = compute_coefficients(f, p)
    for name in ("a_bar", "b_bar", "c_bar"):
        assert np.array_equal(np.array(getattr(rule, name)), np.array(getattr(cells, name)))


def test_pass_is_bitwise_the_same_on_any_number_of_threads(monkeypatch):
    # more threads than cores, switching often, each writing its own cells of 8 blocks
    g = Grid(2, 2, 16, 32, 10.0, 3.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.random.default_rng(13).random(g.shape), g)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 7):
            with ThreadPoolExecutor(threads) as pool:
                monkeypatch.setattr(landau.threads, "_POOL", pool)
                results.append(compute_coefficients(f, p))
    finally:
        sys.setswitchinterval(interval)
    one, many = results
    for name in ("a_bar", "b_bar", "c_bar"):
        assert np.array_equal(np.array(getattr(one, name)), np.array(getattr(many, name)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool():
    # the child inherits the parent's pool object but none of its threads
    g = Grid(1, 2, 20, 8, 10.0, 2.0)
    p = KernelParams(-1.0, 2)
    f = DistributionField(0.0, np.random.default_rng(14).random(g.shape), g)
    want = compute_coefficients(f, p).c_bar
    pid = os.fork()
    if pid == 0:
        os._exit(0 if np.array_equal(compute_coefficients(f, p).c_bar, want) else 3)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class _KeepingPool:
    """A pool whose workers never let go of a task, the function and the
    arguments they were handed; a concurrent.futures worker holds its last one
    until it takes the next."""

    def __init__(self, threads):
        self.threads = threads
        self.kept = []

    def map(self, fn, *iterables):
        self.kept.append((fn, iterables))
        with ThreadPoolExecutor(self.threads) as pool:
            return list(pool.map(fn, *iterables))


def _tagger(held):
    def fn(i):
        time.sleep(0.001 * (i % 3))
        return i, type(held).__name__

    return fn


def test_pool_map_keeps_order_and_lets_go_of_its_jobs(monkeypatch):
    # what fn holds dies with the caller's last reference, however long the
    # workers hold their tasks
    class Held:
        pass

    for threads in (1, 7):
        pool = _KeepingPool(threads)
        monkeypatch.setattr(landau.threads, "_POOL", pool)
        fn = _tagger(Held())
        alive = weakref.ref(fn.__closure__[0].cell_contents)
        got = landau.threads.pool_map(fn, range(10))
        del fn
        assert pool.kept and alive() is None
        assert got == [(i, "Held") for i in range(10)]


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
        assert np.allclose(out.a_bar[i][k], block * scale, atol=1e-13)


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
    raw = float(np.max(np.abs(np.array(out.a_bar))))
    assert sups["plain"] <= raw * (1.0 + 1e-12)
    assert sups["weighted_down"] <= raw * (1.0 + 1e-12)
