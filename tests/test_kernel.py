"""Pointwise kernel values, contraction identities, and cell averages."""

import math

import numpy as np
import pytest

import landau.kernel
from landau.coefficients import kernel_tables
from landau.errors import GammaOutOfRange, SingularPoint
from landau.kernel import (QUAD_MAX_DEPTH, QUAD_REL_TOL, KernelParams, cell_averaged_kernel,
                           cell_averages, contraction_identities, kernel_c, kernel_divergence,
                           kernel_matrix)
from landau.phase_state import Grid


def test_params_reject_gamma_outside_range():
    for bad in (-2.0, 0.0, 0.5, -3.0):
        with pytest.raises(GammaOutOfRange):
            KernelParams(bad, 2)
    with pytest.raises(ValueError):
        KernelParams(-1.0, 4)


def test_matrix_is_projection_times_power():
    p = KernelParams(-1.0, 3)
    z = np.array([1.0, 2.0, -2.0])  # |z| = 3
    a = kernel_matrix(z, p)
    r = 3.0
    expected = (np.eye(3) - np.outer(z, z) / r ** 2) * r ** (p.gamma + 2.0)
    assert np.allclose(a, expected, rtol=1e-14)
    # a z = 0: projection annihilates its own direction
    assert np.max(np.abs(a @ z)) < 1e-14
    # symmetric positive semidefinite
    assert np.allclose(a, a.T)
    assert np.min(np.linalg.eigvalsh(a)) > -1e-15


def test_matrix_vanishes_at_origin():
    p = KernelParams(-0.5, 2)
    a = kernel_matrix(np.zeros(2), p)
    assert np.all(a == 0.0)


def test_divergence_matches_finite_difference_of_matrix():
    rng = np.random.default_rng(3)
    h = 1e-6
    for d in (2, 3):
        for gamma in (-0.5, -1.0, -1.5):
            p = KernelParams(gamma, d)
            for _ in range(20):
                z = rng.normal(size=d)
                if np.linalg.norm(z) < 0.5:
                    z = z + 1.0
                b = kernel_divergence(z, p)
                fd = np.zeros(d)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    fd += (kernel_matrix(z + e, p)[:, j]
                           - kernel_matrix(z - e, p)[:, j]) / (2.0 * h)
                assert np.allclose(fd, b, rtol=1e-6, atol=1e-8)


def test_c_matches_finite_difference_of_divergence():
    rng = np.random.default_rng(4)
    h = 1e-5
    for d in (2, 3):
        for gamma in (-0.5, -1.3):
            p = KernelParams(gamma, d)
            for _ in range(20):
                z = rng.normal(size=d) * 2.0
                if np.linalg.norm(z) < 1.0:
                    z = z + 2.0
                c = kernel_c(z, p)
                fd = 0.0
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = h
                    fd += (kernel_divergence(z + e, p)[i]
                           - kernel_divergence(z - e, p)[i]) / (2.0 * h)
                assert abs(fd - c) < 1e-6 * max(abs(c), 1.0)


def test_c_reduces_to_classical_constant_at_d3():
    for gamma in (-0.3, -1.0, -1.7):
        p = KernelParams(gamma, 3)
        z = np.array([0.6, -0.2, 1.1])
        r = np.linalg.norm(z)
        expected = -2.0 * (gamma + 3.0) * r ** gamma
        assert math.isclose(kernel_c(z, p), expected, rel_tol=1e-13)


def test_singular_points_raise():
    p = KernelParams(-1.0, 2)
    with pytest.raises(SingularPoint):
        kernel_divergence(np.zeros(2), p)
    with pytest.raises(SingularPoint):
        kernel_c(np.zeros(2), p)


def test_contraction_identities_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        gamma = float(rng.uniform(-1.99, -0.01))
        p = KernelParams(gamma, d)
        v = rng.normal(size=d) * 3.0
        vs = rng.normal(size=d) * 3.0
        if np.linalg.norm(v - vs) < 1e-8:
            continue
        out = contraction_identities(v, vs, p)
        z = np.linalg.norm(v - vs)
        amp = z ** p.gamma
        # normalize by the natural magnitude of the terms, not the expected
        # value, which can vanish by cancellation when v and vs align
        scale = amp * z * np.linalg.norm(v) * (np.linalg.norm(v) + np.linalg.norm(vs))
        assert np.max(np.abs(out["a_dot_v"] - out["a_dot_v_expected"])) <= 1e-12 * scale
        scale2 = amp * z ** 2 * np.linalg.norm(v) ** 2
        assert abs(out["a_vv"] - out["a_vv_expected"]) <= 1e-12 * scale2
        assert out["pythagorean_ok"]


def test_cell_average_far_cell_is_midpoint():
    p = KernelParams(-1.0, 2)
    center = np.array([3.0, 1.0])
    avg = cell_averaged_kernel(center, 0.1, p, "matrix")
    assert np.allclose(avg, kernel_matrix(center, p))


def test_cell_average_origin_frozen_anchor():
    # cell average of |z|^-1 over the square of side h centered at the origin
    # is (4/h) ln(1 + sqrt(2)); c = -(d-1)(d+gamma)|z|^gamma = -|z|^-1 at
    # gamma = -1, d = 2.
    p = KernelParams(-1.0, 2)
    h = 0.25
    avg = cell_averaged_kernel(np.zeros(2), h, p, "c")
    exact = -(4.0 / h) * math.log(1.0 + math.sqrt(2.0))
    assert math.isclose(avg, exact, rel_tol=1e-8)


def test_cell_average_origin_divergence_is_odd():
    # b is odd under z -> -z, so its average over a centered cell vanishes.
    p = KernelParams(-0.5, 2)
    avg = cell_averaged_kernel(np.zeros(2), 0.2, p, "divergence")
    assert np.max(np.abs(avg)) < 1e-10


def test_cell_average_near_singular_cell_quadrature():
    # off-origin cell touching the singularity: check against a dense
    # midpoint reference on a refined subgrid
    p = KernelParams(-1.2, 2)
    center = np.array([0.1, 0.0])
    spacing = 0.2
    avg = cell_averaged_kernel(center, spacing, p, "matrix")
    n = 400
    u = center[0] - 0.5 * spacing + (np.arange(n) + 0.5) * (spacing / n)
    w = center[1] - 0.5 * spacing + (np.arange(n) + 0.5) * (spacing / n)
    zz = np.stack(np.meshgrid(u, w, indexing="ij"), axis=-1).reshape(-1, 2)
    ref = np.mean(kernel_matrix(zz, p), axis=0)
    assert np.allclose(avg, ref, rtol=2e-3, atol=1e-4)


def test_cell_average_matrix_trace_positive_at_origin_cell():
    p = KernelParams(-1.5, 2)
    avg = cell_averaged_kernel(np.zeros(2), 0.3, p, "matrix")
    assert np.trace(avg) > 0.0
    assert np.min(np.linalg.eigvalsh(avg)) >= 0.0


_KERNELS = {"matrix": kernel_matrix, "divergence": kernel_divergence, "c": kernel_c}


def _midpoint_average(center, spacing, p, which, n):
    """Mean of the kernel component over n^d midpoints of the cell."""
    axes = [c - 0.5 * spacing + (np.arange(n) + 0.5) * (spacing / n) for c in center]
    zz = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
    return np.mean(_KERNELS[which](zz, p), axis=0)


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0)])
def test_cell_average_near_singular_cells_in_three_dimensions(center):
    # the origin cell and a cell with the origin on a face, against a dense
    # midpoint reference (48^3 points; the error halves about every 1.5x in n)
    p = KernelParams(-1.2, 3)
    center = np.array(center)
    for which in ("matrix", "divergence", "c"):
        avg = np.asarray(cell_averaged_kernel(center, 0.2, p, which))
        ref = _midpoint_average(center, 0.2, p, which, 48)
        if which == "divergence" and not center.any():
            # odd under z -> -z: both vanish
            assert np.max(np.abs(avg)) < 1e-10
            continue
        assert np.max(np.abs(avg - ref)) <= 2e-3 * np.max(np.abs(ref))


def _near_centers(d, spacing):
    """The centres of the cells within SINGULAR_CELL_RADIUS of the origin."""
    off = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")).reshape(d, -1).T
    return off * spacing


@pytest.mark.parametrize("d, gamma", [(2, -1.7), (3, -1.0)])
def test_cell_averages_do_not_depend_on_chunks_or_batches(d, gamma, monkeypatch):
    p = KernelParams(gamma, d)
    centers = _near_centers(d, 0.3)
    # cells off the lattice: the origin on a face, and at a corner
    centers = np.concatenate([centers, [[0.15] + [0.0] * (d - 1), [0.15] * d]])
    for which in ("matrix", "divergence", "c"):
        together = cell_averages(centers, 0.3, p, which)
        alone = np.array([cell_averages(c[None], 0.3, p, which)[0] for c in centers])
        reversed_ = cell_averages(centers[::-1], 0.3, p, which)[::-1]
        assert np.array_equal(together, alone)
        assert np.array_equal(together, reversed_)
        # one box per kernel call
        monkeypatch.setattr(landau.kernel, "QUAD_CHUNK_NODES", 3)
        assert np.array_equal(cell_averages(centers, 0.3, p, which), together)
        monkeypatch.undo()


def _recursive_average(center, spacing, p, which):
    """The depth-first reference: each box recurses into its 2^d children."""
    d = len(center)
    kernel, shift = {"matrix": (kernel_matrix, 2.0), "divergence": (kernel_divergence, 1.0),
                     "c": (kernel_c, 0.0)}[which]
    ncomp = int(np.prod(np.shape(kernel(np.ones(d), p))))
    nodes = 0.5 * (np.polynomial.legendre.leggauss(4)[0] + 1.0)
    weights = 0.5 * np.polynomial.legendre.leggauss(4)[1]
    corners = np.array(np.meshgrid(*([[0, 1]] * d), indexing="ij")).reshape(d, -1).T

    def rule(sign, lo, hi):
        pts = np.array(np.meshgrid(*[lo[a] + (hi[a] - lo[a]) * nodes for a in range(d)],
                                   indexing="ij")).reshape(d, -1).T
        w = weights
        for _ in range(d - 1):
            w = np.multiply.outer(w, weights)
        return np.sum(w.reshape(-1, 1) * kernel(pts * sign, p).reshape(len(pts), ncomp),
                      axis=0) * float(np.prod(hi - lo))

    def box(sign, lo, hi, tol=None, depth=0):
        half = 0.5 * (hi - lo)
        fine = np.zeros(ncomp)
        for s in corners:
            fine = fine + rule(sign, lo + s * half, lo + s * half + half)
        if tol is None:
            tol = QUAD_REL_TOL * (np.max(np.abs(fine)) + 1e-300)
        if depth >= QUAD_MAX_DEPTH or np.max(np.abs(fine - rule(sign, lo, hi))) <= tol:
            return fine
        total = np.zeros(ncomp)
        for s in corners:
            total += box(sign, lo + s * half, lo + s * half + half, tol / 2 ** d, depth + 1)
        return total

    lo, hi = center - 0.5 * spacing, center + 0.5 * spacing
    if not (np.all(lo <= 0.0) and np.all(hi >= 0.0)):
        return box(np.ones(d), lo, hi) / spacing ** d
    total = np.zeros(ncomp)
    for s in corners:
        extent = np.where(s == 1, hi, -lo)
        if np.any(extent <= 0.0):
            continue
        shell = np.zeros(ncomp)
        for q in corners[1:]:
            shell += box(np.where(s == 1, 1.0, -1.0), q * 0.5 * extent, q * 0.5 * extent + 0.5 * extent)
        total += shell / (1.0 - 2.0 ** (-(d + (p.gamma + shift))))
    return total / spacing ** d


def test_cell_averages_sum_the_leaves_in_depth_first_order():
    # the breadth-first quadrature is the depth-first one bit for bit: the
    # same rule, budget, depth cap and order of the sums
    p = KernelParams(-1.6, 2)
    centers = np.concatenate([_near_centers(2, 0.25), [[0.125, 0.0], [0.125, 0.125]]])
    for which in ("matrix", "divergence", "c"):
        got = cell_averages(centers, 0.25, p, which).reshape(len(centers), -1)
        want = np.array([_recursive_average(c, 0.25, p, which) for c in centers])
        assert np.array_equal(got, want), which


@pytest.mark.parametrize("d, n_v, gamma", [(2, 8, -1.0), (2, 9, -1.9), (3, 5, -1.9), (3, 6, -0.5)])
def test_kernel_tables_have_the_kernel_symmetries(d, n_v, gamma):
    # a_ii and c are even in every axis, a_ij (i != j) is odd in axes i and
    # j, b_i is odd in axis i; near and far cells alike
    tables, _ = kernel_tables(Grid(0, d, 1, n_v, 1.0, 3.0), KernelParams(gamma, d))
    for name, tab in tables.items():
        odd = {int(c) for c in name[1:]} if name[0] in "ab" else set()
        if name[0] == "a" and name[1] == name[2]:
            odd = set()
        scale = np.max(np.abs(tab))
        for axis in range(d):
            sign = -1.0 if axis in odd else 1.0
            assert np.max(np.abs(np.flip(tab, axis) - sign * tab)) <= 1e-14 * scale, (name, axis)
