"""Convolution coefficients a_bar = a * f, b_bar = b * f, c_bar = c * f.

The convolutions act in velocity only, independently per spatial cell.  The
kernel is tabulated once per (velocity grid, gamma) as exact cell averages
(module kernel) over the difference lattice, then applied either directly
(reference, O(n_v^{2 d_v})) or by zero-padded cyclic FFT convolution on a
(2 n_v)^{d_v} lattice, which reproduces the non-periodic convolution exactly
because index differences never wrap.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NegativeInput
from .kernel import KernelParams, cell_averaged_kernel, kernel_c, kernel_divergence, kernel_matrix, SINGULAR_CELL_RADIUS
from .phase_state import DistributionField, Grid

_TABLE_CACHE = {}
# Spatial cells per FFT pass.  A block's spectra stay in cache: at d_v = 2,
# n_v = 64 one pass over 320 cells took 1.6x as long as blocks of 8.
CELL_BLOCK = 8


def _sym_pairs(d):
    """Index pairs of the upper triangle of a d x d symmetric matrix."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def kernel_tables(grid: Grid, p: KernelParams):
    """Cell-averaged kernel components on the velocity difference lattice.

    Returns (tables, fft_tables): tables is a dict name -> array over offsets
    k in [-(n_v-1), n_v-1]^{d_v}; fft_tables holds the rfftn of each table laid
    out periodically on the (2 n_v)^{d_v} lattice (offset k at index k mod 2 n_v).
    """
    key = (grid.n_v, grid.d_v, round(grid.dv, 14), round(p.gamma, 14))
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]

    d = grid.d_v
    n = grid.n_v
    dv = grid.dv
    m = 2 * n
    off = np.arange(-(n - 1), n)
    mesh = np.array(np.meshgrid(*([off] * d), indexing="ij"))
    z = mesh.reshape(d, -1).T * dv

    amat = kernel_matrix(z, p)
    r2 = np.sum(z * z, axis=-1)
    origin = r2 == 0.0
    zs = np.where(origin[:, None], 1.0, z)
    bvec = kernel_divergence(zs, p)
    cval = kernel_c(zs, p)
    bvec[origin] = 0.0
    cval[origin] = 0.0

    # Replace midpoint values by exact cell averages near the singularity.
    near = np.flatnonzero(np.sqrt(r2) < SINGULAR_CELL_RADIUS * dv)
    for idx in near:
        amat[idx] = cell_averaged_kernel(z[idx], dv, p, "matrix")
        bvec[idx] = cell_averaged_kernel(z[idx], dv, p, "divergence")
        cval[idx] = cell_averaged_kernel(z[idx], dv, p, "c")

    lattice_shape = (2 * n - 1,) * d
    tables = {}
    for i, j in _sym_pairs(d):
        tables[f"a{i}{j}"] = amat[:, i, j].reshape(lattice_shape)
    for i in range(d):
        tables[f"b{i}"] = bvec[:, i].reshape(lattice_shape)
    tables["c"] = cval.reshape(lattice_shape)

    # Periodic layout on the padded lattice and its real FFT.
    idx = off % m
    fft_tables = {}
    v_axes = tuple(range(d))
    for name, tab in tables.items():
        padded = np.zeros((m,) * d)
        dest = np.ix_(*([idx] * d))
        padded[dest] = tab
        fft_tables[name] = np.fft.rfftn(padded, axes=v_axes)

    _TABLE_CACHE[key] = (tables, fft_tables)
    return _TABLE_CACHE[key]


@dataclass
class CoefficientFields:
    """Per-cell convolution coefficients with their evaluation time."""

    time: float
    grid: Grid
    a_bar: np.ndarray  # shape + (d, d)
    b_bar: np.ndarray  # shape + (d,)
    c_bar: np.ndarray  # shape, or None when not computed


def _validate_nonnegative(values):
    peak = float(np.max(values, initial=0.0))
    if peak > 0.0 and float(np.min(values)) < -1e-14 * peak:
        raise NegativeInput("distribution has negative values beyond round-off")
    return np.maximum(values, 0.0)


def compute_coefficients(f: DistributionField, p: KernelParams, method="fft", with_c=True):
    """Convolve f with the cell-averaged kernel tables, per spatial cell.

    with_c=False skips c_bar (left None), which the divergence form never reads.
    """
    grid = f.grid
    d = grid.d_v
    if d != p.d:
        raise ValueError("grid velocity dimension and kernel dimension differ")
    vals = _validate_nonnegative(f.values)
    tables, fft_tables = kernel_tables(grid, p)
    n = grid.n_v
    m = 2 * n
    xshape = vals.shape[: grid.d_x]
    nxc = int(np.prod(xshape, dtype=int)) if grid.d_x else 1
    fv = vals.reshape((nxc,) + (n,) * d)
    scale = grid.dv ** d
    names = [name for name in tables if with_c or name != "c"]

    out = {}
    if method == "fft":
        # rfftn and irfftn on the padded lattice, one axis at a time, so that
        # only the lines holding data or kept outputs are transformed: the
        # lines past n of the input are zero and those past n of the output
        # are discarded.  Every kept value is bitwise the full transform's.
        for name in names:
            out[name] = np.empty(fv.shape)
        for lo in range(0, nxc, CELL_BLOCK):
            cells = slice(lo, lo + CELL_BLOCK)
            fhat = np.fft.rfft(fv[cells], m, axis=d)
            for ax in range(d - 1, 0, -1):
                fhat = np.fft.fft(fhat, m, axis=ax)
            for name in names:
                conv = fhat * fft_tables[name][None]
                for ax in range(1, d):
                    conv = np.fft.ifft(conv, m, axis=ax)[(slice(None),) * ax + (slice(0, n),)]
                out[name][cells] = np.fft.irfft(conv, m, axis=d)[..., :n] * scale
    elif method == "direct":
        for name in names:
            tab = tables[name]
            acc = np.zeros_like(fv)
            it = np.ndindex(*((n,) * d))
            for j in it:
                w = fv[(slice(None),) + j]
                block = tab[tuple(slice(n - 1 - jj, m - 1 - jj) for jj in j)]
                acc += w[(slice(None),) + (None,) * d] * block[None]
            out[name] = acc * scale
    else:
        raise ValueError(f"unknown method {method!r}")

    full = vals.shape
    a_bar = np.empty(full + (d, d))
    for i, j in _sym_pairs(d):
        comp = out[f"a{i}{j}"].reshape(full)
        a_bar[..., i, j] = comp
        a_bar[..., j, i] = comp
    b_bar = np.empty(full + (d,))
    for i in range(d):
        b_bar[..., i] = out[f"b{i}"].reshape(full)
    c_bar = out["c"].reshape(full) if with_c else None
    return CoefficientFields(f.time, grid, a_bar, b_bar, c_bar)


def coefficient_sup_norms(coeffs: CoefficientFields, gamma, vb, xtb):
    """Sup norms of a_bar driving the decay-rate diagnostics.

    plain:          sup <v>^-(2+gamma) max_ij |a_bar|
    weighted_down:  sup <x-tv>^-min{1,2+gamma} <v>^-max{0,1+gamma} max_ij |a_bar|
    c_sup:          sup |c_bar|

    vb = <v> and xtb = <x-tv> at coeffs.time, both over the grid's shape.

    <x-tv> pairs only the first d_x velocity axes with x.  The null structure
    a(z) z = 0 makes weighted_down decay faster than plain by the predicted
    gain min{1, 2+gamma} only for d_x = d_v.  With an unpaired velocity axis,
    a_bar does not vanish on the ray x = t v and the gain is 0.
    """
    # max_ij |a_bar| over the upper triangle, one component at a time
    amax = np.abs(coeffs.a_bar[..., 0, 0])
    for i, j in _sym_pairs(coeffs.a_bar.shape[-1])[1:]:
        np.maximum(amax, np.abs(coeffs.a_bar[..., i, j]), out=amax)
    plain = float(np.max(amax / vb ** (2.0 + gamma)))
    wdown = amax / xtb ** min(1.0, 2.0 + gamma) / vb ** max(0.0, 1.0 + gamma)
    weighted = float(np.max(wdown))
    return {
        "plain": plain,
        "weighted_down": weighted,
        "c_sup": float(np.max(np.abs(coeffs.c_bar))),
    }
