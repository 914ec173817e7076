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
from .kernel import KernelParams, cell_averages, kernel_c, kernel_divergence, kernel_matrix, SINGULAR_CELL_RADIUS
from .phase_state import DistributionField, Grid, bracket
from .threads import pool_map, pool_threads

_TABLE_CACHE = {}
_BOUND_CACHE = {}
# Values below CLIP_REL_TOL of a field's peak are round-off: negatives that
# small pass the sign check and the clip.
CLIP_REL_TOL = 1e-14
# The coefficient passes of the stepper and the record visit only the cells
# whose max f is at least DATA_TOL of the peak (data_cells).  Q is quadratic in
# a cell's f, and the CFL step caps h |a_bar| / dv^2, so a skipped cell's
# update h |Q| stays below about DATA_TOL^2 = CLIP_REL_TOL of the peak.
DATA_TOL = CLIP_REL_TOL ** 0.5
# Velocity points per block of the coefficient pass.  A block's spectra stay
# in cache, and fewer blocks make fewer of the consumers' numpy calls, which
# hold the GIL.  The record's pass on 2 threads (medians of 7): at d_v = 2,
# n_v = 64, 71, 66, 86 and 95 ms in blocks of 4, 8, 16 and 32 cells; at
# n_v = 32, 718, 442, 427 and 377 ms.  2^15 points are 8 cells at n_v = 64
# and 32 cells at n_v = 32.
BLOCK_POINTS = 2 ** 15


def block_cells(grid: Grid):
    """Spatial cells per block of the coefficient pass: BLOCK_POINTS velocity points, at least 1."""
    return max(1, BLOCK_POINTS // grid.n_v ** grid.d_v)


def cell_blocks(count, size):
    """Ranges (lo, hi) of count cells in the fewest near-equal blocks of at most size cells.

    The block count is rounded up to a multiple of pool_threads(), and is at
    most count, so that the threads get near-equal shares: 28 cells in blocks
    of at most 8 on 2 threads are 4 blocks of 7, not 8, 8, 8 and 4.
    """
    if count == 0:
        return []
    threads = pool_threads()
    blocks = -(-count // size)
    blocks = min(count, -(-blocks // threads) * threads)
    edges = [i * count // blocks for i in range(blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _sym_pairs(d):
    """Index pairs of the upper triangle of a d x d symmetric matrix."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def _table_key(grid: Grid, p: KernelParams):
    return (grid.n_v, grid.d_v, round(grid.dv, 14), round(p.gamma, 14))


def kernel_tables(grid: Grid, p: KernelParams):
    """Cell-averaged kernel components on the velocity difference lattice.

    Returns (tables, fft_tables): tables is a dict name -> array over offsets
    k in [-(n_v-1), n_v-1]^{d_v}; fft_tables holds the rfftn of each table laid
    out periodically on the (2 n_v)^{d_v} lattice (offset k at index k mod 2 n_v).
    """
    key = _table_key(grid, p)
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
    amat[near] = cell_averages(z[near], dv, p, "matrix")
    bvec[near] = cell_averages(z[near], dv, p, "divergence")
    cval[near] = cell_averages(z[near], dv, p, "c")

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


def table_bounds(grid: Grid, p: KernelParams):
    """(K_a, max |a_ij|, max |c|) over the kernel tables of grid and p, cached with them.

    K_a = max_k max_ij |a_ij[k]| / <z_k>^(2+gamma) over the lattice offsets z_k
    = k dv, so that |a_ij[k]| <= K_a <z_k>^(2+gamma) at every offset.  The
    record bounds its coefficient sups by these (diagnostics.sup_bounds).
    """
    key = _table_key(grid, p)
    if key not in _BOUND_CACHE:
        tables, _ = kernel_tables(grid, p)
        d = grid.d_v
        first, *rest = (np.abs(tables[f"a{i}{j}"]) for i, j in _sym_pairs(d))
        amax = first
        for comp in rest:
            np.maximum(amax, comp, out=amax)
        z = np.arange(-(grid.n_v - 1), grid.n_v) * grid.dv
        z2 = sum((z ** 2).reshape([z.size if b == a else 1 for b in range(d)]) for a in range(d))
        _BOUND_CACHE[key] = (float(np.max(amax / bracket(z2) ** (2.0 + p.gamma))),
                             float(np.max(amax)), float(np.max(np.abs(tables["c"]))))
    return _BOUND_CACHE[key]


@dataclass
class CoefficientFields:
    """Per-cell convolution coefficients, one array per component.

    a_bar[i][j] is the same array as a_bar[j][i]; b_bar[i] is component i.
    """

    a_bar: tuple  # d x d nested tuple of arrays
    b_bar: tuple  # d-tuple of arrays, or None when not computed
    c_bar: np.ndarray  # or None when not computed


def _fields(comp, d):
    """CoefficientFields of the arrays in comp, keyed by kernel table name."""
    a_bar = tuple(tuple(comp[f"a{min(i, j)}{max(i, j)}"] for j in range(d)) for i in range(d))
    b_bar = tuple(comp[f"b{i}"] for i in range(d)) if "b0" in comp else None
    return CoefficientFields(a_bar, b_bar, comp.get("c"))


def _table_names(d, tables):
    """Names of the kernel tables of the kinds in tables ("a", "b", "c"), in table order."""
    names = [f"a{i}{j}" for i, j in _sym_pairs(d)] + [f"b{i}" for i in range(d)] + ["c"]
    return [name for name in names if name[0] in tables]


def _checked_tables(f: DistributionField, p: KernelParams):
    """kernel_tables of f's grid, once the kernel's dimension and f's sign are checked."""
    if f.grid.d_v != p.d:
        raise ValueError("grid velocity dimension and kernel dimension differ")
    peak = float(np.max(f.values, initial=0.0))
    if peak > 0.0 and float(np.min(f.values)) < -CLIP_REL_TOL * peak:
        raise NegativeInput("distribution has negative values beyond round-off")
    return kernel_tables(f.grid, p)


def cell_view(values, grid: Grid):
    """values of the grid's shape viewed as (spatial cells,) + (n_v,) * d_v."""
    return values.reshape((-1,) + (grid.n_v,) * grid.d_v)


def data_cells(values, grid: Grid):
    """The cells of cell_view(values, grid) whose max is at least DATA_TOL of the peak.

    An increasing index array, empty when no value is positive: the
    coefficients of max(f, 0) vanish there.  With d_x = 0 the one cell holds
    the peak, so it is always picked.
    """
    cell_max = np.max(cell_view(values, grid), axis=tuple(range(1, grid.d_v + 1)))
    peak = float(np.max(cell_max))
    return np.flatnonzero(cell_max >= DATA_TOL * peak) if peak > 0.0 else np.arange(0)


def _convolve_block(fv, fft_tables, names, grid: Grid):
    """The named convolution outputs of the block of cells fv, each of fv's shape.

    rfft and irfft on the padded lattice, one axis at a time, so that only the
    lines holding data or kept outputs are transformed: the lines past n of the
    input are zero and those past n of the output are discarded.  Every kept
    value is bitwise the full transform's.
    """
    n, d = grid.n_v, grid.d_v
    m = 2 * n
    fhat = np.fft.rfft(fv, m, axis=d)
    for ax in range(d - 1, 0, -1):
        fhat = np.fft.fft(fhat, m, axis=ax)
    out = {}
    for name in names:
        conv = fhat * fft_tables[name][None]
        for ax in range(1, d):
            conv = np.fft.ifft(conv, m, axis=ax)[(slice(None),) * ax + (slice(0, n),)]
        out[name] = np.fft.irfft(conv, m, axis=d)[..., :n] * grid.dv ** d
    return out


def coefficient_pass(f: DistributionField, p: KernelParams, tables, consume, cells):
    """consume(block, coeffs) on every block of the given spatial cells of f.

    tables names the kernel tables to convolve: "a" and any of "b" and "c".
    cells, an increasing index array of the cell axis of cell_view(f.values,
    grid), picks the cells to visit.  The blocks are the cell_blocks of those
    cells in blocks of at most block_cells(f.grid): block is an index array of
    cells, and coeffs holds the block's convolution outputs in that layout,
    with b_bar or c_bar None when not asked for.  The blocks run on the pool
    of threads, each consumer on the thread of its block, so a consumer writes
    only to its own cells.  Returns the consumers' results in block order.
    Each cell's arithmetic does not depend on the others, so neither do the
    results on the number of threads, the block size or the cells visited.
    """
    grid = f.grid
    _, fft_tables = _checked_tables(f, p)
    names = _table_names(grid.d_v, tables)
    fv = cell_view(f.values, grid)

    def block(bounds):
        picked = cells[slice(*bounds)]
        comp = _convolve_block(np.maximum(fv[picked], 0.0), fft_tables, names, grid)
        return consume(picked, _fields(comp, grid.d_v))

    return pool_map(block, cell_blocks(len(cells), block_cells(grid)))


def compute_coefficients(f: DistributionField, p: KernelParams, method="fft"):
    """Convolve f with the cell-averaged kernel tables, per spatial cell.

    Every cell is visited.  method "direct" is the O(n_v^(2 d_v)) sum, a
    reference for the FFT.
    """
    grid = f.grid
    d = grid.d_v
    names = _table_names(d, "abc")
    fv = cell_view(f.values, grid)
    if method == "fft":
        out = {name: np.empty(fv.shape) for name in names}

        def store(cells, block):
            for dst, src in zip(out.values(), _components(block)):
                dst[cells] = src

        coefficient_pass(f, p, "abc", store, np.arange(len(fv)))
    elif method == "direct":
        lattice, _ = _checked_tables(f, p)
        fv = np.maximum(fv, 0.0)
        n = grid.n_v
        out = {}
        for name in names:
            tab = lattice[name]
            acc = np.zeros_like(fv)
            for j in np.ndindex(*((n,) * d)):
                w = fv[(slice(None),) + j]
                block = tab[tuple(slice(n - 1 - jj, 2 * n - 1 - jj) for jj in j)]
                acc += w[(slice(None),) + (None,) * d] * block[None]
            out[name] = acc * grid.dv ** d
    else:
        raise ValueError(f"unknown method {method!r}")
    return _fields({name: arr.reshape(f.values.shape) for name, arr in out.items()}, d)


def distinct_a_bar(coeffs: CoefficientFields):
    """The distinct components a_bar[i][j], i <= j."""
    return [coeffs.a_bar[i][j] for i, j in _sym_pairs(len(coeffs.a_bar))]


def _components(coeffs: CoefficientFields):
    """The distinct computed component arrays, in kernel table order."""
    comps = distinct_a_bar(coeffs) + list(coeffs.b_bar or ()) + [coeffs.c_bar]
    return [comp for comp in comps if comp is not None]


def coefficient_sup_norms(coeffs: CoefficientFields, gamma, vb, xtb):
    """Sup norms of a_bar driving the decay-rate diagnostics.

    plain:          sup <v>^-(2+gamma) max_ij |a_bar|
    weighted_down:  sup <x-tv>^-min{1,2+gamma} <v>^-max{0,1+gamma} max_ij |a_bar|
    c_sup:          sup |c_bar|

    vb = <v> and xtb = <x-tv> at the field's time, each broadcasting over the
    coefficients' shape.

    <x-tv> pairs only the first d_x velocity axes with x.  The null structure
    a(z) z = 0 makes weighted_down decay faster than plain by the predicted
    gain min{1, 2+gamma} only for d_x = d_v.  With an unpaired velocity axis,
    a_bar does not vanish on the ray x = t v and the gain is 0.
    """
    # max_ij |a_bar| over the upper triangle, one component at a time
    first, *rest = distinct_a_bar(coeffs)
    amax = np.abs(first)
    for comp in rest:
        np.maximum(amax, np.abs(comp), out=amax)
    plain = float(np.max(amax / vb ** (2.0 + gamma)))
    wdown = amax / xtb ** min(1.0, 2.0 + gamma) / vb ** max(0.0, 1.0 + gamma)
    weighted = float(np.max(wdown))
    return {
        "plain": plain,
        "weighted_down": weighted,
        "c_sup": float(np.max(np.abs(coeffs.c_bar))),
    }
