"""Exact free transport on the periodic box and the f-sharp pullback.

Transport d_t f + v . d_x f = 0 is integrated by a spectral phase shift: the
half spectrum of the field over the x axes (rfftn) is multiplied by one factor
exp(-i dt k_a v_a) per x axis a and its paired velocity axis, which translates
each velocity cell's spatial slice by v dt exactly for band-limited data.  No
interpolation, hence no numerical diffusion; measured dispersion rates are
physical.  Nyquist content (even n_x) is not translated.  On the last x axis
the Nyquist plane is multiplied by cos(pi v dt / dx) of the paired velocity;
on another x axis a, a Nyquist mode is multiplied by cos(pi v_a dt / dx) where
its last-axis frequency is 0, and travels as wave number -pi/dx where it is not.
"""

import numpy as np

from .phase_state import DistributionField, cell_extrema
from .threads import pool_map, pool_threads

# Chunks of the first velocity axis per pool thread.  More chunks hold less of
# the complex spectrum at once: a 5 s free_stream bench run on 2 threads
# peaked at 261.7 MB RSS with 1 chunk per thread and at 233.3 MB with 4.  A
# chunk of the first velocity axis reads runs of n_v^(d_v-1) contiguous
# values; one shift of the free_stream field on 2 threads (medians of 20)
# took 50-56 ms in such chunks, 85-92 ms in chunks of the last axis and
# 90-102 ms in the same chunks on one thread.
CHUNKS_PER_THREAD = 4


def shift_chunk(f: DistributionField, dt, chunk, out=None):
    """f's values on a chunk of the first velocity axis, each spatial slice translated by v dt.

    Written to out if given.  A zero shift, or d_x = 0, returns a view of f's
    values.  Each line's arithmetic is its own, so the values do not depend
    on the chunk.
    """
    grid = f.grid
    cells = (slice(None),) * grid.d_x + (chunk,)
    if grid.d_x == 0 or dt == 0.0:
        return f.values[cells]
    axes = tuple(range(grid.d_x))
    ndim = grid.d_x + grid.d_v
    v = grid.v_axis()
    fhat = np.fft.rfftn(f.values[cells], axes=axes)
    for a in axes:
        freq = np.fft.rfftfreq if a == grid.d_x - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(grid.n_x, d=grid.dx)
        va = v[chunk] if a == 0 else v
        shape = [1] * ndim
        shape[a], shape[grid.d_x + a] = k.size, va.size
        fhat *= np.exp(-1j * dt * np.outer(k, va)).reshape(shape)
    return np.fft.irfftn(fhat, s=(grid.n_x,) * grid.d_x, axes=axes, out=out)


def transport_shift(f: DistributionField, dt):
    """Translate each spatial slice by v dt; advance the time stamp by dt.

    A zero shift returns an exact copy.  Otherwise chunks of the first
    velocity axis, CHUNKS_PER_THREAD per pool thread, are shifted on the pool,
    each transform writing its slice of one output array, so the result does
    not depend on the number of threads or chunks.
    """
    return _shift(f, dt, lambda out: None)[0]


def shift_with_extrema(f: DistributionField, dt):
    """transport_shift(f, dt), and the cell_extrema of its values.

    Each chunk's worker takes the extrema of its chunk of every cell as it
    writes it, and the calling thread combines those few numbers per cell.
    """
    d_v = f.grid.d_v
    out, parts = _shift(f, dt, lambda chunk: cell_extrema(chunk, d_v))
    if parts is None:
        return out, cell_extrema(out.values, d_v)
    ext = parts[0]
    for part in parts[1:]:
        np.maximum(ext[0], part[0], out=ext[0])
        np.minimum(ext[1], part[1], out=ext[1])
    return out, ext


def _shift(f: DistributionField, dt, per_chunk):
    """The shifted field and per_chunk(chunk's output) of each chunk, or None for a copy."""
    grid = f.grid
    if grid.d_x == 0 or dt == 0.0:
        return DistributionField(f.time + dt, f.values.copy(), grid), None
    shifted = np.empty(grid.shape)

    def shift(chunk):
        return per_chunk(shift_chunk(f, dt, chunk, shifted[(slice(None),) * grid.d_x + (chunk,)]))

    count = min(grid.n_v, CHUNKS_PER_THREAD * pool_threads())
    edges = [i * grid.n_v // count for i in range(count + 1)]
    parts = pool_map(shift, [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])
    return DistributionField(f.time + dt, shifted, grid), parts


def free_solution(data: DistributionField, t):
    """f_free(t, x, v) = data(x - t v, v), by a single shift of the initial data."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    out = transport_shift(DistributionField(0.0, data.values, data.grid), t)
    return out


def pullback_sharp(f: DistributionField):
    """f_sharp(x, v) = f(t, x + t v, v); constant in t for pure transport."""
    out = transport_shift(f, -f.time)
    return DistributionField(f.time, out.values, f.grid)
