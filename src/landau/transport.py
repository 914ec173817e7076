"""Exact free transport on the periodic box and the f-sharp pullback.

Transport d_t f + v . d_x f = 0 is integrated by a spectral phase shift: each
velocity cell's spatial slice is translated by v dt exactly (for grid-sampled
band-limited data) via the FFT.  No interpolation, hence no numerical
diffusion; measured dispersion rates are physical.
"""

import numpy as np

from .phase_state import DistributionField


def _phase(grid, dt):
    """Shift phase exp(-i dt sum_a k_a v_a) over the field shape.

    The exponential is taken over the x axes and the v axes paired with them
    only, as the phase is constant along the others, and then copied out to
    the full shape: a product with a broadcast operand takes another numpy
    loop, whose last bit can differ.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_x, d=grid.dx)
    v = grid.v_axis()
    paired = (grid.n_x,) * grid.d_x + (grid.n_v,) * grid.d_x
    expo = np.zeros(paired + (1,) * (grid.d_v - grid.d_x), dtype=float)
    for a in range(grid.d_x):
        kshape = [1] * (grid.d_x + grid.d_v)
        kshape[a] = grid.n_x
        vshape = [1] * (grid.d_x + grid.d_v)
        vshape[grid.d_x + a] = grid.n_v
        expo = expo + k.reshape(kshape) * v.reshape(vshape)
    return np.broadcast_to(np.exp(-1j * dt * expo), grid.shape).copy()


def transport_shift(f: DistributionField, dt):
    """Translate each spatial slice by v dt; advance the time stamp by dt."""
    if f.grid.d_x == 0:
        return DistributionField(f.time + dt, f.values.copy(), f.grid)
    axes = tuple(range(f.grid.d_x))
    fhat = np.fft.fftn(f.values, axes=axes)
    shifted = np.fft.ifftn(fhat * _phase(f.grid, dt), axes=axes).real
    return DistributionField(f.time + dt, shifted, f.grid)


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
