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

from .phase_state import DistributionField


def transport_shift(f: DistributionField, dt):
    """Translate each spatial slice by v dt; advance the time stamp by dt."""
    grid = f.grid
    if grid.d_x == 0:
        return DistributionField(f.time + dt, f.values.copy(), grid)
    axes = tuple(range(grid.d_x))
    fhat = np.fft.rfftn(f.values, axes=axes)
    for a in axes:
        freq = np.fft.rfftfreq if a == grid.d_x - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(grid.n_x, d=grid.dx)
        shape = [1] * fhat.ndim
        shape[a], shape[grid.d_x + a] = k.size, grid.n_v
        fhat *= np.exp(-1j * dt * np.outer(k, grid.v_axis())).reshape(shape)
    shifted = np.fft.irfftn(fhat, s=(grid.n_x,) * grid.d_x, axes=axes)
    return DistributionField(f.time + dt, shifted, grid)


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
