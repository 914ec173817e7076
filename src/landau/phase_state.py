"""Phase-space grid, distribution storage, and weight functions.

The spatial box is periodic, x in [-L_x/2, L_x/2) with d_x in {0, 1, 2, 3}
(d_x = 0 is the spatially homogeneous mode, a single spatial cell).  The
velocity box is the truncation [-v_max, v_max)^d_v.  Fields are stored
spatial-cell-major: values.shape = (n_x,)*d_x + (n_v,)*d_v.

Weights are the Japanese brackets <v>, <x - t v> (minimal-image on the periodic
box, using only the velocity axes paired with a spatial axis) and the
time-dependent Gaussian e^{d(t) <v>^2} with d(t) = d0 (1 + (1+t)^-delta).
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, WeightOverflow


@dataclass(frozen=True)
class Grid:
    """Uniform phase-space grid.

    d_v = 1 is permitted as an internal transport-only test mode; the collision
    kernel itself requires d_v >= 2.
    """

    d_x: int
    d_v: int
    n_x: int
    n_v: int
    L_x: float
    v_max: float

    def __post_init__(self):
        if self.d_x not in (0, 1, 2, 3):
            raise ValueError(f"d_x={self.d_x} not in {{0,1,2,3}}")
        if self.d_v not in (1, 2, 3):
            raise ValueError(f"d_v={self.d_v} not in {{1,2,3}}")
        if self.d_x > self.d_v:
            raise ValueError("spatial axes must pair with velocity axes (d_x <= d_v)")
        if self.d_x > 0 and (self.n_x < 1 or self.L_x <= 0.0):
            raise ValueError("spatial grid needs n_x >= 1 and L_x > 0")
        if self.n_v < 2 or self.v_max <= 0.0:
            raise ValueError("velocity grid needs n_v >= 2 and v_max > 0")

    @property
    def dx(self):
        return self.L_x / self.n_x if self.d_x > 0 else 1.0

    @property
    def dv(self):
        return 2.0 * self.v_max / self.n_v

    @property
    def shape(self):
        return (self.n_x,) * self.d_x + (self.n_v,) * self.d_v

    @property
    def cell_volume(self):
        return self.dx ** self.d_x * self.dv ** self.d_v

    def x_axis(self):
        """Cell centers along one spatial axis."""
        return -0.5 * self.L_x + (np.arange(self.n_x) + 0.5) * self.dx

    def v_axis(self):
        """Cell centers along one velocity axis."""
        return -self.v_max + (np.arange(self.n_v) + 0.5) * self.dv

    def v_mesh(self):
        """Velocity coordinate arrays, each broadcastable over the full shape."""
        ax = self.v_axis()
        out = []
        for a in range(self.d_v):
            shp = [1] * (self.d_x + self.d_v)
            shp[self.d_x + a] = self.n_v
            out.append(ax.reshape(shp))
        return out

    def x_mesh(self):
        ax = self.x_axis()
        out = []
        for a in range(self.d_x):
            shp = [1] * (self.d_x + self.d_v)
            shp[a] = self.n_x
            out.append(ax.reshape(shp))
        return out

    def v_squared(self):
        """|v|^2 of shape (1,)*d_x + (n_v,)*d_v, which broadcasts over the field."""
        tot = np.zeros((1,) * self.d_x + (self.n_v,) * self.d_v)
        for vv in self.v_mesh():
            tot = tot + vv ** 2
        return tot

    def wrap_x(self, u):
        """Minimal-image representative of u on the periodic box."""
        return (np.asarray(u) + 0.5 * self.L_x) % self.L_x - 0.5 * self.L_x

    def x_minus_tv_squared(self, t, cells=None):
        """|x - t v|^2 over the paired axes, minimal-image; zero if d_x = 0.

        Over the spatial cells that cells, a slice or index array of the flat
        cell axis, picks, of shape (cells,) + the velocity axes; with cells
        None, over the grid's spatial axes.  A velocity axis has length n_v
        if an x axis pairs with it, else 1, so the result broadcasts over the
        field or a block of its cells.
        """
        picked = np.arange(self.n_x ** self.d_x)
        if cells is not None:
            picked = picked[cells]
        tot = np.zeros((picked.size,) + (1,) * self.d_v)
        coords = np.unravel_index(picked, (self.n_x,) * self.d_x) if self.d_x else ()
        for a, index in enumerate(coords):
            x = self.x_axis()[index].reshape((-1,) + (1,) * self.d_v)
            v = self.v_axis().reshape([self.n_v if b == a else 1 for b in range(self.d_v)])
            tot = tot + self.wrap_x(x - t * v) ** 2
        return tot.reshape(self.shape[:self.d_x] + tot.shape[1:]) if cells is None else tot


@dataclass
class DistributionField:
    """Sampled nonnegative distribution f(t, x, v) with its time stamp."""

    time: float
    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatch(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")

    def mass(self):
        return float(np.sum(self.values)) * self.grid.cell_volume


@dataclass(frozen=True)
class WeightSpec:
    """The Gaussian weight e^{d(t)<v>^2}, d(t) = d0 (1 + (1+t)^-delta)."""

    d0: float = 1.0
    delta: float = 0.1

    @staticmethod
    def delta_from_gamma(gamma):
        """delta = min{(2+gamma)/4, 1/10} for gamma in (-2, 0)."""
        return min((2.0 + gamma) / 4.0, 0.1)

    @classmethod
    def from_gamma(cls, gamma, d0):
        return cls(d0, cls.delta_from_gamma(gamma))


def gaussian_exponent(t, spec: WeightSpec):
    """d(t) = d0 (1 + (1+t)^-delta); decreasing from 2 d0 to d0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return spec.d0 * (1.0 + (1.0 + t) ** (-spec.delta))


def cell_extrema(values, d_v):
    """The max and min of each spatial cell of values, over its last d_v axes.

    A (2, cells) array, the cells in C order: for a whole field, the rows of
    coefficients.cell_view.  NaN propagates to both rows, +inf to the max and
    -inf to the min, so a cell's values are finite exactly where both are.
    """
    axes = tuple(range(values.ndim - d_v, values.ndim))
    return np.stack([np.max(values, axis=axes).reshape(-1), np.min(values, axis=axes).reshape(-1)])


def bracket(u_squared):
    """Japanese bracket <u> = (1 + |u|^2)^(1/2) from |u|^2."""
    return np.sqrt(1.0 + u_squared)


def gaussian_weight_field(f: DistributionField, spec: WeightSpec):
    """e^{d(t)<v>^2} on the velocity axes of f's grid, shaped as Grid.v_squared."""
    vb2 = 1.0 + f.grid.v_squared()
    expo = gaussian_exponent(f.time, spec) * vb2
    if np.max(expo) > 700.0:
        raise WeightOverflow(
            "e^{d(t)<v>^2} overflows at v_max; reduce d0 or v_max")
    return np.exp(expo)
