"""Grid geometry, field storage, and weight functions."""

import math

import numpy as np
import pytest

from landau.errors import GridMismatch, WeightOverflow
from landau.phase_state import (DistributionField, Grid, WeightSpec, bracket,
                                gaussian_exponent, gaussian_weight_field)


def test_grid_axes_are_cell_centers():
    g = Grid(1, 2, 4, 6, 8.0, 3.0)
    assert g.dx == 2.0
    assert g.dv == 1.0
    assert np.allclose(g.x_axis(), [-3.0, -1.0, 1.0, 3.0])
    assert np.allclose(g.v_axis(), [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    assert g.shape == (4, 6, 6)
    assert g.cell_volume == 2.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, 1, 4, 4, 1.0, 1.0)  # d_x > d_v
    with pytest.raises(ValueError):
        Grid(4, 2, 4, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid(1, 2, 4, 4, -1.0, 1.0)
    # homogeneous mode and 1-d transport mode are legal
    Grid(0, 2, 1, 4, 1.0, 1.0)
    Grid(1, 1, 4, 4, 1.0, 1.0)


def test_homogeneous_grid_has_unit_spatial_volume():
    g = Grid(0, 2, 1, 4, 1.0, 2.0)
    assert g.dx == 1.0
    assert g.shape == (4, 4)


def test_wrap_x_minimal_image():
    g = Grid(1, 1, 8, 4, 10.0, 1.0)
    assert g.wrap_x(6.0) == -4.0
    assert g.wrap_x(-6.0) == 4.0
    assert g.wrap_x(3.0) == 3.0


def test_x_minus_tv_squared_wraps():
    g = Grid(1, 1, 8, 8, 10.0, 2.0)
    t = 4.0
    val = g.x_minus_tv_squared(t)
    x = g.x_axis()[:, None]
    v = g.v_axis()[None, :]
    ref = g.wrap_x(x - t * v) ** 2
    assert np.allclose(val, ref)
    assert np.max(val) <= 25.0 + 1e-12


def test_field_shape_check():
    g = Grid(0, 2, 1, 4, 1.0, 1.0)
    with pytest.raises(GridMismatch):
        DistributionField(0.0, np.zeros((3, 4)), g)


def test_field_mass_constant_density():
    g = Grid(0, 2, 1, 10, 1.0, 1.0)
    f = DistributionField(0.0, np.ones(g.shape), g)
    assert math.isclose(f.mass(), 4.0, rel_tol=1e-14)


def test_gaussian_exponent_decreases_from_2d0_to_d0():
    spec = WeightSpec(d0=0.5, delta=0.1)
    assert math.isclose(gaussian_exponent(0.0, spec), 1.0)
    assert gaussian_exponent(10.0, spec) < gaussian_exponent(1.0, spec)
    assert gaussian_exponent(1e9, spec) > 0.5


def test_delta_from_gamma():
    assert WeightSpec.delta_from_gamma(-1.8) == pytest.approx(0.05)
    assert WeightSpec.delta_from_gamma(-1.0) == pytest.approx(0.1)
    assert WeightSpec.delta_from_gamma(-0.2) == pytest.approx(0.1)


def test_bracket():
    assert bracket(0.0) == 1.0
    assert bracket(3.0) == 2.0


def test_gaussian_weight_overflow_gate():
    g = Grid(0, 2, 1, 8, 1.0, 40.0)
    f = DistributionField(0.0, np.ones(g.shape), g)
    spec = WeightSpec(d0=1.0, delta=0.1)
    with pytest.raises(WeightOverflow):
        gaussian_weight_field(f, spec)
