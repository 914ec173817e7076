"""Radial convolution oracles for the interpolation, dispersion, HLS bounds."""

import math

import numpy as np
import pytest

from landau.errors import BranchMismatch
from landau.oracles import (RadialTestFunction, check_dispersion, check_hls,
                            check_interpolation, convolve_radial,
                            default_catalog)


def _ball():
    return RadialTestFunction("ball", lambda r: 1.0 * (np.asarray(r) <= 1.0), 1.0)


def test_two_pi_example():
    # integral over the unit ball of |z|^-1 equals 2 pi: this is the
    # convolution |.|^-1 * 1_ball evaluated at the center
    val = convolve_radial(_ball(), 1.0, 0.0)
    assert val == pytest.approx(2.0 * math.pi, rel=1e-10)


def test_convolution_against_closed_form_gaussian():
    # (|.|^-2 * e^{-r^2})(0) = 4 pi int e^{-r^2} dr = 2 pi^{3/2}
    h = RadialTestFunction("g", lambda r: np.exp(-np.asarray(r) ** 2), 10.0)
    val = convolve_radial(h, 2.0, 0.0)
    assert val == pytest.approx(2.0 * math.pi ** 1.5, rel=1e-8)


def test_convolution_far_field_matches_l1_over_r_nu():
    # far from the support, |.|^-nu * h ~ ||h||_1 R^-nu
    h = RadialTestFunction("g", lambda r: np.exp(-np.asarray(r) ** 2), 10.0)
    nu = 1.3
    big = 80.0
    val = convolve_radial(h, nu, big)
    assert val == pytest.approx(h.l1() * big ** -nu, rel=1e-3)


def test_norms_of_the_unit_ball():
    b = _ball()
    assert b.l1() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)
    assert b.l2() == pytest.approx(math.sqrt(4.0 * math.pi / 3.0), rel=1e-10)
    assert b.linf() == 1.0


def test_interpolation_finite_on_catalog_sample():
    for h in default_catalog()[:6]:
        for nu in (0.5, 1.5, 2.5):
            rep = check_interpolation(h, nu)
            assert math.isfinite(rep["ratio"])
            assert rep["ratio"] > 0.0


def test_interpolation_rejects_bad_nu():
    with pytest.raises(ValueError):
        check_interpolation(_ball(), 3.5)


def test_dispersion_closed_form():
    out = check_dispersion(t_values=np.array([0.0, 1.0, 10.0, 100.0]))
    for row in out:
        assert math.isfinite(row["ratio"])
        assert row["lhs"] <= row["bound"] * max(row["ratio"], 1.0) + 1e-300
    # at large t the Linf-from-L1x bound and the lhs share the t^-3 rate
    assert out[-1]["ratio"] == pytest.approx(out[-2]["ratio"], rel=0.5)


def test_hls_branch_gates():
    with pytest.raises(BranchMismatch):
        check_hls(_ball(), 1.0, "L2")
    with pytest.raises(BranchMismatch):
        check_hls(_ball(), 2.0, "L15over4nu")
    with pytest.raises(ValueError):
        check_hls(_ball(), 1.0, "L7")


def test_hls_finite_both_branches():
    h = default_catalog()[1]  # gaussian s=1
    for nu, branch in ((0.5, "L15over4nu"), (1.5, "L15over4nu"),
                       (2.0, "L2"), (2.8, "L2")):
        rep = check_hls(h, nu, branch)
        assert math.isfinite(rep["ratio"])
        assert rep["lhs"] > 0.0


def test_catalog_size_and_nonnegativity():
    cat = default_catalog()
    assert len(cat) == 20
    for h in cat:
        assert all(h.profile(r) >= 0.0 for r in np.linspace(0.0, 5.0, 101))
