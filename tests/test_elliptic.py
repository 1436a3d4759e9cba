"""The pure-Python elliptic functions against scipy.special as oracle."""

import math

import numpy as np
import pytest
import scipy.special as sp

from nhtrap import elliptic

PARAMETERS = [0.0, 1e-9, 0.1, 0.5, 0.9, 0.99, 0.9999]


@pytest.mark.parametrize("m", PARAMETERS)
def test_ellipk(m):
    assert elliptic.ellipk(m) == pytest.approx(sp.ellipk(m), rel=4e-16)


@pytest.mark.parametrize("m", PARAMETERS)
def test_jacobi(m):
    z = np.linspace(-6.0, 6.0, 241)
    sn, cn, dn = elliptic.Jacobi(m)(z)
    ref = sp.ellipj(z, m)
    # rounding of the argument grows like |z| eps on either side
    for got, want in zip((sn, cn, dn), ref[:3]):
        assert np.max(np.abs(got - want)) <= 1e-14


def test_jacobi_at_the_quarter_period():
    # sn(K) = 1, cn(K) = 0 and dn(K) = sqrt(1 - m): the shell orbit's turn
    for m in PARAMETERS:
        sn, cn, dn = elliptic.Jacobi(m)(np.asarray([elliptic.ellipk(m)]))
        assert sn[0] == pytest.approx(1.0, abs=1e-15)
        assert cn[0] == pytest.approx(0.0, abs=1e-15)
        assert dn[0] == pytest.approx(math.sqrt(1.0 - m), rel=1e-15)


def test_complex_step_derivatives():
    # a complex step gives dK/dm = (E - (1 - m) K) / (2 m (1 - m)) and
    # d sn/dz = cn dn to rounding
    h = 1e-20
    for m in (0.1, 0.5, 0.9):
        dK = elliptic.ellipk(m + 1j * h).imag / h
        exact = (sp.ellipe(m) - (1.0 - m) * sp.ellipk(m)) / (2.0 * m * (1.0 - m))
        assert dK == pytest.approx(exact, rel=1e-13)
        z = np.linspace(0.0, 3.0, 31)
        sn = elliptic.Jacobi(m)(z + 1j * h)[0]
        _, cn, dn, _ = sp.ellipj(z, m)
        assert np.max(np.abs(sn.imag / h - cn * dn)) <= 1e-14


def test_chebyshev_integral():
    # the antiderivative of a smooth f on [0, T], against its closed form
    T, series = 2.5, elliptic.ChebyshevIntegral(24)
    c = series.coefficients(np.cos(3.0 * series.nodes(T)) + 1.0, T)
    t = np.linspace(0.0, T, 57)
    assert np.max(np.abs(series(c, t, T) - (np.sin(3.0 * t) / 3.0 + t))) <= 1e-14
