"""The complete integral K, Jacobi elliptic functions, Chebyshev antiderivatives.

Pure Python and numpy, so that the shell certificate loads no scipy.  Every
function takes complex arguments as well as real ones and is analytic in
them, so a complex step in an argument gives its derivative to rounding.

- `ellipk`: the complete integral K(m) = pi / (2 AGM(1, sqrt(1 - m))).
- `Jacobi`: sn, cn and dn by the descending Landen
  transformation (DLMF 22.7.1-3).  With k' = sqrt(1 - m) the modulus
  k1 = (1 - k') / (1 + k') = m / (1 + k')^2 is about m/4, so five steps
  take m = 0.99 below 1e-17, where sn = sin, cn = cos and dn = 1 to
  rounding; the steps back up are
      sn = (1 + k1) s / (1 + k1 s^2), cn = c d / (1 + k1 s^2),
      dn = (1 - k1 s^2) / (1 + k1 s^2),
  with (s, c, d) the functions of modulus k1 at z / (1 + k1).
- `ChebyshevIntegral`: the antiderivative of a function sampled on
  Chebyshev-Lobatto points of an interval, held as a Chebyshev series.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

EPS = 2.0**-52
# descending Landen stops once m = k^2 is below this: sn = sin to rounding
LANDEN_M_MIN = 1e-17


def _sqrt(z):
    """Principal square root of a real (>= 0) or complex scalar."""
    return cmath.sqrt(z) if isinstance(z, complex) else math.sqrt(z)


def ellipk(m):
    """K(m) = integral over [0, pi/2] of (1 - m sin^2 t)^(-1/2) dt, m < 1."""
    a, b = 1.0, _sqrt(1.0 - m)
    while abs(a - b) > EPS * abs(a):
        a, b = (a + b) / 2.0, _sqrt(a * b)
    return math.pi / (a + b)


class Jacobi:
    """(sn, cn, dn)(z | m) of one parameter m for arrays z.

    `moduli` are the descending Landen moduli k1, k2, ... of m, down to the
    first whose square is below LANDEN_M_MIN.
    """

    def __init__(self, m):
        self.moduli, self.scale = [], 1.0
        while abs(m) > LANDEN_M_MIN:
            k = m / (1.0 + _sqrt(1.0 - m)) ** 2
            self.moduli.append(k)
            self.scale *= 1.0 + k
            m = k * k

    def __call__(self, z) -> tuple:
        z = np.asarray(z) / self.scale
        sn, cn, dn = np.sin(z), np.cos(z), np.ones_like(z)
        for k in reversed(self.moduli):
            ks2 = k * sn * sn
            den = 1.0 / (1.0 + ks2)
            sn, cn, dn = (1.0 + k) * sn * den, cn * dn * den, (1.0 - ks2) * den
        return sn, cn, dn


class ChebyshevIntegral:
    """F(t) = int_0^t f on [0, T] from f at the n + 1 Chebyshev-Lobatto
    points of [0, T], as a Chebyshev series in x = 2t/T - 1.

    `coefficients` maps the samples to the series of F: a DCT-I gives the
    interpolant's coefficients a_k, the antiderivative's are
    (a_(k-1) - a_(k+1)) / 2k (a_0 counted twice at k = 1) times dt/dx = T/2,
    and its constant makes F(0) = 0.  Both maps are fixed matrices, so one
    product per function and one per evaluation grid remain.
    """

    def __init__(self, n: int):
        k = np.arange(n + 1)
        self.x = np.cos(np.pi * k / n)  # descending from 1 to -1
        dct = np.cos(np.pi * np.outer(k, k) / n) * (2.0 / n)
        dct[:, [0, n]] /= 2.0
        dct[[0, n]] /= 2.0
        a = np.vstack([dct, np.zeros((2, n + 1))])
        b = np.zeros((n + 2, n + 1))
        b[1] = a[0] - a[2] / 2.0
        kk = np.arange(2, n + 2)[:, None]
        b[2:] = (a[1:n + 1] - a[3:n + 3]) / (2.0 * kk)
        sign = (-1.0) ** np.arange(n + 2)
        b[0] = -sign[1:] @ b[1:]
        self.matrix = b / 2.0
        self.degrees = np.arange(n + 2)

    def nodes(self, T: float) -> np.ndarray:
        return (self.x + 1.0) * (T / 2.0)

    def coefficients(self, samples, T: float) -> np.ndarray:
        return self.matrix @ samples * T

    def __call__(self, coefficients, t, T: float):
        x = np.clip(2.0 * np.asarray(t) / T - 1.0, -1.0, 1.0)
        return np.cos(np.multiply.outer(np.arccos(x), self.degrees)) @ coefficients
