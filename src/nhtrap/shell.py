"""Photon-shell orbits of `trapping` in closed form, with their tangent frame.

On a pinned shell orbit (fact 1 of `trapping`) the theta-motion is an
elliptic oscillation of one degree of freedom, which `ShellOrbit` holds by
Jacobi functions and K from `elliptic`; fact 4 of
`trapping` turns it into the tangential cocycle on the shell tangent.
Nothing here integrates an orbit or loads scipy.
"""

from __future__ import annotations

import math

import numpy as np

from . import elliptic, kerr
from .errors import DomainError

# every shell orbit starts on the equator at phi = 0, which fact 4 needs
SHELL_START = (np.pi / 2.0, 0.0)
E_PHI = np.asarray([0.0, 1.0, 0.0, 0.0])  # the cyclic direction
# the complex step in beta/M of each orbit's closed form
BETA_STEP = 1e-20
# Chebyshev-Lobatto points of the smooth part of each orbit's phi integral
PHI_NODES = 24
PHI_SERIES = elliptic.ChebyshevIntegral(PHI_NODES)


class ShellOrbit:
    """One shell orbit in closed form: intrinsic coordinates u = (theta, phi, alpha, beta).

    The embedding back into the six-dimensional chart pins (r, xi) at the
    saddle, which the flow preserves exactly.  Its differential E has unit
    columns for theta, phi and alpha and the orthogonal column
    (r_s', 0, 0, xi_s', 0, 1) for beta, so ||E Y|| equals ||W Y|| with
    W = diag(`weight`) = diag(1, 1, 1, sqrt(1 + r_s'^2 + xi_s'^2)).  The normal
    directions are the (r, phi, xi) block of fact 2 of `trapping`.

    The orbit is held in the units of M, D = diag(1, 1, M, M) (alpha and
    beta scale like M, theta and phi do not): time tau = M t and state
    D^-1 u, in which it depends on the mass only through a/M.  With
    c = beta - a, kappa = alpha0^2 + c^2 the Carter constant, and y+ > 0 > y-
    the roots of a^2 y^2 + (kappa + 2ac) y - alpha0^2 = 0, cos(theta) obeys
    (cos(theta)')^2 = 4 a^2 (y+ - cos^2)(cos^2 - y-) (Teo, Gen. Rel. Grav. 35,
    1909 (2003)).  With omega = 2 |a| sqrt(y+ - y-), m = y+ / (y+ - y-) and
    k' = sqrt(1 - m), the orbit from the equator is, at omega t,

        cos(theta) = -sqrt(y+) k' sn/dn,  alpha = alpha0 cn / (dn^2 sin(theta)),

    so theta first turns at t_q = K(m)/omega.  phi' = v_b + 2 beta/sin^2 - 2a,
    and 1/sin^2(theta) = dn^2 / (1 - n0 sn^2), n0 = 1 - k'^2 (1 - y+).  Over
    the amplitude psi, with k'' = sqrt(1 - n0) and d = sqrt(1 - m/n0),

        omega int_0^t dt / sin^2 = d atan(k'' tan psi) / k''
                                   + (m/n0) int_0^psi dpsi / (dn + d):

    the first term holds the whole steepness of a near-polar orbit
    (y+ near 1), and the smooth second one is a Chebyshev series on
    PHI_NODES points, G(t) in time.  At the turn psi = pi/2, so
    phi_q = t_q (v_b - 2a) + 2 beta (d pi / (2 omega k'') + G(t_q)), and
    G(t_q) is the sum of the series' coefficients.

    Each closed form is taken at beta + i h with the radial constants moved
    along the lambda-shell family (kappa' = -v_b, v_b' = v_rb r_s' + v_bb), so
    its imaginary part over h is its derivative along the family: the twist
    (P', Phi') = 4 (t_q', phi_q') and d_beta u(sigma), the one column of
    X(sigma) the envelope needs (fact 4 of `trapping`).  The series is built
    on the real [0, Re t_q], so G at the complex t_q adds its integrand at the
    end, (m/n0) k'/(k' + d), times i Im(t_q).
    """

    def __init__(self, family, beta: float, lam: float):
        params, beta = family.params, float(beta)
        mass, a = params.mass, params.spin / params.mass
        disc = lam - family.shell_value(beta)
        if disc <= 0.0:
            raise DomainError(
                f"beta={beta:g} admits no shell orbit on the lambda={lam:g} shell"
            )
        self.family, self.beta, self.mass = family, beta, mass
        self.chart = family.chart(beta)
        dr, dxi = family.saddle_derivative(beta).tolist()
        self.weight = np.asarray([1.0, 1.0, 1.0, math.hypot(1.0, dr, dxi)])
        self.u0 = np.asarray([*SHELL_START, math.sqrt(disc), beta])
        v_b, v_rb, v_bb = kerr.radial_terms(params, beta, family.saddle(beta)[0])[4:]

        h = 1j * BETA_STEP
        b = beta / mass + h
        self._vb = v_b / mass + h * (v_rb * dr + v_bb)
        kappa = disc / mass**2 + (beta / mass - a) ** 2 - h * v_b / mass
        c, al2 = b - a, disc / mass**2 - h * (v_b / mass + 2.0 * (b.real - a))
        # y+ of a^2 y^2 + B y - alpha0^2 in the form that does not cancel, and
        # root = a^2 (y+ - y-), which stays positive at a = 0
        B = kappa + 2.0 * a * c
        root = (B * B + 4.0 * a * a * al2) ** 0.5
        y = 2.0 * al2 / (B + root) if B.real >= 0.0 else (root - B) / (2.0 * a * a)
        m = a * a * y / root
        n0 = 1.0 - (1.0 - m) * (1.0 - y)
        self._a, self._b, self._omega = a, b, 2.0 * root**0.5
        self._amp, self._alpha0 = (y * (1.0 - m)) ** 0.5, al2**0.5
        self._kk, self._d = (1.0 - n0) ** 0.5, (1.0 - m / n0) ** 0.5
        self._jacobi = elliptic.Jacobi(m)
        t_q = elliptic.ellipk(m) / self._omega
        self.quarter_time = t_q.real  # M t_q
        self.period = 4.0 * t_q.real / mass

        dn = self._jacobi(self._omega * PHI_SERIES.nodes(t_q.real))[2]
        self._phi_coeffs = PHI_SERIES.coefficients(m / n0 * dn / (dn + self._d), t_q.real)
        # phi at the complex turn t_q: psi = pi/2, and the series at its end
        # plus its integrand there (dn = k') times the step off the real end
        k1 = (1.0 - m) ** 0.5
        phi_q = t_q * (self._vb - 2.0 * a) + 2.0 * b * (
            self._d * math.pi / (2.0 * self._omega * self._kk) + self._phi_coeffs.sum()
            + m / n0 * k1 / (k1 + self._d) * 1j * t_q.imag)
        self.twist = (4.0 * t_q.imag / BETA_STEP, 4.0 * phi_q.imag / BETA_STEP)  # (P', Phi')

        # the frame F = A0 R^-1 of the shell-tangent basis A0 = D [u', e_phi, d_beta u / M]
        # at the start, and the post-factors B_j on it (fact 4), n = N b in that basis
        units = np.asarray([1.0, 1.0, mass, mass])
        self._W = self.weight * units
        A0 = units[:, None] * self._basis(np.zeros(1))[0]
        R_inv = np.linalg.inv(np.linalg.qr(A0)[1])
        P, Phi = self.twist
        self._n, self._row = np.asarray([-P, Phi]) / mass, abs(R_inv[2, 2])
        self.shear = float(np.linalg.norm(-P * A0[:, 0] + Phi * E_PHI)) * self._row
        post = np.asarray([np.eye(3), np.diag([-1.0, -1.0, 1.0])] * 2)
        post[1:, :2, 2] = [-self._n / 2.0, self._n / 2.0, -self._n]
        self._post = post @ R_inv

    def flow(self, sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, u', d_beta u) at the times sigma in [0, t_q], each (4, len(sigma)),
        in the units of M; the beta derivative runs along the lambda shell."""
        sigma = np.asarray(sigma, dtype=float)
        a, b, vb = self._a, self._b.real, self._vb.real
        sn, cn, dn = self._jacobi(self._omega * sigma)
        cos_c = -self._amp * sn / dn
        sin_c = np.sqrt(1.0 - cos_c * cos_c)
        alpha_c = self._alpha0 * cn / (dn * dn * sin_c)
        # atan(k'' tan psi), tan psi = sn/cn, as pi/2 - atan(cn/(k'' sn)) past 45 degrees
        y, x = self._kk * sn, cn
        low = np.abs(y.real) <= np.abs(x.real)
        turn = np.where(low, np.arctan(y / np.where(low, x, 1.0)),
                        np.pi / 2.0 - np.arctan(x / np.where(low, 1.0, y)))
        phi_c = sigma * (self._vb - 2.0 * a) + 2.0 * self._b * (
            self._d * turn / (self._omega * self._kk)
            + PHI_SERIES(self._phi_coeffs, sigma, self.quarter_time))
        cos_t, sin_t, alpha = cos_c.real, sin_c.real, alpha_c.real
        one = np.ones_like(sigma)
        u = np.asarray([np.arccos(cos_t), phi_c.real, alpha, b * one])
        field = np.asarray([
            2.0 * alpha,
            vb - 2.0 * a + 2.0 * b / sin_t**2,
            2.0 * cos_t * (b / sin_t - a * sin_t) * (b / sin_t**2 + a),
            0.0 * one,
        ])
        w = np.asarray([-cos_c.imag / (BETA_STEP * sin_t), phi_c.imag / BETA_STEP,
                        alpha_c.imag / BETA_STEP, one])
        return u, field, w

    def _basis(self, sigma) -> np.ndarray:
        """[u', e_phi, d_beta u / M] at the times sigma, (len(sigma), 4, 3)."""
        _, field, w = self.flow(sigma)
        return np.stack([field.T, np.broadcast_to(E_PHI, field.T.shape), w.T / self.mass], -1)

    def frame_stacks(self, sigma) -> np.ndarray:
        """W X(s) F at the four times s of each sigma (fact 4), (len(sigma), 4, 4, 3)."""
        A = self._W[:, None] * self._basis(sigma)
        return A[:, None] @ self._post

    def slope_norms(self, sigma) -> np.ndarray:
        """||W X(s) N F|| at the times sigma, the same at all four times s."""
        v = self._n[0] * self.flow(sigma)[1] + self._n[1] * E_PHI[:, None]
        return np.linalg.norm(self._W[:, None] * v, axis=0) * self._row
