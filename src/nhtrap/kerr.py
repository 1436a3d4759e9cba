"""Rotating-black-hole phase space: exterior chart, scaled flow symbol, conserved set.

Geometric units G = c = 1 throughout; `mass` and `spin` are the usual (M, a)
with 0 <= a < M.  Phase coordinates are (r, theta, phi, xi, alpha, beta)
with (xi, alpha, beta) the momenta conjugate to (r, theta, phi).

The flow symbol is

    p = Delta*xi^2 + alpha^2 + (1/sin^2(theta) - a^2/Delta)*beta^2
        - (4*M*a*r/Delta)*beta - ((r^2+a^2)^2/Delta - a^2*sin^2(theta)),

the null-geodesic symbol multiplied by r^2 + a^2*cos^2(theta) and with the
time momentum frozen at -1.  It separates into a radial potential and the
Carter constant carter = alpha^2 + q^2:

    p = Delta*xi^2 + v_beta(r) + alpha^2 + q^2,
    v_beta(r) = 2*a*beta - N(r, beta)/Delta(r),
    N(r, beta) = a^2*beta^2 + 4*M*a*r*beta + (r^2 + a^2)^2,
    q = beta/sin(theta) - a*sin(theta).

This form is the single source of p and its derivatives.  The value,
the conserved triple, the radial potential, the gradient (`_gradient`;
`_grad_p`, the flow's view, builds no Hessian) and the Hessian
(`_grad_hess` adds it to `_gradient`'s terms; `hessian_p` and
`grad_hess_raw` are its views) are all assembled from `radial_terms`
(v_beta and its derivatives) and `_angular_terms` (q and its
derivatives; `angular_derivs` gives those of the angular half
alpha^2 + q^2).  The radial half Delta*xi^2 + v_beta(r) is a barrier
symbol m*xi^2 + v (`radial_symbol`, the reduced (r, xi) model's); scaled
by Delta/r^4 at the prograde orbit it is a cubic in r*/r, the Kerr kinds
of `barrier`.  The r-derivatives of the quotient
f = N/Delta come from the Leibniz rule for N = f*Delta,

    f^(k) = (N^(k) - sum_{j<k} C(k, j) * Delta^(k-j) * f^(j)) / Delta,

in which only Delta' = 2*(r - M) and Delta'' = 2 are nonzero.  Delta does
not depend on beta, so d_beta f = N_beta/Delta, and d_r d_beta f follows
from the same rule applied to N_beta = f_beta*Delta.

Poisson bracket convention:

    {f, g} = sum_i  df/dxi_i * dg/dx_i - df/dx_i * dg/dxi_i,

so the Hamilton field is H_p = {p, .} and x' = dp/dxi, xi' = -dp/dx.

All functions broadcast over numpy arrays in the state slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

# Exterior-chart safety margins (theta measured from the axis).
DEFAULT_THETA_MARGIN = 0.05
DEFAULT_R_MARGIN = 1e-6


@dataclass(frozen=True)
class KerrParams:
    """Black-hole parameters, validated subextremal: 0 <= spin < mass."""

    mass: float = 1.0
    spin: float = 0.0

    def __post_init__(self):
        if not (self.mass > 0.0):
            raise DomainError(f"mass must be positive, got {self.mass}")
        if not (0.0 <= self.spin < self.mass):
            raise DomainError(
                f"spin must satisfy 0 <= a < M, got a={self.spin}, M={self.mass}"
            )


@dataclass(frozen=True)
class PhaseState:
    """Point of the exterior phase-space chart.

    Fields may be floats or broadcastable numpy arrays.
    """

    r: float
    theta: float
    phi: float
    xi: float
    alpha: float
    beta: float

    @staticmethod
    def from_array(y) -> "PhaseState":
        y = np.asarray(y, dtype=float)
        return PhaseState(y[0], y[1], y[2], y[3], y[4], y[5])


@dataclass(frozen=True)
class ConservedTriple:
    """Values of the three commuting conserved quantities (p, beta, carter)."""

    p: float
    beta: float
    carter: float


def horizon_radius(params: KerrParams) -> float:
    """Outer-horizon radius M + sqrt(M^2 - a^2)."""
    return params.mass + np.sqrt(params.mass**2 - params.spin**2)


def delta(params: KerrParams, r):
    """Horizon function Delta = r^2 - 2*M*r + a^2; vanishes at r+."""
    return r * r - 2.0 * params.mass * r + params.spin**2


def _require_exterior(params: KerrParams, r) -> None:
    rp = horizon_radius(params)
    if np.any(np.asarray(r, dtype=float) <= rp):
        raise DomainError(f"r <= r+ = {rp}: outside the exterior chart")


def symbol_p(state: PhaseState, params: KerrParams):
    """Rescaled flow symbol p at a state (array-friendly)."""
    _require_exterior(params, state.r)
    return _p_values(
        params, state.r, state.theta, state.xi, state.alpha, state.beta
    )


def _p_values(params: KerrParams, r, theta, xi, alpha, beta):
    q = _angular_terms(params, theta, beta)[0]
    return (
        delta(params, r) * xi**2
        + radial_potential(params, beta, r)
        + alpha**2
        + q**2
    )


def radial_terms(params: KerrParams, beta, r):
    """v_beta(r) = 2*a*beta - N/Delta with its r- and beta-derivatives.

    Returns (v, v_r, v_rr, v_rrr, v_b, v_rb, v_bb); the quotient
    derivatives follow the Leibniz recursion of the module docstring.
    """
    m, a = params.mass, params.spin
    dl = delta(params, r)
    dl1 = 2.0 * (r - m)
    w = r**2 + a**2
    n0 = a**2 * beta**2 + 4.0 * m * a * r * beta + w**2
    n1 = 4.0 * m * a * beta + 4.0 * r * w
    n2 = 12.0 * r**2 + 4.0 * a**2
    n3 = 24.0 * r
    f0 = n0 / dl
    f1 = (n1 - dl1 * f0) / dl
    f2 = (n2 - 2.0 * dl1 * f1 - 2.0 * f0) / dl
    f3 = (n3 - 3.0 * dl1 * f2 - 6.0 * f1) / dl
    fb = (2.0 * a**2 * beta + 4.0 * m * a * r) / dl
    frb = (4.0 * m * a - dl1 * fb) / dl
    fbb = 2.0 * a**2 / dl
    return 2.0 * a * beta - f0, -f1, -f2, -f3, 2.0 * a - fb, -frb, -fbb


def radial_symbol(params: KerrParams, beta, r):
    """The radial half Delta*xi^2 + v_beta(r) as a barrier symbol m*xi^2 + v:
    ((Delta, Delta', Delta'', Delta'''), (v_beta, v', v'', v'''))."""
    m_terms = (delta(params, r), 2.0 * (r - params.mass), 2.0, 0.0)
    return m_terms, radial_terms(params, beta, r)[:4]


def _angular_terms(params: KerrParams, theta, beta):
    """q = beta/sin(theta) - a*sin(theta) with its derivatives.

    Returns (q, q_t, q_tt, q_b, q_tb); q_bb = 0.  A float theta takes its
    sine and cosine from `math`, an array theta from numpy.
    """
    a = params.spin
    trig = math if isinstance(theta, float) else np
    s = trig.sin(theta)
    c = trig.cos(theta)
    q_b = 1.0 / s
    q_tb = -c * q_b * q_b
    q = beta / s - a * s
    q_t = beta * q_tb - a * c
    q_tt = beta * q_b * (1.0 + 2.0 * c * c * q_b * q_b) + a * s
    return q, q_t, q_tt, q_b, q_tb


def angular_derivs(params: KerrParams, theta, alpha, beta):
    """Derivatives of the angular half alpha^2 + q^2 of p.

    Returns (p_t, p_a, p_b, p_tt, p_tb, p_bb) in theta (t), alpha (a) and
    beta (b); p_aa = 2 and the alpha cross terms vanish.  The radial half
    Delta*xi^2 + v_beta(r) adds v_b to p_b and v_bb to p_bb.
    """
    q, q_t, q_tt, q_b, q_tb = _angular_terms(params, theta, beta)
    return (
        2.0 * q * q_t,
        2.0 * alpha,
        2.0 * q * q_b,
        2.0 * (q_t**2 + q * q_tt),
        2.0 * (q_b * q_t + q * q_tb),
        2.0 * q_b**2,
    )


def _gradient(params: KerrParams, r, theta, xi, alpha, beta):
    """Gradient (6, *batch) of p with the terms the Hessian reuses.

    The one implementation of the derivatives of p, assembled from the
    separable form.  Components are ordered (r, theta, phi, xi, alpha,
    beta); the arguments broadcast against each other, and their common
    shape is the trailing batch shape.  Returns (g, radial_terms(...),
    angular_derivs(...), Delta, Delta').
    """
    radial = radial_terms(params, beta, r)
    angular = angular_derivs(params, theta, alpha, beta)
    dl, dl1 = delta(params, r), 2.0 * (r - params.mass)
    v_r, v_b = radial[1], radial[4]
    p_t, p_a, p_b = angular[:3]
    g = np.zeros((6,) + np.shape(dl + p_t + xi + alpha))
    g[0] = dl1 * xi**2 + v_r
    g[1] = p_t
    g[3] = 2.0 * dl * xi
    g[4] = p_a
    g[5] = v_b + p_b
    return g, radial, angular, dl, dl1


def _grad_p(params: KerrParams, r, theta, xi, alpha, beta):
    """Gradient of p, shape (6, *batch), in the order (r, theta, phi, xi, alpha, beta)."""
    return _gradient(params, r, theta, xi, alpha, beta)[0]


def _grad_hess(params: KerrParams, r, theta, xi, alpha, beta):
    """Gradient (6, *batch) and Hessian (6, 6, *batch) of p: `_gradient` plus H."""
    g, radial, angular, dl, dl1 = _gradient(params, r, theta, xi, alpha, beta)
    _, _, v_rr, _, _, v_rb, v_bb = radial
    p_tt, p_tb, p_bb = angular[3:]
    H = np.zeros((6,) + g.shape)
    H[0, 0] = 2.0 * xi**2 + v_rr
    H[0, 3] = H[3, 0] = 2.0 * dl1 * xi
    H[0, 5] = H[5, 0] = v_rb
    H[1, 1] = p_tt
    H[1, 5] = H[5, 1] = p_tb
    H[3, 3] = 2.0 * dl
    H[4, 4] = 2.0
    H[5, 5] = v_bb + p_bb
    return g, H


def hessian_p(state: PhaseState, params: KerrParams) -> np.ndarray:
    """6x6 Hessian of p at a (scalar) state, order (r, theta, phi, xi, alpha, beta)."""
    _require_exterior(params, state.r)
    return _grad_hess(
        params, state.r, state.theta, state.xi, state.alpha, state.beta
    )[1]


def grad_hess_raw(params: KerrParams, r: float, theta: float, xi: float,
                  alpha: float, beta: float):
    """Gradient (6,) and Hessian (6, 6) of p in one pass; no chart validation."""
    return _grad_hess(params, r, theta, xi, alpha, beta)


def radial_potential(params: KerrParams, beta: float, r):
    """v_beta(r) = 2 a beta - (a^2 beta^2 + 4 M a r beta + (r^2+a^2)^2)/Delta."""
    return radial_terms(params, beta, r)[0]


def radial_potential_derivs(params: KerrParams, beta: float, r):
    """(v, v', v'', v''') of the radial potential, all analytic."""
    return radial_terms(params, beta, r)[:4]


def carter(params: KerrParams, theta, alpha, beta):
    """Carter constant alpha^2 + q^2."""
    return alpha**2 + _angular_terms(params, theta, beta)[0] ** 2


def conserved(state: PhaseState, params: KerrParams) -> ConservedTriple:
    """The commuting triple (p, beta, carter) at a state."""
    return ConservedTriple(
        p=symbol_p(state, params),
        beta=state.beta,
        carter=carter(params, state.theta, state.alpha, state.beta),
    )


def prograde_orbit(params: KerrParams):
    """Radius r* and beta* = -b* of the prograde circular equatorial null orbit.

    Closed form: r* = 2M(1 + cos(2/3 acos(-a/M))) and
    b* = a + 2 r* sqrt(Delta*) / (r* - M).  There V = V' = 0 for the
    equatorial radial function V = v_beta(r) + (beta - a)^2.
    """
    m, a = params.mass, params.spin
    r_star = 2.0 * m * (1.0 + math.cos((2.0 / 3.0) * math.acos(-a / m)))
    b_star = a + 2.0 * r_star * math.sqrt(delta(params, r_star)) / (r_star - m)
    return r_star, -b_star


@dataclass(frozen=True)
class Barrier:
    """A one-dimensional barrier symbol p = m(x)*xi^2 + v(x).

    `terms(x)` returns ((m, m', m'', m'''), (v, v', v'', v''')) in closed
    form.  v has its nondegenerate top at x = `top`, inside `domain`, and
    `exponent` is the normal rate sqrt(2 m |v''|) there.
    """

    top: float
    exponent: float
    domain: tuple[float, float]
    terms: Callable


def _product(f, g):
    """Derivatives of f*g up to third order from those of f and g (Leibniz)."""
    return tuple(sum(math.comb(k, j) * f[j] * g[k - j] for j in range(k + 1))
                 for k in range(4))


def _sech2_terms(x):
    """m = 1 and v = sech^2 x - 1, with their derivatives."""
    s = 1.0 / np.cosh(x)
    s2, t = s * s, np.tanh(x)
    one = np.ones_like(s)
    v = (s2 - 1.0, -2.0 * s2 * t, s2 * (4.0 - 6.0 * s2), s2 * t * (24.0 * s2 - 8.0))
    return (one, 0.0 * one, 0.0 * one, 0.0 * one), v


def barrier(kind: str, params: KerrParams) -> Barrier:
    """The barrier symbol of one model kind; `params` is the run's black hole.

    ``toy_sech2`` is v = sech^2 x - 1, m = 1 (top 0, rate 2), whatever the
    black hole.  ``kerr_equatorial`` is V = v_beta(r) + (beta - a)^2 at the
    prograde beta* (`prograde_orbit`, where V = V' = 0) scaled by Delta/r^4.
    Since beta*^2 - a^2 = 3 r*^2 and M (a + beta*)^2 = r*^3 there,
    V*Delta = -r (r - r*)^2 (r + 2 r*): v = -(1 - u)^2 (1 + 2u) with u = r*/r,
    and m = w^2 with w = Delta/r^2; neither divides by Delta and both take
    complex r.  ``schw_radial`` is the same barrier at a = 0 and the same mass.

    Normalization: with m = Delta^2/r^4 the principal part is (hD_x)^2 in
    x = int r^2/Delta dr, which is not Kerr's tortoise coordinate
    int (r^2 + a^2)/Delta dr.  The rate sqrt(2 m* |v''(r*)|) is exactly
    2 sqrt(3) Delta*/r*^3; at a = 0, mu/2 = 1/(3 sqrt(3) M).
    """
    if kind == "toy_sech2":
        return Barrier(0.0, 2.0, (-6.0, 6.0), _sech2_terms)
    if kind == "schw_radial":
        params = KerrParams(mass=params.mass)
    elif kind != "kerr_equatorial":
        raise DomainError(f"unknown model kind {kind!r}")
    m, a2, r_star = params.mass, params.spin**2, prograde_orbit(params)[0]

    def terms(r):
        r = np.asarray(r)
        r2, u = r * r, r_star / r
        r3, u2 = r2 * r, u * u
        w = (delta(params, r) / r2, 2.0 * (m * r - a2) / r3,
             (6.0 * a2 - 4.0 * m * r) / (r2 * r2), (12.0 * m * r - 24.0 * a2) / (r3 * r2))
        v = (-(1.0 - u) * (1.0 - u) * (1.0 + 2.0 * u), -6.0 * u2 * (1.0 - u) / r,
             6.0 * u2 * (3.0 - 4.0 * u) / r2, -24.0 * u2 * (3.0 - 5.0 * u) / r3)
        return _product(w, w), v

    delta_star = delta(params, r_star)
    # at the last double below extremal spin Delta(r*) rounds to exactly 0
    if not delta_star > 0.0:
        raise DomainError(
            f"Delta vanishes at the critical orbit r* = {r_star:g}: "
            "spin too close to extremal"
        )
    r_h = float(horizon_radius(params))
    span = r_star - r_h
    domain = (r_h + 0.10 * span, r_star + 3.8 * span)
    return Barrier(r_star, 2.0 * math.sqrt(3.0) * delta_star / r_star**3, domain, terms)
