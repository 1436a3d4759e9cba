"""Certification of normally hyperbolic trapping for the photon shell.

The trapped set is a beta-family of saddles of the autonomous (r, xi)
subsystem, crossed with invariant angular tori.  Certification rests on
four exact facts about the separable symbol
p = Delta*xi^2 + v_beta(r) + alpha^2 + q(theta, beta)^2:

1. The (r, xi) block closes on itself, so shell orbits keep the radial pair
   pinned at the saddle exactly and live in the intrinsic coordinates
   u = (theta, phi, alpha, beta).
2. Along a pinned orbit the subspace w_theta = w_alpha = w_beta = 0 is
   invariant under J*Hess(p), and the (r, phi, xi) block of J*Hess(p) on
   it does not depend on theta (a perturbation bump depends on (r, xi)
   only).  With H the Hessian of the reduced (r, xi) symbol at the saddle
   and v_rb = d^2 v_beta / dr dbeta, the block is

       [[H10, 0, H11], [v_rb, 0, 0], [-H00, 0, -H01]].

   phi is cyclic, so its column is zero, and the eigenvalues are 0 and
   those of J H = [[H10, H11], [-H00, -H01]], whose trace is zero and whose
   determinant is det H: +-lambda with lambda = sqrt(-det H) =
   `models.saddle_rate(H)`, the chart's `normal_exponent`.  The normal
   bundles grow exactly like exp(lambda |t|) forward and backward, so the
   rate is read off the reduced symbol, and no eigensolve runs.
3. The tangential cocycle X(t) depends on the orbit only through theta(t),
   a periodic one-degree-of-freedom motion of period P.  Hence
   X(t + P) = X(t) M with the monodromy M = X(P) = I + N: M shears along
   the flow (the period depends on the energy) and along phi (which is
   cyclic), and fixes both directions.  So X(s + mP) = X(s) (I + mN) for
   every integer m, and tangential growth is polynomial of degree 0 (N
   vanishes on the shell-tangent frame) or 1 (fact 4 makes N^2 = 0).
4. A quarter period fixes the rest.  The intrinsic field is
   theta' = 2 alpha, phi' = v_b + p_b(theta, beta), alpha' = -p_theta,
   beta' = 0, and q(pi - theta) = q(theta), so p_b and p_theta are even and
   odd about the equator.  An orbit that starts on the equator with
   alpha > 0 first turns (alpha = 0) at t_q = P/4, and the reflection
   theta -> pi - theta and the reversal of time give u at s = sigma,
   2 t_q - sigma, 2 t_q + sigma and 4 t_q - sigma, sigma in [0, t_q], from
   u(sigma): theta(sigma) or pi - theta(sigma), phi(sigma), 2 phi_q - phi,
   2 phi_q + phi or 4 phi_q - phi (phi_q = phi(t_q)), and +-alpha(sigma).
   Take the shell-tangent basis of the start velocity v, e_phi and the
   start's beta direction b along the lambda shell: X(s) v = v(u(s)),
   X(s) e_phi = e_phi and X(s) b = d_beta u(s).  So X(s) = D_j X(sigma) B_j
   with D_j = I, R, S, SR (R = diag(1, -1, -1, 1), S = diag(-1, 1, -1, 1)),
   and B_0 = I, B_3 = B_1 B_2 and
       B_1: v -> -v, e_phi -> -e_phi, b -> b + 2 t_q' v - 2 phi_q' e_phi,
       B_2: v -> v, e_phi -> e_phi, b -> b - 2 t_q' v + 2 phi_q' e_phi
   on that basis, primes the beta derivatives along the shell.  Hence
   N b = B_2^2 b - b = -P' v + Phi' e_phi, the twist of P = 4 t_q and
   Phi = 4 phi_q, and N^2 = 0 on the shell tangent.  The D_j are signed
   identities, so they commute with a diagonal weight and keep the 2-norm:
   a weighted norm of X over [0, P] is one of X(sigma) B_j, sigma in [0, t_q].

The theta-motion is elliptic, and `shell.ShellOrbit` holds each orbit in
closed form (Jacobi functions and K from `elliptic`), in
the units of M; a complex step in beta gives the twist and d_beta u, and
no orbit is integrated.  The degree is read off the twist, not checked:
fact 4 bounds it by 1.  The value of p on the pinned shell at the
equator with alpha = 0 is the reduced symbol at the saddle plus the
Carter constant q(pi/2, beta)^2 (`ReducedFamily.shell_value`): it fixes
each orbit's alpha and, through a bracketed `brentq`, the extremal beta
values.  Trapped radii are closed-form roots of v' (see `trapped_radius`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kerr
from .errors import DomainError, InvalidHorizon, NoBracket
from .kerr import KerrParams, radial_potential_derivs
from .models import BumpPattern, newton_saddle, reduced_kerr_model, saddle_rate
# perfbench/tracer.py wraps ``trapping.solve_ivp``; no shell orbit is integrated
from .ode import brentq, solve_ivp  # noqa: F401

N_BETA = 6  # beta samples of each certificate
R_MAX = 4  # the certificate bounds r-normal hyperbolicity for r = 1..R_MAX
# equatorial_beta_range brackets each extremal beta between +-BETA_NEAR * M
# and +-BETA_FAR * M, doubling the far end at most BETA_DOUBLINGS times
BETA_NEAR = 1e-3
BETA_FAR = 7.0
BETA_DOUBLINGS = 8
# the dimensionless shear reads as a twist above this; rounding leaves at
# most 2.3e-14 at a = 0, and a = 1e-8 M shears by 2e-9 or more
SHEAR_ROUNDING = 1e-12
# the ratio checks take theta0 = THETA0_FRACTION * lambda, which leaves the
# bound (a + b*t)^r a decay rate of (1 - THETA0_FRACTION) * lambda
THETA0_FRACTION = 0.9
# grid over one quarter theta-period locating the sup of the tangential envelope
ENVELOPE_SAMPLES = 64
# each polish round of that sup evaluates this many points across the
# bracket around the argmax, and the rounds stop on brackets this short
ENVELOPE_REFINE = 17
ENVELOPE_XTOL = 1e-9


def trapped_radius(beta: float, params: KerrParams) -> float:
    """Radius of the trapped sphere at angular momentum beta.

    With N = a^2 beta^2 + 4 M a beta r + (r^2 + a^2)^2, the potential
    v_beta = 2 a beta - N/Delta has v' = -(N' Delta - N Delta')/Delta^2, and

        N' Delta - N Delta' = 2 (r^2 + a^2 + a beta)
                              * (r^3 - 3 M r^2 + a (a - beta) r + a M (a + beta)).

    So v' vanishes exactly at the real roots of the cubic (Teo's spherical
    photon orbits) and, when a (a + beta) < 0, at r = sqrt(-a (a + beta)).
    The trapped radius is the first of them outside r+ where v'' < 0.
    """
    m, a = params.mass, params.spin
    cubic = np.roots([1.0, -3.0 * m, a * (a - beta), a * m * (a + beta)])
    radii = [float(z.real) for z in cubic if z.imag == 0.0]
    if a * (a + beta) < 0.0:
        radii.append(math.sqrt(-a * (a + beta)))
    rp = kerr.horizon_radius(params)
    for r in sorted(radii):
        if r > rp and radial_potential_derivs(params, beta, r)[2] < 0.0:
            return r
    raise NoBracket(f"v' has no maximum outside r+ = {rp:.6g} at beta={beta:g}")


@dataclass(frozen=True)
class TrappedOrbitChart:
    """Linearized normal data at one trapped sphere."""

    beta: float
    trapped_radius: float
    xi_saddle: float
    hessian: np.ndarray  # of the reduced symbol in (r, xi) at the saddle
    lin_matrix: np.ndarray  # half-field generator; [[0, Delta], [B', 0]] unperturbed
    normal_exponent: float  # full-field rate; 2*sqrt(Delta*B') unperturbed
    potential_curvature: float  # p_rr at the saddle; v'' < 0 unperturbed


class ReducedFamily:
    """Beta-family of radial saddles for a (possibly perturbed) symbol.

    Wraps the exterior symbol plus an optional (r, xi) bump, whose size is
    the perturbation's epsilon.  Provides saddle location/derivatives, the
    normal chart and the value of p on the shell.
    """

    def __init__(self, params: KerrParams, bump: BumpPattern | None = None):
        self.params = params
        self.bump = bump
        self._saddles: dict[float, tuple[float, float]] = {}
        self._charts: dict[float, TrappedOrbitChart] = {}

    def reduced_model(self, beta: float):
        return reduced_kerr_model(self.params, beta, bump=self.bump)

    def saddle(self, beta: float) -> tuple[float, float]:
        """Fixed point (r_s, xi_s) of the reduced flow at this beta."""
        key = float(beta)
        if key in self._saddles:
            return self._saddles[key]
        r0 = trapped_radius(beta, self.params)
        point = (r0, 0.0)
        if self.bump is not None:
            model = self.reduced_model(beta)
            r_s, xi_s = newton_saddle(model.gradient, model.hessian, point)
            point = (float(r_s), float(xi_s))
        self._saddles[key] = point
        return point

    def saddle_derivative(self, beta: float) -> np.ndarray:
        """(dr_s/dbeta, dxi_s/dbeta) by the implicit function theorem.

        The saddle solves grad p(r, xi; beta) = 0.  Of p only v_beta(r)
        depends on beta (Delta*xi^2 and the bump do not), so
        d(grad p)/dbeta = (v_rb, 0) and d(r_s, xi_s)/dbeta = -H^-1 (v_rb, 0).
        """
        v_rb = kerr.radial_terms(self.params, beta, self.saddle(beta)[0])[5]
        return -np.linalg.solve(self.chart(beta).hessian, [v_rb, 0.0])

    def chart(self, beta: float) -> TrappedOrbitChart:
        """Normal chart at the saddle, the one place the reduced Hessian H is
        formed, once per beta.  The full-field generator is
        J H = [[H10, H11], [-H00, -H01]], whose top eigenvalue is
        `models.saddle_rate`; the chart keeps it halved, which unperturbed
        (xi_s = 0) is [[0, Delta], [B', 0]] with B' = -v''/2."""
        key = float(beta)
        if key in self._charts:
            return self._charts[key]
        r_s, xi_s = self.saddle(beta)
        H = self.reduced_model(beta).hessian(np.asarray((r_s, xi_s)))
        generator = np.asarray([[H[1, 0], H[1, 1]], [-H[0, 0], -H[0, 1]]])
        chart = self._charts[key] = TrappedOrbitChart(
            beta=beta,
            trapped_radius=r_s,
            xi_saddle=xi_s,
            hessian=H,
            # + 0.0 turns the -0.0 that -H[0, 1] gives at xi_s = 0 into +0.0,
            # which the artifacts print as 0, not -0
            lin_matrix=generator / 2.0 + 0.0,
            normal_exponent=saddle_rate(H, f"beta={beta:g}"),
            potential_curvature=float(H[0, 0]),
        )
        return chart

    def shell_value(self, beta: float) -> float:
        """p at the saddle on the equator with alpha = 0: the reduced symbol
        plus the Carter constant q(pi/2, beta)^2."""
        r_s, xi_s = self.saddle(beta)
        radial = self.reduced_model(beta).evaluate(np.asarray((r_s, xi_s)))
        return float(radial + kerr.carter(self.params, np.pi / 2.0, 0.0, beta))


def linearization(beta: float, params: KerrParams) -> TrappedOrbitChart:
    """Normal chart of the unperturbed family at one beta."""
    return ReducedFamily(params).chart(beta)


# -- certification -----------------------------------------------------------


@dataclass
class BetaSample:
    chart: TrappedOrbitChart  # its normal_exponent is the normal rate (fact 2)
    period: float
    tangential_degree: int
    # (a, b): sigma(t) <= a + b*t forward and a + b*(t + period) backward
    envelope: tuple[float, float]


@dataclass
class TrapCertificate:
    lam: float
    beta_samples: list[BetaSample]
    theta_rate: float
    theta0: float  # THETA0_FRACTION * theta_rate
    ratio_constants: list[float]  # C at r = 1..R_MAX
    tangential_degree: int


def equatorial_beta_range(lam: float, family: ReducedFamily) -> tuple[float, float]:
    """Extremal equatorial beta values on the lambda shell of the trapped set.

    They are the roots of `ReducedFamily.shell_value` - lambda.  On each
    side the bracket runs from BETA_NEAR * M to a far end that starts at
    BETA_FAR * M and doubles until it brackets; at a = 0 the ends are
    +-sqrt(27 M^2 + lambda).
    """
    mass = family.params.mass

    def excess(beta):
        return family.shell_value(beta) - lam

    roots = []
    for side in (1.0, -1.0):
        near = side * BETA_NEAR * mass
        f_near = excess(near)
        fars = [side * BETA_FAR * mass * 2.0**k for k in range(BETA_DOUBLINGS + 1)]
        far = next((b for b in fars if f_near * excess(b) <= 0.0), None)
        if far is None:
            raise NoBracket(
                f"no equatorial critical beta between {near:g} and {fars[-1]:g}"
            )
        lo, hi = sorted((near, far))
        roots.append(brentq(excess, lo, hi, xtol=1e-13 * mass))
    plus, minus = roots
    return float(minus), float(plus)


def _beta_grid(lo: float, hi: float) -> np.ndarray:
    """N_BETA sample betas inside (lo, hi), moved off the equatorial beta = 0."""
    width = hi - lo
    grid = np.linspace(lo + 0.05 * width, hi - 0.05 * width, N_BETA)
    step = grid[1] - grid[0]
    # the equatorial sphere beta = 0 is excluded from sampling
    grid = np.where(np.abs(grid) < 0.02 * width, grid + 0.5 * step, grid)
    return grid


def _beta_sample(fam: ReducedFamily, beta: float, lam: float, horizon: float) -> BetaSample:
    """Period, tangential degree and tangential envelope at one beta.

    sigma(t) = ||E X(t) F|| = ||W X(t) F|| on the orthonormal shell-tangent
    frame F, with E and W = `ShellOrbit.weight` as in `shell.ShellOrbit`.  With
    t = s + mP, X(t) F = X(s) (F + mNF), as N^2 F = 0 (fact 4), so the degree
    of growth is 0 where NF = 0 and 1 otherwise.  N carries units (alpha and
    beta scale like M, theta and phi do not), so the zero test runs on the
    dimensionless D^-1 N D F = (-P' u' + Phi' e_phi) (0, 0, 1/R_22) in the
    units of M (`ShellOrbit.shear`), and reads the twist as zero up to
    SHEAR_ROUNDING.  The envelope slope b is measured either way.  Raises
    InvalidHorizon when the theta-period exceeds `horizon`.
    """
    from .shell import ShellOrbit  # trap-find's import path does without it

    orbit = ShellOrbit(fam, beta, lam)
    if orbit.period > horizon:
        raise InvalidHorizon(
            f"horizon {horizon:g} is too short: theta does not return "
            f"within it at beta={beta:g} (its period is {orbit.period:.6g})"
        )

    def frame_norm(sigma):
        # the 2-norm of each 4 x 3 stack is the root of the top eigenvalue of
        # its 3 x 3 Gram matrix, a symmetric eigensolve where an SVD would run
        A = orbit.frame_stacks(sigma)
        gram = np.swapaxes(A, -2, -1) @ A
        return np.sqrt(np.linalg.eigvalsh(gram)[..., -1].max(axis=-1))

    t_q = orbit.quarter_time
    return BetaSample(
        chart=orbit.chart,
        period=orbit.period,
        tangential_degree=int(orbit.shear > SHEAR_ROUNDING),
        envelope=(_envelope_sup(frame_norm, t_q),
                  _envelope_sup(orbit.slope_norms, t_q) / orbit.period),
    )


def _envelope_sup(f, end: float) -> float:
    """sup over s in [0, end] of f, which maps an array of times to values.

    The argmax of an ENVELOPE_SAMPLES grid is refined on ENVELOPE_REFINE
    point grids across the bracket of its neighbours, one call of f each,
    until the bracket is shorter than ENVELOPE_XTOL (or than a few float
    spacings of s, for a very long span).  The largest value evaluated
    is returned, so the sup is never overstated.
    """
    s = np.linspace(0.0, end, ENVELOPE_SAMPLES)
    best = -math.inf
    while True:
        values = f(s)
        i = int(np.argmax(values))
        best = max(best, float(values[i]))
        lo, hi = s[max(i - 1, 0)], s[min(i + 1, s.size - 1)]
        if hi - lo <= max(ENVELOPE_XTOL, 4.0 * np.spacing(hi)):
            return best
        s = np.linspace(lo, hi, ENVELOPE_REFINE)


def _ratio_sup(r: int, a: float, b: float, k: float) -> float:
    """sup over t >= 0 of (a + b*t)^r exp(-k*t), for a > 0, b >= 0, k > 0.

    The log is concave in t, so the sup sits at t = 0 unless the stationary
    point t* = r/k - a/b, where a + b*t* = r*b/k, is positive.  A sup past
    the float range raises DomainError.
    """
    try:
        if r * b <= k * a:
            value = a**r
        else:
            value = (r * b / k) ** r * math.exp(k * a / b - r)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise DomainError(f"the ratio bound overflows a float at r = {r}")
    return value


def certify(lam: float, family: ReducedFamily, horizon: float) -> TrapCertificate:
    """Certify r-normal hyperbolicity of the family's trapped set on one
    energy shell.

    The N_BETA sampled betas lie inside `equatorial_beta_range`.  At each,
    the normal bundles grow like exp(lambda |t|) both ways, with lambda the
    chart's `normal_exponent` (fact 2), and the closed-form shell orbit
    gives, through fact 4, the degree of tangential growth and the envelope
    a + b*t (fact 3).  With lambda the least sampled rate, for r = 1..R_MAX
    the constant C bounds (a + b*t)^r exp(-(lambda - theta0) t) over t >= 0
    in closed form, theta0 = THETA0_FRACTION * lambda, with a the backward
    envelope's a + b*P, which is at least the forward one's a, and the
    bound grows with a; the degree is at most 1 (fact 4), so every C is
    finite unless it overflows a float, which raises DomainError.
    `horizon` only bounds the theta-period, which raises InvalidHorizon
    past it: no number depends on it.
    """
    if horizon <= 0.0:
        raise InvalidHorizon(f"horizon must be positive, got {horizon}")
    lo, hi = equatorial_beta_range(lam, family)
    samples = [
        _beta_sample(family, float(beta), lam, horizon)
        for beta in _beta_grid(lo, hi)
    ]
    rate = min(s.chart.normal_exponent for s in samples)
    theta0 = THETA0_FRACTION * rate
    b = max(s.envelope[1] for s in samples)
    a_bwd = max(s.envelope[0] + s.envelope[1] * s.period for s in samples)
    return TrapCertificate(
        lam=lam,
        beta_samples=samples,
        theta_rate=rate,
        theta0=theta0,
        ratio_constants=[
            _ratio_sup(r, a_bwd, b, rate - theta0) for r in range(1, R_MAX + 1)
        ],
        tangential_degree=max(s.tangential_degree for s in samples),
    )


# -- perturbation ------------------------------------------------------------


@dataclass
class PerturbReport:
    certificate: TrapCertificate
    displacement: float
    displacement_factor: float  # displacement / epsilon
    exponent_shift: float  # max relative shift of the normal exponent


def perturb_and_recertify(
    params: KerrParams,
    lam: float,
    epsilon: float,
    seed: int,
    horizon: float,
) -> PerturbReport:
    """Perturb the symbol by a seeded bump of size epsilon, recertify, and
    compare each certified saddle with the unperturbed one at its beta.

    Saddle relocation is damped Newton on the reduced fixed-point equations;
    the certificate is computed for the perturbed family as in `certify`.
    Displacement is hypot(dr/M, dxi), reported relative to epsilon, so like
    the exponent shift it does not depend on M.
    """
    if not (0.0 <= epsilon <= 0.05):
        raise DomainError(f"epsilon={epsilon} outside the certified regime [0, 0.05]")
    fam = ReducedFamily(params, bump=BumpPattern(seed, params.mass, epsilon))
    cert = certify(lam, fam, horizon=horizon)
    base = ReducedFamily(params)
    displacement = 0.0
    shift = 0.0
    for sample in cert.beta_samples:
        chart = sample.chart
        r0, xi0 = base.saddle(chart.beta)
        displacement = max(
            displacement,
            math.hypot((chart.trapped_radius - r0) / params.mass, chart.xi_saddle - xi0),
        )
        mu0 = base.chart(chart.beta).normal_exponent
        shift = max(shift, abs(chart.normal_exponent - mu0) / mu0)
    return PerturbReport(
        certificate=cert,
        displacement=displacement,
        displacement_factor=displacement / epsilon if epsilon > 0 else 0.0,
        exponent_shift=shift,
    )


# -- serialization -----------------------------------------------------------


def certificate_to_dict(cert: TrapCertificate) -> dict:
    """JSON-ready dictionary with the stable key set.

    Only the keys `perfbench/checks.py` reads are constant or copies,
    until ROADMAP item 4 deletes them after item 5: "passed" is always
    true and "reasons" always empty, since no certificate fails without
    raising (fact 4 and `certify`), and each sample's "rate_plus" and
    "rate_minus" copy its "normal_exponent".
    """
    return {
        "lambda": cert.lam,
        "beta_samples": [
            {
                "beta": s.chart.beta,
                "trapped_radius": s.chart.trapped_radius,
                "xi_saddle": s.chart.xi_saddle,
                "lin_matrix": [list(row) for row in s.chart.lin_matrix],
                "normal_exponent": s.chart.normal_exponent,
                "potential_curvature": s.chart.potential_curvature,
                "rate_plus": s.chart.normal_exponent,
                "rate_minus": s.chart.normal_exponent,
                "period": s.period,
                "tangential_degree": s.tangential_degree,
                "envelope": list(s.envelope),
            }
            for s in cert.beta_samples
        ],
        "theta_rate": cert.theta_rate,
        "theta0": cert.theta0,
        "ratio_checks": [
            {"r": r, "C": C} for r, C in enumerate(cert.ratio_constants, start=1)
        ],
        "tangential_degree": cert.tangential_degree,
        "passed": True,
        "reasons": [],
    }
