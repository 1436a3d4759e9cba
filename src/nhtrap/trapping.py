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
   X(t + P) = X(t) M with the monodromy M = X(P) = I + N, and N^2 = 0:
   M shears along the flow (the period depends on the energy) and along
   phi (which is cyclic), and fixes both directions.  So
   X(s + mP) = X(s) (I + mN) for every integer m, and tangential growth is
   polynomial of degree 0 (N vanishes on the shell-tangent frame) or 1.
4. A quarter period fixes the rest.  The intrinsic field is
   theta' = 2 alpha, phi' = v_b + p_b(theta, beta), alpha' = -p_theta,
   beta' = 0, and q(pi - theta) = q(theta), so p_b and p_theta are even and
   odd about the equator.  The reflection (theta, phi, alpha, beta) ->
   (pi - theta, phi, -alpha, beta), with differential S = diag(-1, 1, -1, 1),
   commutes with the flow; the reversal (theta, phi, alpha, beta) ->
   (theta, -phi, -alpha, beta) with t -> -t, differential
   R = diag(1, -1, -1, 1), reverses it.  An orbit that starts on the
   equator with alpha > 0 first turns (alpha = 0) at t_q = P/4, and with
   X_q = X(t_q)
       X(t_q + s) = R X(t_q - s) X_q^-1 R X_q,
       X(P/2 + s) = S X(s) S X(P/2),
   so X(P/2) = R X_q^-1 R X_q and M = X(P) = S X(P/2) S X(P/2).  R and S
   are signed identities, so they commute with a diagonal weight and keep
   the 2-norm: a weighted norm of X over [0, P] is one of X on [0, t_q].

The quarter period is integrated by the in-house DOP853 of `nhtrap.ode`,
in the units of M (time M t, alpha/M, beta/M), whose dense output and stop
event give t_q and X(s) on [0, t_q]; fact 4 gives the period, the
monodromy and the tangential envelope over [0, P].
The value of p on the pinned shell at the equator with alpha = 0 is the
reduced symbol at the saddle plus the Carter constant q(pi/2, beta)^2
(`ReducedFamily.shell_value`): it fixes each orbit's alpha and, through a
bracketed `brentq`, the extremal beta values.  Trapped radii are
closed-form roots of v' (see `trapped_radius`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kerr
from .errors import DomainError, InvalidHorizon, NoBracket
from .kerr import KerrParams, radial_potential_derivs
from .models import BumpPattern, newton_saddle, reduced_kerr_model, saddle_rate
from .ode import DenseSolution, brentq, solve_ivp

N_BETA = 6  # beta samples of each certificate
# equatorial_beta_range brackets each extremal beta between +-BETA_NEAR * M
# and +-BETA_FAR * M, doubling the far end at most BETA_DOUBLINGS times
BETA_NEAR = 1e-3
BETA_FAR = 7.0
BETA_DOUBLINGS = 8
# every shell orbit starts on the equator at phi = 0, which fact 4 needs
SHELL_START = (np.pi / 2.0, 0.0)
# the diagonals of S and R, the differentials of the equatorial reflection
# and the time reversal (fact 4)
REFLECT = np.asarray([-1.0, 1.0, -1.0, 1.0])
REVERSE = np.asarray([1.0, -1.0, -1.0, 1.0])
TANGENTIAL_DEGREE_MAX = 1
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
        return float(radial + kerr.carter(self.params, SHELL_START[0], 0.0, beta))


def linearization(beta: float, params: KerrParams) -> TrappedOrbitChart:
    """Normal chart of the unperturbed family at one beta."""
    return ReducedFamily(params).chart(beta)


# -- photon-shell orbits (pinned radial pair) -------------------------------


class ShellOrbit:
    """One shell orbit: intrinsic coordinates u = (theta, phi, alpha, beta).

    The embedding back into the six-dimensional chart pins (r, xi) at the
    saddle, which the flow preserves exactly; the intrinsic variational
    system is the tangential cocycle, free of hyperbolic contamination.
    Its differential E has unit columns for theta, phi and alpha and the
    orthogonal column (r_s', 0, 0, xi_s', 0, 1) for beta, so ||E Y|| equals
    ||W Y|| with W = diag(`weight`) = diag(1, 1, 1, sqrt(1 + r_s'^2 + xi_s'^2)).
    The normal directions are the (r, phi, xi) block of fact 2.

    The cocycle is integrated in the units of M, D = diag(`units`) =
    diag(1, 1, M, M) (alpha and beta scale like M, theta and phi do not):
    time tau = M t, state D^-1 u and Jacobian D^-1 X D.  Every entry is then
    of order one at every mass, so one tolerance means the same thing at
    every M; at M = 1 these are the intrinsic variables themselves.
    """

    def __init__(self, family: ReducedFamily, beta: float, lam: float):
        self.family = family
        self.beta = float(beta)
        self.lam = float(lam)
        self.mass = family.params.mass
        self.units = np.asarray([1.0, 1.0, self.mass, self.mass])
        self._dr, dxi = family.saddle_derivative(beta).tolist()
        self.weight = np.asarray([1.0, 1.0, 1.0, math.hypot(1.0, self._dr, dxi)])
        # the radial half of p, Delta*xi^2 + v_beta(r) + bump, is pinned with
        # (r, xi): of its derivatives `rhs` reads only (v_b, v_rb, v_bb), and
        # the bump, a function of (r, xi) alone, enters none of them
        r_s = family.saddle(beta)[0]
        self._radial = kerr.radial_terms(family.params, self.beta, r_s)[4:]

        disc = lam - family.shell_value(beta)
        if disc <= 0.0:
            raise DomainError(
                f"beta={beta:g} admits no shell orbit on the lambda={lam:g} shell"
            )
        self.u0 = np.asarray([*SHELL_START, math.sqrt(disc), beta])
        # the start of (u, X) in the units of M, as `rhs` takes it
        self.z0 = np.concatenate([self.u0 / self.units, np.eye(4).ravel()])
        self.chart = family.chart(beta)

    def rhs(self, t: float, z: np.ndarray) -> np.ndarray:
        """Field of (u, intrinsic 4x4 Jacobian X): the one shell-orbit RHS.

        The intrinsic variational matrix is M = (H_alpha, H_beta, -H_theta, 0) E
        with E the embedding differential: beta is conserved, so only its
        first three rows are formed, and the last row of X' is zero.  Those
        rows of Hess p hold p_aa = 2, (p_br, p_bt, p_bb) and (p_tt, p_tb)
        only, and E's beta column weighs p_br by r_s'.  They and the
        velocity add the orbit's radial constants to the angular
        half at theta, entry by entry as `kerr._grad_hess` does, so the
        three rows are

            [[0, 0, 2, 0], [p_tb, 0, 0, c], [-p_tt, 0, 0, -p_tb]],

        with c = v_rb r_s' + v_bb + p_bb.  In the units of the mass m (class
        docstring) z = (D^-1 u, D^-1 X D) and d/dtau = (1/m) d/dt, so the
        rows become [[0, 0, 2, 0], [p_tb/m, 0, 0, c], [-p_tt/m^2, 0, 0, -p_tb/m]]
        and the velocity (p_alpha/m, p_beta/m, -p_theta/m^2, 0).  At m = 1
        that is the intrinsic field itself.  The field runs on Python floats: the twelve entries of those rows
        times X are written out from that structure, and the one array built
        per call is the returned field.
        """
        theta, _, alpha, beta, *X = z.tolist()
        m = self.mass
        p_t, p_a, p_b, p_tt, p_tb, p_bb = kerr.angular_derivs(
            self.family.params, theta, alpha * m, beta * m
        )
        v_b, v_rb, v_bb = self._radial
        c = v_rb * self._dr + (v_bb + p_bb)
        e, f = p_tb / m, p_tt / (m * m)
        rows_03 = list(zip(X[:4], X[12:]))  # (X_0j, X_3j)
        return np.array([
            p_a / m, (v_b + p_b) / m, -p_t / (m * m), 0.0,
            *[2.0 * x for x in X[8:12]],
            *[e * a + c * b for a, b in rows_03],
            *[-f * a - e * b for a, b in rows_03],
            0.0, 0.0, 0.0, 0.0,
        ])

    def tangent_cocycle(self, horizon: float, tol: float) -> TangentCocycle:
        """The tangential cocycle over one theta-period, from its first
        quarter, in the units of M.

        The orbit starts on the equator with alpha > 0, so theta first turns,
        where alpha falls through 0, at t_q = P/4 (fact 4); the integration
        of `rhs` stops there.  Raises InvalidHorizon when the period 4 t_q
        exceeds `horizon`.
        """
        sol = solve_ivp(self.rhs, (0.0, horizon * self.mass / 4.0), self.z0, rtol=tol,
                        atol=tol * 1e-2, event=lambda t, z: z[2], dense_output=True)
        if sol.status != 1:
            raise InvalidHorizon(
                f"horizon {horizon:g} is too short: theta does not return "
                f"within it at beta={self.beta:g} ({sol.message})"
            )
        return TangentCocycle(float(sol.t[-1]), sol.sol)

    def tangential_frame(self) -> np.ndarray:
        """Orthonormal intrinsic 4x3 frame spanning the shell-tangent kernel of dp.

        Its first column is the start velocity (p_alpha, p_beta, -p_theta, 0)
        from `rhs`; phi and a beta-alpha (or beta-theta) mix complete the
        kernel of dp = (p_theta, 0, p_alpha, p_beta).  `rhs` gives the
        velocity in the units of M, (p_alpha, p_beta)/M and -p_theta/M^2, so
        the test for p_alpha = 0 does not depend on M.
        """
        flow = self.rhs(0.0, self.z0)[:4]
        p_al, p_be, p_th = flow[0], flow[1], -flow[2]
        b_phi = np.asarray([0.0, 1.0, 0.0, 0.0])
        if abs(p_al) > 1e-12:
            b_mix = np.asarray([0.0, 0.0, -p_be / p_al, 1.0])
        else:
            b_mix = np.asarray([-p_be / (p_th * self.mass), 0.0, 0.0, 1.0])
        velocity = flow * self.units * self.mass
        frame, _ = np.linalg.qr(np.column_stack([velocity, b_phi, b_mix]))
        return frame


class TangentCocycle:
    """The intrinsic Jacobian X on one theta-period, held as its first
    quarter (fact 4), in the units of the mass that `ShellOrbit.rhs`
    integrates: times here are M t and matrices D^-1 X D.  D is diagonal,
    so it commutes with R and S, and the structure below holds in either
    units.

    Each s in [0, P] lies in a quarter j = 0..3 and is the image of a time
    sigma in [0, t_q]: s = sigma, 2 t_q - sigma, 2 t_q + sigma or
    4 t_q - sigma.  There X(s) = D_j X(sigma) B_j, with D_j = I, R, S, SR and
    the post-factors B_0 = I, B_1 = X_q^-1 R X_q, B_2 = S X(P/2) and
    B_3 = B_1 B_2, so that X(P/2) = R B_1 and M = X(P) = B_2^2 = I + N.

    The monodromy is never raised to a power: integration error of size
    tol splits its 2x2 Jordan blocks into eigenvalues about sqrt(tol) off
    the unit circle, which powers would amplify.
    """

    def __init__(self, quarter_time: float, quarter: DenseSolution):
        self.quarter_time = quarter_time  # t_q, where theta first turns
        self.quarter = quarter  # sigma -> (D^-1 u, D^-1 X D) on [0, t_q]
        self.period = 4.0 * quarter_time
        X_q = quarter(quarter_time)[4:].reshape(4, 4)
        B1 = np.linalg.solve(X_q, REVERSE[:, None] * X_q)
        B2 = (REFLECT * REVERSE)[:, None] * B1
        self.post = np.asarray([np.eye(4), B1, B2, B1 @ B2])
        self.shear = B2 @ B2 - np.eye(4)  # N = X(P) - I, N^2 = 0 up to integration error

    def sup(self, W: np.ndarray, Y: np.ndarray) -> float:
        """sup over s in [0, P] of ||diag(W) X(s) Y||: the sup over sigma in
        [0, t_q] of max_j ||diag(W) X(sigma) B_j Y||, since each D_j is a
        signed identity (fact 4).  The 2-norm of each 4 x k product A is the
        root of the top eigenvalue of its k x k Gram matrix A^T A, a
        symmetric eigensolve where `np.linalg.norm(A, 2)` would run an SVD."""
        post_Y = self.post @ Y  # (4, 4, k): B_j Y

        def branch_max(sigma):
            X = np.moveaxis(self.quarter(sigma)[4:].reshape(4, 4, -1), -1, 0)[:, None]
            A = W[:, None] * X @ post_Y  # (m, 4, 4, k): diag(W) X(sigma) B_j Y
            gram = np.swapaxes(A, -2, -1) @ A
            return np.sqrt(np.linalg.eigvalsh(gram)[..., -1].max(axis=-1))

        return _envelope_sup(branch_max, self.quarter_time)


# -- certification -----------------------------------------------------------


@dataclass
class RatioCheck:
    r: int
    theta0: float
    C: float
    slope_forward: float
    slope_backward: float
    passed: bool


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
    ratio_checks: list[RatioCheck]
    tangential_degree: int
    passed: bool
    reasons: list[str] = field(default_factory=list)


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


def _beta_sample(
    fam: ReducedFamily, beta: float, lam: float, horizon: float, tol: float
) -> BetaSample:
    """Period, tangential degree and tangential envelope at one beta.

    sigma(t) = ||E X(t) F|| = ||W X(t) F|| on the shell-tangent frame F,
    with E and W = `ShellOrbit.weight` as in `ShellOrbit`.  With
    t = s + mP, X(t) F = X(s) (F + mNF + C(m, 2) N^2 F + ...), so the degree
    of growth is the first power k with N^k F = 0, less one.  N carries
    units (alpha and beta scale like M, theta and phi do not), so the zero
    test runs on the dimensionless D^-1 N D, D = diag(1, 1, M, M), which is
    the shear of the cocycle held in the units of M (`ShellOrbit`).  F spans
    a D-invariant space (at the equatorial start p_theta = 0, so the flow
    has no alpha part), hence (D^-1 N D)^k F vanishes exactly when N^k F
    does.  The test is ||(D^-1 N D)^k F|| <= sqrt(tol), decades above the
    integration error, read on the top eigenvalue of the Gram matrix as in
    `TangentCocycle.sup`.  The shear grows like a/M (0.02 at a = 0.1 M), so it
    reads as degree 0 only below a ~ 5e-5 M, and the envelope slope b is
    measured either way.
    """
    orbit = ShellOrbit(fam, beta, lam)
    cocycle = orbit.tangent_cocycle(horizon, tol)  # in the units of M
    period, N_hat = cocycle.period / orbit.mass, cocycle.shear  # N_hat = D^-1 N D
    W, F = orbit.weight, orbit.tangential_frame()
    degree, NkF = 0, N_hat @ F
    while degree <= TANGENTIAL_DEGREE_MAX and np.linalg.eigvalsh(NkF.T @ NkF)[-1] > tol:
        degree, NkF = degree + 1, N_hat @ NkF
    # ||W X(t) Y|| = ||W D X_hat D^-1 Y|| with X_hat = D^-1 X D, and N F = D N_hat D^-1 F
    W_hat, F_hat = W * orbit.units, F / orbit.units[:, None]

    return BetaSample(
        chart=orbit.chart,
        period=period,
        tangential_degree=degree,
        envelope=(cocycle.sup(W_hat, F_hat), cocycle.sup(W_hat, N_hat @ F_hat) / period),
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
    the float range raises DomainError, since r runs up to the config's
    r_max.
    """
    try:
        if r * b <= k * a:
            value = a**r
        else:
            value = (r * b / k) ** r * math.exp(k * a / b - r)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise DomainError(
            f"r_max is too large: the ratio bound overflows a float at r = {r}"
        )
    return value


def certify(
    lam: float, family: ReducedFamily, horizon: float, r_max: int, tol: float
) -> TrapCertificate:
    """Certify r-normal hyperbolicity of the family's trapped set on one
    energy shell.

    The N_BETA sampled betas lie inside `equatorial_beta_range`.  At each,
    the normal bundles grow like exp(lambda |t|) both ways, with lambda the
    chart's `normal_exponent` (fact 2), and the first quarter theta-period
    of the tangential cocycle on the pinned shell orbit gives, through
    fact 4, the degree of tangential growth and the envelope a + b*t
    (fact 3).  With lambda the least sampled rate, for r = 1..r_max the
    ratio checks bound (a + b*t)^r exp(-(lambda - theta0) t) over t >= 0 in
    closed form, with a the backward envelope's a + b*P, which is at least
    the forward one's a, and the bound grows with a; they hold when the
    degree is at most 1.  `horizon` only bounds the search for the
    theta-period: no number depends on it.
    """
    if horizon <= 0.0:
        raise InvalidHorizon(f"horizon must be positive, got {horizon}")
    lo, hi = equatorial_beta_range(lam, family)
    samples = [
        _beta_sample(family, float(beta), lam, horizon, tol)
        for beta in _beta_grid(lo, hi)
    ]
    degree = max(s.tangential_degree for s in samples)
    passed = degree <= TANGENTIAL_DEGREE_MAX
    rate = min(s.chart.normal_exponent for s in samples)
    theta0 = THETA0_FRACTION * rate
    b = max(s.envelope[1] for s in samples)
    a_bwd = max(s.envelope[0] + s.envelope[1] * s.period for s in samples)
    ratio_checks = [
        RatioCheck(
            r=r,
            theta0=theta0,
            C=_ratio_sup(r, a_bwd, b, rate - theta0),
            slope_forward=-rate,
            slope_backward=-rate,
            passed=passed,
        )
        for r in range(1, r_max + 1)
    ]
    return TrapCertificate(
        lam=lam,
        beta_samples=samples,
        theta_rate=rate,
        ratio_checks=ratio_checks,
        tangential_degree=degree,
        passed=passed,
        reasons=[] if passed else [f"tangential degree {degree} > {TANGENTIAL_DEGREE_MAX}"],
    )


# -- perturbation ------------------------------------------------------------


@dataclass
class PerturbReport:
    certificate: TrapCertificate
    epsilon: float
    seed: int
    displacement: float
    displacement_factor: float  # displacement / epsilon
    exponent_shift: float  # max relative shift of the normal exponent


def perturb_and_recertify(
    params: KerrParams,
    lam: float,
    epsilon: float,
    seed: int,
    horizon: float,
    r_max: int,
    tol: float,
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
    cert = certify(lam, fam, horizon=horizon, r_max=r_max, tol=tol)
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
        epsilon=epsilon,
        seed=seed,
        displacement=displacement,
        displacement_factor=displacement / epsilon if epsilon > 0 else 0.0,
        exponent_shift=shift,
    )


# -- serialization -----------------------------------------------------------


def certificate_to_dict(cert: TrapCertificate) -> dict:
    """JSON-ready dictionary with the stable key set."""
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
        "ratio_checks": [
            {
                "r": c.r,
                "theta0": c.theta0,
                "C": c.C,
                "slope_forward": c.slope_forward,
                "slope_backward": c.slope_backward,
                "passed": c.passed,
            }
            for c in cert.ratio_checks
        ],
        "tangential_degree": cert.tangential_degree,
        "passed": cert.passed,
        "reasons": list(cert.reasons),
    }
