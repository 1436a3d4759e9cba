"""Certification of normally hyperbolic trapping for the photon shell.

The trapped set is a beta-family of saddles of the autonomous (r, xi)
subsystem, crossed with invariant angular tori.  Certification rests on
three exact facts about the separable symbol
p = Delta*xi^2 + v_beta(r) + alpha^2 + q(theta, beta)^2:

1. The (r, xi) block closes on itself, so shell orbits keep the radial pair
   pinned at the saddle exactly and live in the intrinsic coordinates
   u = (theta, phi, alpha, beta).
2. Along a pinned orbit the subspace w_theta = w_alpha = w_beta = 0 is
   invariant under A6 = J*Hess(p), and the (r, phi, xi) block of A6 on it
   does not depend on theta (a perturbation bump depends on (r, xi) only).
   Its eigenvalues are lambda_+, 0 and -lambda_- (phi is cyclic), so the
   eigenvectors for +-lambda are the normal bundles, and they grow exactly
   like exp(lambda_+ t) forward and exp(lambda_- |t|) backward.
3. The tangential cocycle X(t) depends on the orbit only through theta(t),
   a periodic one-degree-of-freedom motion of period P.  Hence
   X(t + P) = X(t) M with the monodromy M = X(P) = I + N, and N^2 = 0:
   M shears along the flow (the period depends on the energy) and along
   phi (which is cyclic), and fixes both directions.  So
   X(s + mP) = X(s) (I + mN) for every integer m, and tangential growth is
   polynomial of degree 0 (N vanishes on the shell-tangent frame) or 1.

The one period is integrated by the in-house DOP853 of `nhtrap.ode`, whose
dense output and count-aware terminal event give the period, the monodromy
and X(s) on [0, P).  Roots (trapped radii, extremal beta values) come from
its bracketed `brentq`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kerr
from .errors import (
    Degenerate,
    DomainError,
    InvalidHorizon,
    NoBracket,
    NotHyperbolic,
)
from .kerr import KerrParams, PhaseState, radial_potential_derivs
from .models import BumpPattern, newton_saddle, reduced_kerr_model
from .ode import DenseSolution, brentq, solve_ivp

RNORM_DEFAULT = 4
RATE_FLOOR_FRACTION = 0.9
INVARIANCE_ANGLE_MAX = 1e-4
TANGENTIAL_DEGREE_MAX = 1
# grid over one theta-period locating the sup of the tangential envelope
ENVELOPE_SAMPLES = 256
# the golden-section polish of that sup stops on brackets this short
ENVELOPE_XTOL = 1e-9
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def trapped_radius(
    beta: float,
    params: KerrParams,
    xtol: float = 1e-14,
    r_hi: float | None = None,
) -> float:
    """Radius of the trapped sphere at angular momentum beta.

    Bracketed root of v' (sign-change scan, then brentq), confirmed a maximum.
    The scan starts just outside r+: as a -> M the prograde photon orbit
    approaches the horizon (r = 1.1676 against r+ = 1.1411 at a = 0.99).
    """
    rp = kerr.horizon_radius(params)
    lo = rp + 1e-3 * params.mass
    hi = r_hi if r_hi is not None else 8.0 * params.mass
    grid = np.linspace(lo, hi, 400)
    vals = radial_potential_derivs(params, beta, grid)[1]
    sign = np.sign(vals)
    flips = np.nonzero(np.diff(sign) < 0)[0]  # + to -: a maximum
    if flips.size == 0:
        raise NoBracket(
            f"no sign change of v' on [{lo:.6g}, {hi:.6g}] at beta={beta:g}"
        )
    i = flips[0]
    root = brentq(
        lambda r: radial_potential_derivs(params, beta, r)[1],
        grid[i],
        grid[i + 1],
        xtol=xtol,
        rtol=8.9e-16,
    )
    curv = radial_potential_derivs(params, beta, root)[2]
    if not (curv < 0.0):
        raise Degenerate(f"v'' = {curv:g} >= 0 at candidate radius {root:g}")
    return float(root)


@dataclass(frozen=True)
class TrappedOrbitChart:
    """Linearized normal data at one trapped sphere."""

    beta: float
    trapped_radius: float
    lin_matrix: np.ndarray  # [[0, Delta], [B', 0]], B' = -v''/2, half-field generator
    normal_exponent: float  # 2*sqrt(Delta*B'), full-field rate
    potential_curvature: float  # v'' < 0


def linearization(beta: float, params: KerrParams) -> TrappedOrbitChart:
    """Normal linearization at the trapped radius.

    The momentum equation's forcing is B = -v'/2, so B' = -v''/2.
    """
    r0 = trapped_radius(beta, params)
    dl = kerr.delta(params, r0)
    curv = radial_potential_derivs(params, beta, r0)[2]
    bp = -curv / 2.0
    if not (dl * bp > 0.0):
        raise NotHyperbolic(f"Delta*B' = {dl * bp:g} <= 0 at r={r0:g}")
    return TrappedOrbitChart(
        beta=beta,
        trapped_radius=r0,
        lin_matrix=np.asarray([[0.0, dl], [bp, 0.0]]),
        normal_exponent=2.0 * math.sqrt(dl * bp),
        potential_curvature=float(curv),
    )


class ReducedFamily:
    """Beta-family of radial saddles for a (possibly perturbed) symbol.

    Wraps the exterior symbol plus an optional (r, xi) bump of size epsilon.
    Provides saddle location/derivatives, the normal generator, and
    gradient/Hessian of the six-dimensional symbol at embedded points.
    """

    def __init__(
        self,
        params: KerrParams,
        bump: BumpPattern | None = None,
        epsilon: float = 0.0,
    ):
        self.params = params
        self.bump = bump
        self.epsilon = epsilon if bump is not None else 0.0
        self._saddles: dict[float, tuple[float, float]] = {}

    # -- radial structure -------------------------------------------------

    def reduced_model(self, beta: float):
        return reduced_kerr_model(
            self.params, beta, bump=self.bump, epsilon=self.epsilon
        )

    def saddle(self, beta: float) -> tuple[float, float]:
        """Fixed point (r_s, xi_s) of the reduced flow at this beta."""
        key = float(beta)
        if key in self._saddles:
            return self._saddles[key]
        r0 = trapped_radius(beta, self.params)
        point = (r0, 0.0)
        if self.epsilon != 0.0:
            r_s, xi_s = newton_saddle(self.reduced_model(beta), point)
            point = (float(r_s), float(xi_s))
        self._saddles[key] = point
        return point

    def saddle_hessian(self, beta: float) -> np.ndarray:
        """Hessian of the reduced symbol in (r, xi) at the saddle."""
        return self.reduced_model(beta).hessian(np.asarray(self.saddle(beta)))

    def saddle_derivative(self, beta: float) -> np.ndarray:
        """(dr_s/dbeta, dxi_s/dbeta) by the implicit function theorem.

        The saddle solves grad p(r, xi; beta) = 0.  Of p only v_beta(r)
        depends on beta (Delta*xi^2 and the bump do not), so
        d(grad p)/dbeta = (v_rb, 0) and d(r_s, xi_s)/dbeta = -H^-1 (v_rb, 0).
        """
        v_rb = kerr.radial_terms(self.params, beta, self.saddle(beta)[0])[5]
        return -np.linalg.solve(self.saddle_hessian(beta), [v_rb, 0.0])

    def normal_generator(self, beta: float) -> np.ndarray:
        """2x2 full-field generator J*Hess at the saddle."""
        H = self.saddle_hessian(beta)
        return np.asarray([[H[1, 0], H[1, 1]], [-H[0, 0], -H[0, 1]]])

    def exponent(self, beta: float) -> float:
        """Normal expansion rate: positive eigenvalue of the generator."""
        gen = self.normal_generator(beta)
        disc = gen[0, 1] * gen[1, 0] + ((gen[0, 0] - gen[1, 1]) / 2.0) ** 2
        if disc <= 0.0:
            raise NotHyperbolic(f"complex normal spectrum at beta={beta:g}")
        eigs = np.linalg.eigvals(gen)
        if np.max(np.abs(eigs.imag)) > 1e-10 * np.max(np.abs(eigs)):
            raise NotHyperbolic(f"complex normal spectrum at beta={beta:g}")
        return float(np.max(eigs.real))

    def chart(self, beta: float) -> TrappedOrbitChart:
        """Half-field chart; reduces to `linearization` when unperturbed."""
        if self.epsilon == 0.0:
            return linearization(beta, self.params)
        r_s, _ = self.saddle(beta)
        curv = self.saddle_hessian(beta)[0, 0]
        return TrappedOrbitChart(
            beta=beta,
            trapped_radius=r_s,
            lin_matrix=self.normal_generator(beta) / 2.0,
            normal_exponent=self.exponent(beta),
            potential_curvature=float(curv),
        )

    # -- six-dimensional symbol -------------------------------------------

    def grad6(self, y6: np.ndarray) -> np.ndarray:
        return self.grad_hess6(y6)[0]

    def grad_hess6(self, y6: np.ndarray):
        g, H = kerr.grad_hess_raw(
            self.params, y6[0], y6[1], y6[3], y6[4], y6[5]
        )
        if self.epsilon != 0.0:
            # epsilon * (gradient, Hessian) of the bump, embedded in six dimensions
            bg, bH = np.zeros(6), np.zeros((6, 6))
            bg[0], bg[3] = self.bump.gradient(y6[0], y6[3])
            hxx, hxy, hyy = self.bump.hessian(y6[0], y6[3])
            bH[0, 0], bH[0, 3], bH[3, 0], bH[3, 3] = hxx, hxy, hxy, hyy
            g, H = g + self.epsilon * bg, H + self.epsilon * bH
        return g, H

    def value6(self, y6: np.ndarray) -> float:
        val = float(kerr.symbol_p(PhaseState.from_array(y6), self.params))
        if self.epsilon != 0.0:
            val += self.epsilon * float(self.bump.value(y6[0], y6[3]))
        return val


# -- photon-shell orbits (pinned radial pair) -------------------------------


class ShellOrbit:
    """One shell orbit: intrinsic coordinates u = (theta, phi, alpha, beta).

    The embedding back into the six-dimensional chart pins (r, xi) at the
    saddle, which the flow preserves exactly; the intrinsic variational
    system is the tangential cocycle, free of hyperbolic contamination.
    """

    def __init__(self, family: ReducedFamily, beta: float, lam: float,
                 theta0: float = np.pi / 2.0, phi0: float = 0.0):
        self.family = family
        self.beta = float(beta)
        self.lam = float(lam)
        r_s, xi_s = family.saddle(beta)
        self.r_s, self.xi_s = r_s, xi_s
        dr, dxi = family.saddle_derivative(beta)
        # embedding differential: columns are d(embed)/d(theta, phi, alpha, beta)
        E = np.zeros((6, 4))
        E[1, 0] = 1.0
        E[2, 1] = 1.0
        E[4, 2] = 1.0
        E[5, 3] = 1.0
        E[0, 3] = dr
        E[3, 3] = dxi
        self.embed_diff = E
        # the radial half of p, Delta*xi^2 + v_beta(r) + bump, is pinned with
        # (r, xi): of its derivatives `rhs` reads only (v_b, v_rb, v_bb), and
        # the bump, a function of (r, xi) alone, enters none of them
        self._radial = kerr.radial_terms(family.params, self.beta, r_s)[4:]

        rest = family.value6(self.embed(np.asarray([theta0, phi0, 0.0, beta])))
        disc = lam - rest
        if disc <= 0.0:
            raise DomainError(
                f"beta={beta:g} admits no shell orbit on the lambda={lam:g} shell"
            )
        self.u0 = np.asarray([theta0, phi0, math.sqrt(disc), beta])

    def rhs(self, t: float, z: np.ndarray) -> np.ndarray:
        """Field of (u, intrinsic 4x4 Jacobian X): the one shell-orbit RHS.

        The intrinsic variational matrix is M = (H_alpha, H_beta, -H_theta, 0) L
        with L the embedding differential: beta is conserved, so only its
        first three rows are formed, and the last row of X' is zero.  They
        and the velocity add the orbit's radial constants to the angular
        half at theta, entry by entry as `kerr._grad_hess` does.
        """
        theta, _, alpha, beta = z[:4]
        p_t, p_a, p_b, p_tt, p_tb, p_bb = kerr.angular_derivs(
            self.family.params, theta, alpha, beta
        )
        v_b, v_rb, v_bb = self._radial
        rows = np.zeros((3, 6))  # the alpha, beta and theta rows of Hess p
        rows[0, 4] = 2.0
        rows[1, 0], rows[1, 1], rows[1, 5] = v_rb, p_tb, v_bb + p_bb
        rows[2, 1], rows[2, 5] = p_tt, p_tb
        M = rows @ self.embed_diff
        M[2] = -M[2]
        velocity = [p_a, v_b + p_b, -p_t, 0.0]
        return np.concatenate(
            [velocity, (M @ z[4:].reshape(4, 4)).ravel(), np.zeros(4)]
        )

    def tangent_cocycle(self, horizon: float, tol: float = 1e-10) -> TangentCocycle:
        """Intrinsic Jacobian t -> X(t) for any real t, from one theta-period.

        The period P is the first upward return of theta to its start; the
        integration of (u, X) stops there.  Raises InvalidHorizon when theta
        does not return within `horizon`.
        """
        theta0 = self.u0[0]

        def crossing(t, z):
            return z[0] - theta0

        crossing.direction = 1.0
        crossing.terminal = 2  # the first root is the start itself, t = 0
        z0 = np.concatenate([self.u0, np.eye(4).ravel()])
        sol = solve_ivp(self.rhs, (0.0, horizon), z0, rtol=tol, atol=tol * 1e-2,
                        event=crossing, dense_output=True)
        if sol.status != 1:
            raise InvalidHorizon(
                f"horizon {horizon:g} is too short: theta does not return "
                f"within it at beta={self.beta:g} ({sol.message})"
            )
        monodromy = sol.y_events[-1][4:].reshape(4, 4)
        return TangentCocycle(
            period=float(sol.t_events[-1]),
            shear=monodromy - np.eye(4),
            one_period=sol.sol,
        )

    def embed(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(
            [self.r_s, u[0], u[1], self.xi_s, u[2], u[3]], dtype=float
        )

    def blocks(self, u: np.ndarray):
        """(intrinsic rhs, 6D variational matrix A6 = J Hess p), one eval."""
        g, H = self.family.grad_hess6(self.embed(u))
        return _velocity(g), np.vstack([H[3:, :], -H[:3, :]])

    def normal_bundles(self):
        """Normal rates and unit bundle 6-vectors, ((lambda_+, e_+), (lambda_-, e_-)).

        The eigenpairs of A6 on its invariant (r, phi, xi) block (fact 2),
        so exp(t*A6) e_+ = exp(lambda_+ t) e_+ and
        exp(-t*A6) e_- = exp(lambda_- t) e_-.
        """
        block = [0, 2, 3]
        A6 = self.blocks(self.u0)[1]
        eigvals, eigvecs = np.linalg.eig(A6[np.ix_(block, block)])
        out = []
        for i in (np.argmax(eigvals.real), np.argmin(eigvals.real)):
            e = np.zeros(6)
            e[block] = eigvecs[:, i].real
            out.append((abs(float(eigvals[i].real)), e / np.linalg.norm(e)))
        return out[0], out[1]

    def tangential_frame(self) -> np.ndarray:
        """Orthonormal intrinsic 4x3 frame spanning the shell-tangent kernel of dp."""
        g = self.family.grad6(self.embed(self.u0))
        p_th, p_al, p_be = g[1], g[4], g[5]
        flow = self.blocks(self.u0)[0]
        b_phi = np.asarray([0.0, 1.0, 0.0, 0.0])
        if abs(p_al) > 1e-12:
            b_mix = np.asarray([0.0, 0.0, -p_be / p_al, 1.0])
        else:
            b_mix = np.asarray([-p_be / p_th, 0.0, 0.0, 1.0])
        frame, _ = np.linalg.qr(np.column_stack([flow, b_phi, b_mix]))
        return frame


def _velocity(g: np.ndarray) -> np.ndarray:
    """Intrinsic shell velocity (theta, phi, alpha, beta)' from the 6D gradient."""
    return np.asarray([g[4], g[5], -g[1], 0.0])


@dataclass(frozen=True)
class TangentCocycle:
    """X(t) = X(s) (I + mN) for t = s + mP, s in [0, P) (fact 3).

    The monodromy is never raised to a power: integration error of size
    tol splits its 2x2 Jordan blocks into eigenvalues about sqrt(tol) off
    the unit circle, which powers would amplify.
    """

    period: float
    shear: np.ndarray  # N = X(P) - I, with N^2 = 0 up to integration error
    one_period: DenseSolution  # s -> (u, X) on [0, P]

    def __call__(self, t):
        """X(t) as a 4x4 matrix, or a stack of them for an array of times."""
        m, s = np.divmod(t, self.period)
        X = self.one_period(s)[4:].reshape(4, 4, *np.shape(s))
        X = np.moveaxis(X, (0, 1), (-2, -1))
        return X @ (np.eye(4) + np.multiply.outer(m, self.shear))


def _line_angle(ref: np.ndarray, w: np.ndarray) -> float:
    """Angle between the lines spanned by the unit vector ref and w != 0.

    atan2 of the rejection and projection keeps small angles exact, where
    acos of the projection loses them below about 1e-8.
    """
    dot = float(np.dot(ref, w))
    return math.atan2(float(np.linalg.norm(w - dot * ref)), abs(dot))


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
    chart: TrappedOrbitChart
    xi_saddle: float
    rate_plus: float
    rate_minus: float
    period: float
    tangential_degree: int
    # (a, b): sigma(t) <= a + b*t forward and a + b*(t + period) backward
    envelope: tuple[float, float]
    invariance_angle: float

    def passed(self) -> bool:
        mu = self.chart.normal_exponent
        return (
            self.rate_plus >= RATE_FLOOR_FRACTION * mu
            and self.rate_minus >= RATE_FLOOR_FRACTION * mu
            and self.invariance_angle <= INVARIANCE_ANGLE_MAX
        )


@dataclass
class TrapCertificate:
    lam: float
    beta_samples: list[BetaSample]
    theta_rate: float
    ratio_checks: list[RatioCheck]
    tangential_degree: int
    passed: bool
    reasons: list[str] = field(default_factory=list)


def equatorial_beta_range(
    lam: float, params: KerrParams, family: ReducedFamily | None = None
) -> tuple[float, float]:
    """Extremal equatorial beta values on the lambda shell of the trapped set."""
    fam = family or ReducedFamily(params)

    def shell_value(beta):
        r_s, xi_s = fam.saddle(beta)
        y6 = np.asarray([r_s, np.pi / 2.0, 0.0, xi_s, 0.0, beta])
        return fam.value6(y6) - lam

    hi = 7.0 * params.mass
    eps = 1e-3
    roots = []
    for lo_b, hi_b in ((eps, hi), (-hi, -eps)):
        flo, fhi = shell_value(lo_b), shell_value(hi_b)
        if flo * fhi > 0:
            raise NoBracket(
                f"no equatorial critical beta in [{lo_b:g}, {hi_b:g}]"
            )
        roots.append(brentq(shell_value, lo_b, hi_b, xtol=1e-13))
    plus, minus = roots
    return float(minus), float(plus)


def _beta_grid(lo: float, hi: float, n: int) -> np.ndarray:
    width = hi - lo
    grid = np.linspace(lo + 0.05 * width, hi - 0.05 * width, n)
    step = grid[1] - grid[0] if n > 1 else 0.1 * width
    # the equatorial sphere beta = 0 is excluded from sampling
    grid = np.where(np.abs(grid) < 0.02 * width, grid + 0.5 * step, grid)
    return grid


def _beta_sample(
    fam: ReducedFamily, beta: float, lam: float, horizon: float, tol: float
) -> BetaSample:
    """Normal rates, bundle invariance and tangential envelope at one beta.

    sigma(t) = ||L X(t) F|| on the shell-tangent frame F.  With
    t = s + mP, X(t) F = X(s) (F + mNF + C(m, 2) N^2 F + ...), so the degree
    of growth is the first power k with N^k F = 0, less one.  The zero test
    is ||L N^k F|| <= sqrt(tol), decades above the integration error.  The
    shear grows like the spin (0.02 at a = 0.1), so it reads as degree 0
    only below a ~ 5e-5, and the envelope slope b is measured either way.
    """
    chart = fam.chart(beta)
    orbit = ShellOrbit(fam, beta, lam)
    A6 = orbit.blocks(orbit.u0)[1]
    (rate_plus, e_plus), (rate_minus, e_minus) = orbit.normal_bundles()
    cocycle = orbit.tangent_cocycle(horizon, tol)
    period, N = cocycle.period, cocycle.shear
    L, F = orbit.embed_diff, orbit.tangential_frame()
    degree, NkF = 0, N @ F
    while degree <= TANGENTIAL_DEGREE_MAX and np.linalg.norm(L @ NkF, 2) > math.sqrt(tol):
        degree, NkF = degree + 1, N @ NkF
    grid = np.linspace(0.0, period, ENVELOPE_SAMPLES)

    def sup(Y):
        """sup over s in [0, P] of ||L X(s) Y||: grid argmax, then polished."""
        def norm(s):
            return np.linalg.norm(L @ cocycle(s) @ Y, 2, axis=(-2, -1))

        values = norm(grid)
        i = int(np.argmax(values))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        return max(float(values[i]), _golden_max(norm, lo, hi, ENVELOPE_XTOL))

    return BetaSample(
        chart=chart,
        xi_saddle=orbit.xi_s,
        rate_plus=rate_plus,
        rate_minus=rate_minus,
        period=period,
        tangential_degree=degree,
        envelope=(sup(F), sup(N @ F) / period),
        invariance_angle=max(_line_angle(e, A6 @ e) for e in (e_plus, e_minus)),
    )


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    """Largest value of f on [lo, hi] by golden-section search.

    It converges to the max when f is unimodal on the bracket; otherwise it
    still returns a value of f, which never overstates the sup.
    """
    x1, x2 = hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo)
    f1, f2 = float(f(x1)), float(f(x2))
    while hi - lo > xtol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INVPHI * (hi - lo)
            f1 = float(f(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INVPHI * (hi - lo)
            f2 = float(f(x2))
    return max(f1, f2)


def _ratio_sup(r: int, a: float, b: float, k: float) -> float:
    """sup over t >= 0 of (a + b*t)^r exp(-k*t), for a > 0, b >= 0, k > 0.

    The log is concave in t, so the sup sits at t = 0 unless the stationary
    point t* = r/k - a/b, where a + b*t* = r*b/k, is positive.
    """
    if r * b <= k * a:
        return a**r
    return (r * b / k) ** r * math.exp(k * a / b - r)


def certify(
    lam: float,
    params: KerrParams,
    horizon: float = 50.0,
    n_beta: int = 6,
    r_max: int = RNORM_DEFAULT,
    family: ReducedFamily | None = None,
    tol: float = 1e-10,
) -> TrapCertificate:
    """Certify r-normal hyperbolicity of the trapped set on one energy shell.

    Per sampled beta, on the pinned shell orbit: the normal rates and
    bundles are the eigenpairs of A6 on its invariant block (fact 2), and
    the invariance angle is the line angle between each bundle vector and
    its image under A6.  One theta-period of the tangential cocycle gives
    the degree of tangential growth and the envelope a + b*t (fact 3).  For
    r = 1..r_max the ratio checks bound (a + b*t)^r exp(-(lambda - theta0) t)
    over t >= 0 in closed form, forward with lambda_+ and backward with
    lambda_-; they hold when the degree is at most 1.  `horizon` only
    bounds the search for the theta-period: no number depends on it.
    """
    if horizon <= 0.0:
        raise InvalidHorizon(f"horizon must be positive, got {horizon}")
    fam = family or ReducedFamily(params)
    lo, hi = equatorial_beta_range(lam, params, fam)
    samples = [
        _beta_sample(fam, float(beta), lam, horizon, tol)
        for beta in _beta_grid(lo, hi, n_beta)
    ]
    reasons = [
        f"beta={s.chart.beta:.6g}: rates ({s.rate_plus:.4g}, {s.rate_minus:.4g}) "
        f"vs exponent {s.chart.normal_exponent:.4g}, "
        f"angle {s.invariance_angle:.2e}"
        for s in samples
        if not s.passed()
    ]
    degree = max(s.tangential_degree for s in samples)
    if degree > TANGENTIAL_DEGREE_MAX:
        reasons.append(f"tangential degree {degree} > {TANGENTIAL_DEGREE_MAX}")

    rate_fwd = min(s.rate_plus for s in samples)
    rate_bwd = min(s.rate_minus for s in samples)
    theta0 = 0.9 * min(rate_fwd, rate_bwd)
    b = max(s.envelope[1] for s in samples)
    a_fwd = max(s.envelope[0] for s in samples)
    a_bwd = max(s.envelope[0] + s.envelope[1] * s.period for s in samples)
    ratio_checks = [
        RatioCheck(
            r=r,
            theta0=theta0,
            C=max(_ratio_sup(r, a_fwd, b, rate_fwd - theta0),
                  _ratio_sup(r, a_bwd, b, rate_bwd - theta0)),
            slope_forward=-rate_fwd,
            slope_backward=-rate_bwd,
            passed=degree <= TANGENTIAL_DEGREE_MAX,
        )
        for r in range(1, r_max + 1)
    ]
    return TrapCertificate(
        lam=lam,
        beta_samples=samples,
        theta_rate=min(rate_fwd, rate_bwd),
        ratio_checks=ratio_checks,
        tangential_degree=degree,
        passed=not reasons,
        reasons=reasons,
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
    horizon: float = 20.0,
    n_beta: int = 6,
    r_max: int = RNORM_DEFAULT,
    tol: float = 1e-10,
) -> PerturbReport:
    """Perturb the symbol by a seeded bump, relocate saddles, recertify.

    Saddle relocation is damped Newton on the reduced fixed-point equations;
    the certificate is recomputed for the perturbed family, with the
    one-period integration at tolerance ``tol`` as in `certify`.
    Displacement is reported relative to epsilon.
    """
    if not (0.0 <= epsilon <= 0.05):
        raise DomainError(f"epsilon={epsilon} outside the certified regime [0, 0.05]")
    base = ReducedFamily(params)
    bump = BumpPattern(seed, (3.0 * params.mass, 0.0), span=0.6 * params.mass)
    fam = ReducedFamily(params, bump=bump, epsilon=epsilon)

    lo, hi = equatorial_beta_range(lam, params, fam)
    betas = _beta_grid(lo, hi, n_beta)
    displacement = 0.0
    shift = 0.0
    for beta in betas:
        b = float(beta)
        r0, xi0 = base.saddle(b)
        r1, xi1 = fam.saddle(b)
        displacement = max(
            displacement, math.hypot(r1 - r0, xi1 - xi0)
        )
        mu0, mu1 = base.exponent(b), fam.exponent(b)
        shift = max(shift, abs(mu1 - mu0) / mu0)

    cert = certify(
        lam, params, horizon=horizon, n_beta=n_beta, r_max=r_max, family=fam,
        tol=tol,
    )
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
                "xi_saddle": s.xi_saddle,
                "lin_matrix": [list(row) for row in s.chart.lin_matrix],
                "normal_exponent": s.chart.normal_exponent,
                "potential_curvature": s.chart.potential_curvature,
                "rate_plus": s.rate_plus,
                "rate_minus": s.rate_minus,
                "period": s.period,
                "tangential_degree": s.tangential_degree,
                "envelope": list(s.envelope),
                "invariance_angle": s.invariance_angle,
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
