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
   Normal growth over a chunk of length tau is therefore the constant
   matrix exp(+-tau*A6), applied with renormalization because the exponent
   ~ 6*sqrt(3)/M overflows any unrenormalized horizon-50 product.
3. The tangential cocycle X(t) depends on the orbit only through theta(t),
   a periodic one-degree-of-freedom motion of period P.  Hence
   X(t + P) = X(t) X(P), and one period of (u, X) gives X at every time
   of either sign: X(t) = X(t mod P) M^floor(t/P), with M = X(P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from . import kerr
from .flow import fit_slope, step_tolerance
from .errors import (
    Degenerate,
    DegenerateCritical,
    DomainError,
    InvalidHorizon,
    NoBracket,
    NotHyperbolic,
)
from .kerr import KerrParams, PhaseState, radial_potential, radial_potential_derivs
from .models import BumpPattern, newton_saddle, reduced_kerr_model

RNORM_DEFAULT = 4
CHUNK_TIME = 1.0
RATE_FLOOR_FRACTION = 0.9
TANGENTIAL_SLOPE_MAX = 1.2
INVARIANCE_ANGLE_MAX = 1e-4


def potential_v(r, beta: float, params: KerrParams):
    """Radial potential whose maximum locates the trapped sphere radius."""
    if np.any(np.asarray(r) <= kerr.horizon_radius(params)):
        raise DomainError("potential evaluated at r <= r+")
    return radial_potential(params, beta, r)


def trapped_radius(
    beta: float,
    params: KerrParams,
    xtol: float = 1e-14,
    r_hi: float | None = None,
) -> float:
    """Radius of the trapped sphere at angular momentum beta.

    Safeguarded root of v' (bracket scan + brentq), confirmed a maximum.
    """
    rp = kerr.horizon_radius(params)
    lo = rp + 0.05 * params.mass
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
        self._bumps: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

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

    def saddle_derivative(self, beta: float, step: float = 1e-5):
        """(dr_s/dbeta, dxi_s/dbeta) by central differences of the saddle map."""
        lo = self.saddle(beta - step)
        hi = self.saddle(beta + step)
        return (
            (hi[0] - lo[0]) / (2.0 * step),
            (hi[1] - lo[1]) / (2.0 * step),
        )

    def normal_generator(self, beta: float) -> np.ndarray:
        """2x2 full-field generator J*Hess at the saddle."""
        model = self.reduced_model(beta)
        H = model.hessian(np.asarray(self.saddle(beta)))
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
        gen = self.normal_generator(beta)
        curv = self.reduced_model(beta).hessian(np.asarray(self.saddle(beta)))[0, 0]
        return TrappedOrbitChart(
            beta=beta,
            trapped_radius=r_s,
            lin_matrix=gen / 2.0,
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
            bg, bH = self._bump_terms(y6[0], y6[3])
            g, H = g + bg, H + bH
        return g, H

    def _bump_terms(self, r: float, xi: float):
        """epsilon * (gradient, Hessian) of the bump, embedded in six dimensions.

        Memoized per (r, xi): a shell orbit pins the radial pair at its
        saddle, so every field evaluation along it asks for the same point.
        """
        if (r, xi) not in self._bumps:
            g, H = np.zeros(6), np.zeros((6, 6))
            g[0], g[3] = self.bump.gradient(r, xi)
            hxx, hxy, hyy = self.bump.hessian(r, xi)
            H[0, 0], H[0, 3], H[3, 0], H[3, 3] = hxx, hxy, hxy, hyy
            self._bumps[r, xi] = (self.epsilon * g, self.epsilon * H)
        return self._bumps[r, xi]

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

        rest = family.value6(self.embed(np.asarray([theta0, phi0, 0.0, beta])))
        disc = lam - rest
        if disc <= 0.0:
            raise DomainError(
                f"beta={beta:g} admits no shell orbit on the lambda={lam:g} shell"
            )
        self.u0 = np.asarray([theta0, phi0, math.sqrt(disc), beta])

    def rhs(self, t: float, z: np.ndarray) -> np.ndarray:
        """Field of (u, intrinsic 4x4 Jacobian X): the one shell-orbit RHS."""
        du, _, M = self.blocks(z[:4])
        return np.concatenate([du, (M @ z[4:].reshape(4, 4)).ravel()])

    def tangent_cocycle(self, horizon: float, tol: float = 1e-10):
        """Intrinsic Jacobian t -> X(t) for any real t, from one theta-period.

        The period P is the first upward return of theta to its start; the
        integration of (u, X) stops there, and X(t) = X(t mod P) M^floor(t/P)
        with the monodromy M = X(P).  Raises InvalidHorizon when theta does
        not return within `horizon`.
        """
        theta0 = self.u0[0]

        def crossing(t, z):
            return z[0] - theta0

        crossing.direction = 1.0
        crossing.terminal = 2  # the first root is the start itself, t = 0
        z0 = np.concatenate([self.u0, np.eye(4).ravel()])
        sol = solve_ivp(self.rhs, (0.0, horizon), z0, method="DOP853",
                        rtol=tol, atol=tol * 1e-2, events=crossing,
                        dense_output=True)
        if sol.status != 1:
            raise InvalidHorizon(
                f"no theta-period within horizon {horizon:g} at "
                f"beta={self.beta:g}: {sol.message}"
            )
        period = float(sol.t_events[0][-1])
        monodromy = sol.y_events[0][-1][4:].reshape(4, 4)

        def jacobian(t: float) -> np.ndarray:
            m, s = divmod(t, period)
            X = sol.sol(s)[4:].reshape(4, 4)
            return X @ np.linalg.matrix_power(monodromy, int(m))

        return jacobian

    def embed(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(
            [self.r_s, u[0], u[1], self.xi_s, u[2], u[3]], dtype=float
        )

    def blocks(self, u: np.ndarray):
        """(intrinsic rhs, 6D variational, intrinsic variational), one eval."""
        g, H = self.family.grad_hess6(self.embed(u))
        du = np.asarray([g[4], g[5], -g[1], 0.0])
        A6 = np.vstack([H[3:, :], -H[:3, :]])
        HE = H @ self.embed_diff  # 6x4
        M = np.zeros((4, 4))
        M[0, :] = HE[4, :]
        M[1, :] = HE[5, :]
        M[2, :] = -HE[1, :]
        return du, A6, M

    def normal_seeds(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit 6-vectors seeding the expanding/contracting normal bundles."""
        gen = self.family.normal_generator(self.beta)
        eigvals, eigvecs = np.linalg.eig(gen)
        order = np.argsort(eigvals.real)
        v_minus = eigvecs[:, order[0]].real
        v_plus = eigvecs[:, order[-1]].real
        out = []
        for v in (v_plus, v_minus):
            w = np.zeros(6)
            w[0], w[3] = v[0], v[1]
            out.append(w / np.linalg.norm(w))
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


def _normal_growth(step: np.ndarray, seed6: np.ndarray, n: int):
    """Renormalized chunk loop w_k = step^k seed6, k = 1..n.

    Returns the cumulative log-growth series and the unit directions.
    """
    w = seed6
    log_w = 0.0
    logs, dirs = [], []
    for _ in range(n):
        w = step @ w
        nw = np.linalg.norm(w)
        log_w += math.log(nw)
        w = w / nw
        logs.append(log_w)
        dirs.append(w)
    return np.asarray(logs), dirs


def _line_angle(ref: np.ndarray, w: np.ndarray) -> float:
    """Angle between the lines spanned by unit vectors ref and w.

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
    tangential_slope_fwd: float
    tangential_slope_bwd: float
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
    tangential_slope: float
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

    Per sampled beta, on the pinned shell orbit: normal rates from powers of
    the constant chunk propagator exp(+-tau*A6) (expanding bundle forward,
    contracting bundle under time reversal), tangential growth from the
    one-period Floquet form of the intrinsic cocycle, and the
    bundle-invariance angle from a seed re-started at a later chunk.  The
    r-normality ratio inequalities are then evaluated on the sampled
    sup/inf envelopes for r = 1..r_max.
    """
    if horizon <= 0.0:
        raise InvalidHorizon(f"horizon must be positive, got {horizon}")
    n_chunks = max(1, int(round(horizon / CHUNK_TIME)))
    tau = horizon / n_chunks
    times = tau * np.arange(1, n_chunks + 1)
    # the invariance check re-seeds at chunk k_from and compares at k_to;
    # k_to > k_from also leaves at least two points in every slope fit
    k_from = max(2, int(round(2.0 / tau)))
    k_to = min(n_chunks, k_from + 2)
    if k_to <= k_from:
        raise InvalidHorizon(
            f"horizon {horizon:g} is too short to certify: the invariance "
            f"check needs {k_from + 1} chunks of length {tau:g}, it holds {n_chunks}"
        )
    late = times >= 0.5 * times[-1]
    tangent = times >= max(tau, horizon / 5.0)
    log_t = np.log(times[tangent])

    fam = family or ReducedFamily(params)
    lo, hi = equatorial_beta_range(lam, params, fam)
    betas = _beta_grid(lo, hi, n_beta)

    samples: list[BetaSample] = []
    reasons: list[str] = []
    logs_fwd, logs_bwd, sigmas_fwd, sigmas_bwd = [], [], [], []
    for beta in betas:
        chart = fam.chart(float(beta))
        orbit = ShellOrbit(fam, float(beta), lam)
        A6 = orbit.blocks(orbit.u0)[1]
        cocycle = orbit.tangent_cocycle(horizon, tol)
        frame = orbit.tangential_frame()
        logs, sigmas, angles = {}, {}, []
        for sign, seed in zip((1, -1), orbit.normal_seeds()):
            step = expm(sign * tau * A6)
            logs[sign], dirs = _normal_growth(step, seed, n_chunks)
            reseeded = _normal_growth(step, seed, k_to - k_from)[1][-1]
            angles.append(_line_angle(dirs[k_to - 1], reseeded))
            sigmas[sign] = np.asarray([
                np.linalg.norm(orbit.embed_diff @ cocycle(sign * t) @ frame, 2)
                for t in times
            ])
        rate_plus = fit_slope(times[late], logs[1][late])[0]
        rate_minus = fit_slope(times[late], logs[-1][late])[0]
        slope_fwd = fit_slope(log_t, np.log(sigmas[1][tangent]))[0]
        slope_bwd = fit_slope(log_t, np.log(sigmas[-1][tangent]))[0]
        sample = BetaSample(
            chart=chart,
            xi_saddle=fam.saddle(float(beta))[1],
            rate_plus=rate_plus,
            rate_minus=rate_minus,
            tangential_slope_fwd=slope_fwd,
            tangential_slope_bwd=slope_bwd,
            invariance_angle=max(angles),
        )
        samples.append(sample)
        logs_fwd.append(logs[1])
        logs_bwd.append(logs[-1])
        sigmas_fwd.append(sigmas[1])
        sigmas_bwd.append(sigmas[-1])
        if not sample.passed():
            reasons.append(
                f"beta={beta:.6g}: rates ({rate_plus:.4g}, {rate_minus:.4g}) "
                f"vs exponent {chart.normal_exponent:.4g}, "
                f"angle {sample.invariance_angle:.2e}"
            )

    sup_T_fwd = np.max(sigmas_fwd, axis=0)
    sup_T_bwd = np.max(sigmas_bwd, axis=0)
    sup_logU = np.max(logs_fwd, axis=0)
    inf_logD = np.min(logs_bwd, axis=0)

    ratio_checks: list[RatioCheck] = []
    for r in range(1, r_max + 1):
        y1 = r * np.log(sup_T_fwd) - sup_logU
        y2 = r * np.log(sup_T_bwd) - inf_logD
        s1 = fit_slope(times[late], y1[late])[0]
        s2 = fit_slope(times[late], y2[late])[0]
        ok = s1 < 0.0 and s2 < 0.0
        theta0 = 0.9 * min(-s1, -s2) if ok else 0.0
        C = float(np.exp(max(np.max(y1 + theta0 * times),
                             np.max(y2 + theta0 * times))))
        ratio_checks.append(
            RatioCheck(r=r, theta0=theta0, C=C, slope_forward=s1,
                       slope_backward=s2, passed=ok)
        )
        if not ok:
            reasons.append(f"ratio check r={r}: slopes ({s1:.4g}, {s2:.4g})")

    tangential_slope = max(
        max(s.tangential_slope_fwd for s in samples),
        max(s.tangential_slope_bwd for s in samples),
    )
    if tangential_slope > TANGENTIAL_SLOPE_MAX:
        reasons.append(f"tangential slope {tangential_slope:.4g} > 1.2")

    theta_rate = min(min(s.rate_plus, s.rate_minus) for s in samples)
    passed = not reasons
    return TrapCertificate(
        lam=lam,
        beta_samples=samples,
        theta_rate=theta_rate,
        ratio_checks=ratio_checks,
        tangential_slope=tangential_slope,
        passed=passed,
        reasons=reasons,
    )


# -- equatorial critical manifold -------------------------------------------


@dataclass(frozen=True)
class CriticalPoint:
    beta: float
    hessian: np.ndarray  # d2(beta) in (alpha, theta) on the shell


def beta_critical_points(
    lam: float, params: KerrParams, family: ReducedFamily | None = None,
    det_floor: float = 1e-6,
) -> list[CriticalPoint]:
    """Equatorial extrema of beta on the shell, with transverse Hessians.

    beta is solved implicitly from the shell equation as a function of
    (alpha, theta) near each critical value; the Hessian comes from 5-point
    stencils of that implicit solution.
    """
    fam = family or ReducedFamily(params)
    lo, hi = equatorial_beta_range(lam, params, fam)
    out = []
    for beta_star in (hi, lo):
        def beta_at(alpha: float, theta: float) -> float:
            def shell(beta):
                r_s, xi_s = fam.saddle(beta)
                y6 = np.asarray([r_s, theta, 0.0, xi_s, alpha, beta])
                return fam.value6(y6) - lam

            span = 0.35 * max(abs(beta_star), 1.0)
            sgn = 1.0 if beta_star > 0 else -1.0
            a_br, b_br = beta_star - sgn * span, beta_star + sgn * 0.02 * span
            lo_br, hi_br = min(a_br, b_br), max(a_br, b_br)
            return brentq(shell, lo_br, hi_br, xtol=1e-14)

        h_a = 1e-3
        h_t = 1e-3
        th0 = np.pi / 2.0

        def d2(f, h):
            return (
                -f(2 * h) + 16.0 * f(h) - 30.0 * f(0.0) + 16.0 * f(-h) - f(-2 * h)
            ) / (12.0 * h * h)

        b_aa = d2(lambda s: beta_at(s, th0), h_a)
        b_tt = d2(lambda s: beta_at(0.0, th0 + s), h_t)

        def mixed(sa, st):
            return beta_at(sa, th0 + st)

        b_at = (
            mixed(h_a, h_t) - mixed(h_a, -h_t) - mixed(-h_a, h_t)
            + mixed(-h_a, -h_t)
        ) / (4.0 * h_a * h_t)
        H = np.asarray([[b_aa, b_at], [b_at, b_tt]])
        if abs(np.linalg.det(H)) < det_floor:
            raise DegenerateCritical(
                f"critical Hessian at beta={beta_star:g} is singular"
            )
        out.append(CriticalPoint(beta=float(beta_star), hessian=H))
    return out


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
) -> PerturbReport:
    """Perturb the symbol by a seeded bump, relocate saddles, recertify.

    Saddle relocation is damped Newton on the reduced fixed-point equations;
    the certificate is recomputed for the perturbed family.  Displacement is
    reported relative to epsilon.
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
        lam, params, horizon=horizon, n_beta=n_beta, r_max=r_max, family=fam
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
                "tangential_slope_fwd": s.tangential_slope_fwd,
                "tangential_slope_bwd": s.tangential_slope_bwd,
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
        "tangential_slope": cert.tangential_slope,
        "passed": cert.passed,
        "reasons": list(cert.reasons),
    }


# -- shell-orbit conservation helper (long-time integrator checks) ----------


def integrate_shell_orbit(
    params: KerrParams,
    beta: float,
    lam: float,
    time: float,
    tol: float = 1e-10,
    theta0: float = np.pi / 2.0,
    family: ReducedFamily | None = None,
):
    """Integrate a shell orbit for `time` with the intrinsic Jacobian.

    Returns (drift dict over p/beta/carter, intrinsic jacobian 4x4,
    end 6-state).  The intrinsic flow is volume-preserving, so det = 1 is a
    sharp integrator check; conserved drift is evaluated in the embedding.
    """
    fam = family or ReducedFamily(params)
    orbit = ShellOrbit(fam, beta, lam, theta0=theta0)

    z0 = np.concatenate([orbit.u0, np.eye(4).ravel()])
    ts = np.linspace(0.0, time, DRIFT_SAMPLES_SHELL)
    rtol = step_tolerance(tol, time)
    sol = solve_ivp(orbit.rhs, (0.0, time), z0, method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2, t_eval=ts)
    if sol.status != 0:
        raise InvalidHorizon(f"shell orbit integration failed: {sol.message}")

    y0 = orbit.embed(orbit.u0)
    state0 = PhaseState.from_array(y0)
    ref = kerr.conserved(state0, params)
    drift = {"p": 0.0, "beta": 0.0, "carter": 0.0}
    for i in range(len(sol.t)):
        u = sol.y[:4, i]
        st = PhaseState.from_array(orbit.embed(u))
        val = kerr.conserved(st, params)
        drift["p"] = max(drift["p"], abs(val.p - ref.p))
        drift["beta"] = max(drift["beta"], abs(val.beta - ref.beta))
        drift["carter"] = max(drift["carter"], abs(val.carter - ref.carter))
    jac = sol.y[4:, -1].reshape(4, 4)
    return drift, jac, orbit.embed(sol.y[:4, -1])


DRIFT_SAMPLES_SHELL = 41
