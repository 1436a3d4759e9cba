"""Defining functions for the trapping tails and symbol-level escape bounds.

A hyperbolic saddle of a 2D Hamiltonian symbol carries a pair of invariant
graphs (the stable and unstable manifolds).  This module constructs local
defining functions phi+/- for those graphs by solving the invariance
equation to quadratic order, extracts the contraction/expansion rates c+/-,
assembles the log-flattened escape function G, and evaluates the
positive-commutator quantity whose grid minimum certifies the bound
phi_tilde >= c1 * htilde with c1 > 0.

Conventions.  Phase points are arrays (x, xi).  The Poisson bracket is
{f, g} = f_xi g_x - f_x g_xi, and H_p f = {p, f}.  The defining functions
are normalized so their xi-derivative is 1 at the saddle; radii are
measured in the saddle-adapted metric s^2 = kappa^2 dx^2 + dxi^2 with
kappa the slope magnitude of the invariant graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainError,
    GridTooCoarse,
    InvalidNesting,
    NotHyperbolic,
    Unbounded,
)
from .models import HamiltonianModel, newton_saddle

DEFAULT_HTILDE = 0.25
DEFAULT_M_CONST = 5.0
DEFAULT_C1_CONST = 10.0
CHI_RADII = (0.2, 0.5)
CHI1_RADII = (0.6, 0.9)
G1_RADII = (0.2, 0.5)
SMOOTHSTEP_ORDER = 5

TAYLOR_STENCIL = 3e-3
GRAD_STENCIL = 1e-4
STENCIL_AGREE_TOL = 1e-6
ORDER_C_CAP = 100.0
ORDER_N_MAX = 8
HP_G1_NEGATIVE_TOL = 1e-6


def _third_directional(model: HamiltonianModel, saddle, gamma: float) -> float:
    """d^3/ds^3 of p along (1, gamma), via a 5-point stencil on the hessian
    quadratic form: exact for symbols whose hessian is quadratic in s."""
    d = np.asarray([1.0, gamma])
    h = TAYLOR_STENCIL * max(1.0, abs(saddle[0]))

    def q(s: float) -> float:
        H = model.hessian(saddle + s * d)
        return float(d @ H @ d)

    return (q(-2 * h) - 8 * q(-h) + 8 * q(h) - q(2 * h)) / (12 * h)


@dataclass(frozen=True)
class DefiningPair:
    """Quadratic-order defining functions of the two invariant graphs.

    phi_plus vanishes on the unstable graph (decays forward under H_p),
    phi_minus on the stable one.  c_plus/c_minus are the smooth rate
    fields with -H_p phi_+ = c_+^2 phi_+ and H_p phi_- = c_-^2 phi_-
    up to the cubic construction error.
    """

    model: HamiltonianModel
    saddle: np.ndarray
    gamma_plus: float
    gamma_minus: float
    quad_plus: float
    quad_minus: float
    mu: float                 # saddle expansion rate; c+-^2 at the saddle
    kappa: float              # adapted-metric slope scale
    c0: float                 # {phi+, phi-} at the saddle
    scale_plus: float = 1.0
    scale_minus: float = 1.0
    c_scale_plus: float = 1.0
    c_scale_minus: float = 1.0

    # -- raw graph polynomials (normalization-free) ------------------------
    def _raw(self, rho, gamma: float, quad: float) -> float:
        dx = rho[0] - self.saddle[0]
        return (rho[1] - self.saddle[1]) - gamma * dx - 0.5 * quad * dx * dx

    def _raw_grad(self, rho, gamma: float, quad: float) -> np.ndarray:
        dx = rho[0] - self.saddle[0]
        return np.asarray([-gamma - quad * dx, 1.0])

    def phi_plus(self, rho) -> float:
        return self.scale_plus * self._raw(rho, self.gamma_plus, self.quad_plus)

    def phi_minus(self, rho) -> float:
        return self.scale_minus * self._raw(
            rho, self.gamma_minus, self.quad_minus
        )

    def grad_phi_plus(self, rho) -> np.ndarray:
        return self.scale_plus * self._raw_grad(
            rho, self.gamma_plus, self.quad_plus
        )

    def grad_phi_minus(self, rho) -> np.ndarray:
        return self.scale_minus * self._raw_grad(
            rho, self.gamma_minus, self.quad_minus
        )

    def hp_phi_plus(self, rho) -> float:
        g = self.model.gradient(rho)
        gp = self.grad_phi_plus(rho)
        return g[1] * gp[0] - g[0] * gp[1]

    def hp_phi_minus(self, rho) -> float:
        g = self.model.gradient(rho)
        gm = self.grad_phi_minus(rho)
        return g[1] * gm[0] - g[0] * gm[1]

    # -- rate fields -------------------------------------------------------
    def _c2_field(self, rho, sign: float, gamma: float, quad: float) -> float:
        """Smooth rate field: the directional derivative of H_p phi along
        grad phi over |grad phi|^2.

        On the graphs this is the removable-singularity limit of
        -sign * H_p phi / phi; elsewhere it extends that quotient smoothly,
        avoiding the blow-up the raw ratio inherits from the quadratic
        construction's cubic residual when phi is small at finite distance
        from the saddle."""
        rho = np.asarray(rho, dtype=float)
        gp = self._raw_grad(rho, gamma, quad)
        g = self.model.gradient(rho)
        H = self.model.hessian(rho)
        num_x = H[0, 1] * gp[0] + g[1] * (-quad) - H[0, 0]
        num_xi = H[1, 1] * gp[0] - H[0, 1]
        num = num_x * gp[0] + num_xi * gp[1]
        return -sign * num / (gp[0] * gp[0] + gp[1] * gp[1])

    def c2_plus(self, rho) -> float:
        raw = self._c2_field(rho, +1.0, self.gamma_plus, self.quad_plus)
        return self.c_scale_plus**2 * raw

    def c2_minus(self, rho) -> float:
        raw = self._c2_field(rho, -1.0, self.gamma_minus, self.quad_minus)
        return self.c_scale_minus**2 * raw

    def c_plus(self, rho) -> float:
        return math.sqrt(self.c2_plus(rho))

    def c_minus(self, rho) -> float:
        return math.sqrt(self.c2_minus(rho))

    def bracket(self, rho) -> float:
        """{phi+, phi-}, analytic from the stored polynomials."""
        dx = rho[0] - self.saddle[0]
        raw = (self.gamma_plus - self.gamma_minus) + (
            self.quad_plus - self.quad_minus
        ) * dx
        return self.scale_plus * self.scale_minus * raw

    # -- geometry ----------------------------------------------------------
    def adapted_radius(self, rho) -> float:
        dx = rho[0] - self.saddle[0]
        dxi = rho[1] - self.saddle[1]
        return math.hypot(self.kappa * dx, dxi)

    def rescaled(self, factor: float) -> "DefiningPair":
        """Scale both phi by `factor` and both c by its inverse."""
        if factor <= 0.0:
            raise DomainError("rescale factor must be positive")
        return replace(
            self,
            scale_plus=self.scale_plus * factor,
            scale_minus=self.scale_minus * factor,
            c_scale_plus=self.c_scale_plus / factor,
            c_scale_minus=self.c_scale_minus / factor,
        )

    def normalized(self) -> "DefiningPair":
        """Reduce to the unit-gradient representative.

        The geometric content of a pair lives in the products c+-phi+- and
        in c+c-{phi+, phi-}; both are unchanged when the phi scales are
        folded into the rate scales. Estimators normalize their input so
        their output does not depend on the representative chosen."""
        if self.scale_plus == 1.0 and self.scale_minus == 1.0:
            return self
        return replace(
            self,
            scale_plus=1.0,
            scale_minus=1.0,
            c_scale_plus=self.c_scale_plus * self.scale_plus,
            c_scale_minus=self.c_scale_minus * self.scale_minus,
        )

    def swapped(self) -> "DefiningPair":
        """Exchange the roles of phi+ and phi-."""
        return replace(
            self,
            gamma_plus=self.gamma_minus,
            gamma_minus=self.gamma_plus,
            quad_plus=self.quad_minus,
            quad_minus=self.quad_plus,
            scale_plus=self.scale_minus,
            scale_minus=self.scale_plus,
            c_scale_plus=self.c_scale_minus,
            c_scale_minus=self.c_scale_plus,
            c0=-self.c0,
        )


def build_defining_pair(
    model: HamiltonianModel,
    chart=None,
    saddle_guess=(0.0, 0.0),
) -> DefiningPair:
    """Solve the graph-invariance equation at a saddle to quadratic order.

    `chart` may supply the saddle location (any object with a
    trapped_radius attribute); otherwise `saddle_guess` seeds the Newton
    polish.  The linear slopes come from the characteristic equation
    p_xixi g^2 + 2 p_xxi g + p_xx = 0; the quadratic terms from the next
    order of the same expansion.
    """
    if chart is not None and hasattr(chart, "trapped_radius"):
        saddle_guess = (float(chart.trapped_radius), 0.0)
    saddle = newton_saddle(model, saddle_guess)
    H = model.hessian(saddle)
    det = H[0, 0] * H[1, 1] - H[0, 1] * H[0, 1]
    if det >= 0.0:
        raise NotHyperbolic(f"hessian determinant {det:.3e} >= 0 at saddle")
    if H[1, 1] <= 0.0:
        raise NotHyperbolic("graph construction needs p_xixi > 0")
    mu = math.sqrt(-det)
    gamma_plus = (-H[0, 1] + mu) / H[1, 1]
    gamma_minus = (-H[0, 1] - mu) / H[1, 1]
    if chart is not None and hasattr(chart, "normal_exponent"):
        if abs(mu - chart.normal_exponent) > 1e-6 * mu:
            raise NotHyperbolic(
                "saddle rate disagrees with the supplied chart: "
                f"{mu:.9f} vs {chart.normal_exponent:.9f}"
            )
    # invariance at second order: quad = -D3 / (3 (p_xxi + gamma p_xixi)),
    # where D3 is the third derivative of p along (1, gamma)
    quads = []
    for gamma in (gamma_plus, gamma_minus):
        d3 = _third_directional(model, saddle, gamma)
        quads.append(-d3 / (3.0 * (H[0, 1] + gamma * H[1, 1])))
    kappa = math.sqrt(-H[0, 0] / H[1, 1])
    return DefiningPair(
        model=model,
        saddle=saddle,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        quad_plus=quads[0],
        quad_minus=quads[1],
        mu=mu,
        kappa=kappa,
        c0=gamma_plus - gamma_minus,
    )


def manifold_samples(
    pair: DefiningPair,
    side: int,
    s_max: float = 5e-4,
    seed_size: float = 1e-7,
    n_points: int = 24,
) -> np.ndarray:
    """Points on the true invariant graph, by integrating the Hamilton flow
    from an eigenvector seed.  side=+1 follows the unstable graph (where
    phi_plus vanishes), side=-1 the stable one, grown backward in time."""
    from scipy.integrate import solve_ivp

    gamma = pair.gamma_plus if side > 0 else pair.gamma_minus
    direction = np.asarray([1.0, gamma])
    direction = direction / np.linalg.norm(direction)
    y0 = pair.saddle + seed_size * direction
    span = 1.5 * math.log(2.0 * s_max / seed_size) / pair.mu
    tf = span if side > 0 else -span

    def outside(t, y):
        return pair.adapted_radius(y) - 2.0 * s_max

    outside.terminal = True
    sol = solve_ivp(
        lambda t, y: pair.model.hamilton_rhs(y),
        (0.0, tf),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-16,
        dense_output=True,
        events=outside,
    )
    t_end = sol.t[-1]
    ts = np.linspace(0.0, t_end, 400)
    pts = sol.sol(ts).T
    radii = np.asarray([pair.adapted_radius(p) for p in pts])
    keep = (radii > 10 * seed_size) & (radii <= s_max)
    pts = pts[keep]
    if len(pts) < n_points:
        raise GridTooCoarse("too few manifold samples inside the window")
    idx = np.linspace(0, len(pts) - 1, n_points).astype(int)
    return pts[idx]


def verify_defG_relations(
    pair: DefiningPair,
    model: HamiltonianModel,
    samples: np.ndarray,
    phi_tube: float = 1e-3,
) -> dict:
    """Check the sign relations and the bracket floor on sample points.

    Where |phi| exceeds `phi_tube` the ratio H_p phi / phi must carry the
    decaying sign for phi+ and the growing sign for phi-; the bracket
    {phi+, phi-} is tracked everywhere.  Failures become report entries,
    not exceptions.
    """
    violations = []
    min_bracket = math.inf
    for rho in np.asarray(samples, dtype=float):
        br = pair.bracket(rho)
        min_bracket = min(min_bracket, br)
        fp = pair.phi_plus(rho)
        if abs(fp) > phi_tube:
            ratio = pair.hp_phi_plus(rho) / fp
            if ratio >= 0.0:
                violations.append(
                    {"point": rho.tolist(), "side": "plus", "ratio": ratio}
                )
        fm = pair.phi_minus(rho)
        if abs(fm) > phi_tube:
            ratio = pair.hp_phi_minus(rho) / fm
            if ratio <= 0.0:
                violations.append(
                    {"point": rho.tolist(), "side": "minus", "ratio": ratio}
                )
    return {
        "n_samples": int(len(samples)),
        "violations": violations,
        "n_violations": len(violations),
        "min_bracket": float(min_bracket),
        "passed": not violations and min_bracket > 0.0,
    }


def _smoothstep(u: float, order: int) -> float:
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    if order == 3:
        return u * u * (3.0 - 2.0 * u)
    return u**3 * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_deriv(u: float, order: int) -> float:
    if u <= 0.0 or u >= 1.0:
        return 0.0
    if order == 3:
        return 6.0 * u * (1.0 - u)
    return 30.0 * u * u * (1.0 - u) ** 2


@dataclass(frozen=True)
class Cutoff:
    """Radial cutoff in the saddle-adapted metric: 1 inside, 0 outside."""

    center: tuple[float, float]
    kappa: float
    inner: float
    outer: float
    order: int = SMOOTHSTEP_ORDER

    def __post_init__(self):
        if not 0.0 < self.inner < self.outer:
            raise DomainError(
                f"cutoff radii must satisfy 0 < inner < outer, "
                f"got ({self.inner}, {self.outer})"
            )
        if self.order not in (3, 5):
            raise DomainError(f"unsupported smoothstep order {self.order}")

    def radius(self, rho) -> float:
        dx = rho[0] - self.center[0]
        dxi = rho[1] - self.center[1]
        return math.hypot(self.kappa * dx, dxi)

    def value(self, rho) -> float:
        s = self.radius(rho)
        u = (s - self.inner) / (self.outer - self.inner)
        return 1.0 - _smoothstep(u, self.order)

    def gradient(self, rho) -> np.ndarray:
        s = self.radius(rho)
        if s <= self.inner or s >= self.outer or s == 0.0:
            return np.zeros(2)
        u = (s - self.inner) / (self.outer - self.inner)
        du = -_smoothstep_deriv(u, self.order) / (self.outer - self.inner)
        dx = rho[0] - self.center[0]
        dxi = rho[1] - self.center[1]
        return du / s * np.asarray([self.kappa**2 * dx, dxi])


class G1Function:
    """Exterior escape term: position-momentum pairing gated off near K."""

    def __init__(self, pair: DefiningPair, r_inner: float, r_outer: float,
                 scale: float, order: int = SMOOTHSTEP_ORDER):
        self.pair = pair
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.scale = scale
        self.order = order

    def _ramp(self, s: float) -> float:
        u = (s - self.r_inner) / (self.r_outer - self.r_inner)
        return _smoothstep(u, self.order)

    def __call__(self, rho) -> float:
        dx = rho[0] - self.pair.saddle[0]
        dxi = rho[1] - self.pair.saddle[1]
        s = self.pair.adapted_radius(rho)
        return self.scale * self._ramp(s) * dx * dxi

    def gradient(self, rho) -> np.ndarray:
        dx = rho[0] - self.pair.saddle[0]
        dxi = rho[1] - self.pair.saddle[1]
        s = self.pair.adapted_radius(rho)
        w = self._ramp(s)
        grad = w * np.asarray([dxi, dx])
        if self.r_inner < s < self.r_outer:
            u = (s - self.r_inner) / (self.r_outer - self.r_inner)
            dw = _smoothstep_deriv(u, self.order) / (
                self.r_outer - self.r_inner
            )
            grad = grad + (dw * dx * dxi / s) * np.asarray(
                [self.pair.kappa**2 * dx, dxi]
            )
        return self.scale * grad

    def hp(self, rho) -> float:
        g = self.pair.model.gradient(rho)
        gg = self.gradient(rho)
        return g[1] * gg[0] - g[0] * gg[1]


def build_G1(
    model: HamiltonianModel,
    pair: DefiningPair,
    r_inner: float = G1_RADII[0],
    r_outer: float = G1_RADII[1],
    n_grid: int = 61,
) -> tuple[G1Function, dict]:
    """Construct the exterior escape function and verify its monotonicity.

    The function is w(s) * dx * dxi with w a smoothstep vanishing for
    s <= r_inner and equal to 1 for s >= r_outer; it is rescaled so the
    directional derivative H_p G1 is >= 1 on the band between r_outer and
    2 r_outer.  The report carries the measured floors and ceiling.
    """
    if not 0.0 < r_inner < r_outer:
        raise InvalidNesting(
            f"need 0 < r_inner < r_outer, got ({r_inner}, {r_outer})"
        )
    raw = G1Function(pair, r_inner, r_outer, scale=1.0)

    band = 2.0 * r_outer
    xs = np.linspace(-band, band, n_grid)
    floor_raw = math.inf
    ceiling_raw = -math.inf
    min_everywhere = math.inf
    max_on_core = 0.0
    x_s, xi_s = pair.saddle
    for ax in xs:
        for axi in xs:
            s = math.hypot(ax, axi)
            if s > band:
                continue
            rho = np.asarray([x_s + ax / pair.kappa, xi_s + axi])
            hp = raw.hp(rho)
            min_everywhere = min(min_everywhere, hp)
            ceiling_raw = max(ceiling_raw, hp)
            if s > r_outer:
                floor_raw = min(floor_raw, hp)
            if s <= r_inner:
                max_on_core = max(max_on_core, abs(raw(rho)))
    # stencil cross-check of the analytic H_p G1 at a few points
    h = GRAD_STENCIL
    for ax, axi in ((0.7 * band, 0.1), (-0.3, 0.5 * band), (0.4, -0.4)):
        rho = np.asarray([x_s + ax / pair.kappa, xi_s + axi])
        g = model.gradient(rho)
        num = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            num[k] = (
                raw(rho - 2 * e) - 8 * raw(rho - e)
                + 8 * raw(rho + e) - raw(rho + 2 * e)
            ) / (12 * h)
        hp_fd = g[1] * num[0] - g[0] * num[1]
        if abs(hp_fd - raw.hp(rho)) > STENCIL_AGREE_TOL * max(
            1.0, abs(raw.hp(rho))
        ):
            raise GridTooCoarse(
                "analytic and stencil directional derivatives disagree"
            )
    if floor_raw <= 0.0:
        raise GridTooCoarse(
            f"no positive floor on the exterior band (min {floor_raw:.3e})"
        )
    scale = max(1.0, 1.0 / floor_raw)
    g1 = G1Function(pair, r_inner, r_outer, scale=scale)
    g1.report = None
    report = {
        "floor_raw": float(floor_raw),
        "scale": float(scale),
        "g1_floor": float(floor_raw * scale),
        "ceiling": float(ceiling_raw * scale),
        "min_everywhere": float(min_everywhere * scale),
        "max_abs_on_core": float(max_on_core * scale),
        "passed": (
            floor_raw * scale >= 1.0 - 1e-12
            and min_everywhere * scale >= -HP_G1_NEGATIVE_TOL
            and max_on_core <= 1e-10
        ),
    }
    g1.report = report
    return g1, report


@dataclass(frozen=True)
class EscapeSpec:
    """Parameters of the two-scale escape function."""

    h: float
    htilde: float
    chi: Cutoff
    chi1: Cutoff
    C1: float = DEFAULT_C1_CONST
    G1: G1Function | None = None
    M_const: float = DEFAULT_M_CONST

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise DomainError(f"h must lie in (0, 1), got {self.h}")
        if not 0.0 < self.htilde < 1.0:
            raise DomainError(f"htilde must lie in (0, 1), got {self.htilde}")
        if self.h >= self.htilde:
            raise DomainError(
                f"need h < htilde, got h={self.h}, htilde={self.htilde}"
            )
        # the gradient of chi must live where chi1 is still identically 1
        if self.chi.outer > self.chi1.inner:
            raise InvalidNesting(
                f"chi ramp [{self.chi.inner}, {self.chi.outer}] must sit "
                f"inside the chi1 plateau (radius {self.chi1.inner})"
            )

    @property
    def eta(self) -> float:
        return self.h / self.htilde


def make_escape_spec(
    pair: DefiningPair,
    h: float,
    htilde: float = DEFAULT_HTILDE,
    C1: float = DEFAULT_C1_CONST,
    M_const: float = DEFAULT_M_CONST,
    with_g1: bool = True,
    chi_radii: tuple[float, float] = CHI_RADII,
    chi1_radii: tuple[float, float] = CHI1_RADII,
    g1_radii: tuple[float, float] = G1_RADII,
) -> tuple[EscapeSpec, dict | None]:
    """Assemble an EscapeSpec with default cutoffs centred on the saddle."""
    center = (float(pair.saddle[0]), float(pair.saddle[1]))
    chi = Cutoff(center, pair.kappa, *chi_radii)
    chi1 = Cutoff(center, pair.kappa, *chi1_radii)
    g1 = None
    g1_report = None
    if with_g1:
        g1, g1_report = build_G1(pair.model, pair, *g1_radii)
    spec = EscapeSpec(h=h, htilde=htilde, chi=chi, chi1=chi1, C1=C1,
                      G1=g1, M_const=M_const)
    return spec, g1_report


class EscapeFunction:
    """G = chi log((phi-^2 + eta)/(phi+^2 + eta)) + C1 log(1/h) chi1 G1."""

    def __init__(self, spec: EscapeSpec, pair: DefiningPair):
        self.spec = spec
        self.pair = pair

    def __call__(self, rho) -> float:
        spec = self.spec
        eta = spec.eta
        fp = self.pair.phi_plus(rho)
        fm = self.pair.phi_minus(rho)
        val = spec.chi.value(rho) * math.log(
            (fm * fm + eta) / (fp * fp + eta)
        )
        if spec.G1 is not None:
            val += spec.C1 * math.log(1.0 / spec.h) * spec.chi1.value(
                rho
            ) * spec.G1(rho)
        return val

    def gradient(self, rho) -> np.ndarray:
        spec = self.spec
        eta = spec.eta
        fp = self.pair.phi_plus(rho)
        fm = self.pair.phi_minus(rho)
        gp = self.pair.grad_phi_plus(rho)
        gm = self.pair.grad_phi_minus(rho)
        quot = math.log((fm * fm + eta) / (fp * fp + eta))
        grad = spec.chi.gradient(rho) * quot + spec.chi.value(rho) * (
            2.0 * fm * gm / (fm * fm + eta) - 2.0 * fp * gp / (fp * fp + eta)
        )
        if spec.G1 is not None:
            amp = spec.C1 * math.log(1.0 / spec.h)
            grad = grad + amp * (
                spec.chi1.gradient(rho) * spec.G1(rho)
                + spec.chi1.value(rho) * spec.G1.gradient(rho)
            )
        return grad


def build_escape(spec: EscapeSpec, pair: DefiningPair) -> EscapeFunction:
    return EscapeFunction(spec, pair)


# ---------------------------------------------------------------------------
# commutator bound


def _hatted(pair: DefiningPair, spec: EscapeSpec, rho, side: int):
    """phi_hat = c phi / sqrt(phi^2 + eta) with its analytic gradient.

    The rate gradient is a 5-point stencil of the smooth rate field; all
    other factors are differentiated in closed form. The pair is reduced
    to its unit-gradient representative first, so hatted quantities do not
    depend on the (phi, c) scaling convention.
    """
    pair = pair.normalized()
    eta = spec.eta
    if side > 0:
        phi, grad = pair.phi_plus(rho), pair.grad_phi_plus(rho)
        c2f = pair.c2_plus
    else:
        phi, grad = pair.phi_minus(rho), pair.grad_phi_minus(rho)
        c2f = pair.c2_minus
    c2 = c2f(rho)
    if c2 <= 0.0:
        raise DomainError(
            f"rate field lost positivity at {np.asarray(rho).tolist()}"
        )
    c = math.sqrt(c2)
    w = math.sqrt(phi * phi + eta)
    val = c * phi / w
    h = GRAD_STENCIL
    dc2 = np.zeros(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        dc2[k] = (
            c2f(rho - 2 * e) - 8 * c2f(rho - e)
            + 8 * c2f(rho + e) - c2f(rho + 2 * e)
        ) / (12 * h)
    gradient = (c * eta / w**3) * grad + (phi / w) * (dc2 / (2.0 * c))
    return val, gradient


def hatted_bracket(pair: DefiningPair, spec: EscapeSpec, rho) -> float:
    _, gp = _hatted(pair, spec, rho, +1)
    _, gm = _hatted(pair, spec, rho, -1)
    return gp[1] * gm[0] - gp[0] * gm[1]


def phi_tilde(pair: DefiningPair, spec: EscapeSpec, rho) -> float:
    """M htilde (phi_hat+^2 + phi_hat-^2) + h {phi_hat+, phi_hat-}."""
    vp, gp = _hatted(pair, spec, rho, +1)
    vm, gm = _hatted(pair, spec, rho, -1)
    br = gp[1] * gm[0] - gp[0] * gm[1]
    return spec.M_const * spec.htilde * (vp * vp + vm * vm) + spec.h * br


def saddle_commutator_value(pair: DefiningPair, spec: EscapeSpec) -> float:
    """phi_tilde / htilde exactly at the saddle: the h/htilde factors
    cancel and the value reduces to c+ c- {phi+, phi-}."""
    rho = pair.saddle
    cp = pair.c_plus(rho)
    cm = pair.c_minus(rho)
    return cp * cm * pair.bracket(rho)


def saddle_grid(pair: DefiningPair, radius: float, n: int = 41) -> np.ndarray:
    """Square grid in adapted coordinates clipped to the disc, saddle first."""
    pts = [pair.saddle.copy()]
    ax = np.linspace(-radius, radius, n)
    x_s, xi_s = pair.saddle
    for a in ax:
        for b in ax:
            if a == 0.0 and b == 0.0:
                continue
            if math.hypot(a, b) > radius:
                continue
            pts.append(np.asarray([x_s + a / pair.kappa, xi_s + b]))
    return np.asarray(pts)


def commutator_lower_bound(
    spec: EscapeSpec,
    pair: DefiningPair,
    model: HamiltonianModel,
    grid: np.ndarray,
) -> float:
    """Minimum of phi_tilde / htilde over the grid.

    Cross-checks the analytic hatted bracket against full 5-point stencils
    at a handful of grid points; disagreement beyond the tolerance means
    the stencil scale is noise-dominated and raises GridTooCoarse.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 2 or len(grid) == 0:
        raise DomainError("grid must be a nonempty (n, 2) array")
    check_idx = np.linspace(0, len(grid) - 1, min(5, len(grid))).astype(int)
    h = GRAD_STENCIL
    for i in check_idx:
        rho = grid[i]
        grads = []
        for side in (+1, -1):
            num = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                vals = [
                    _hatted(pair, spec, rho + m * e, side)[0]
                    for m in (-2, -1, 1, 2)
                ]
                num[k] = (
                    vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]
                ) / (12 * h)
            grads.append(num)
        fd = grads[0][1] * grads[1][0] - grads[0][0] * grads[1][1]
        an = hatted_bracket(pair, spec, rho)
        if abs(fd - an) > STENCIL_AGREE_TOL * max(1.0, abs(an)):
            raise GridTooCoarse(
                f"hatted bracket stencil mismatch at {rho.tolist()}: "
                f"{fd:.9e} vs {an:.9e}"
            )
    best = math.inf
    for rho in grid:
        best = min(best, phi_tilde(pair, spec, rho) / spec.htilde)
    return float(best)


# ---------------------------------------------------------------------------
# order function


def sample_disc_pairs(
    pair: DefiningPair,
    radius: float,
    n_pairs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform point pairs in the adapted disc around the saddle, (n,2,2)."""
    out = np.empty((n_pairs, 2, 2))
    x_s, xi_s = pair.saddle
    for i in range(n_pairs):
        for j in range(2):
            while True:
                a, b = rng.uniform(-radius, radius, size=2)
                if math.hypot(a, b) <= radius:
                    break
            out[i, j, 0] = x_s + a / pair.kappa
            out[i, j, 1] = xi_s + b
    return out


def _order_statistics(
    spec: EscapeSpec,
    pair: DefiningPair,
    sample_pairs: np.ndarray,
    escape: EscapeFunction | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair |G gap| and log of the rescaled separation bracket."""
    if escape is None:
        escape = build_escape(spec, pair)
    pairs = np.asarray(sample_pairs, dtype=float)
    sqrt_eta = math.sqrt(spec.eta)
    gaps = np.empty(len(pairs))
    log_brackets = np.empty(len(pairs))
    kappa = pair.kappa
    for i, (rho_a, rho_b) in enumerate(pairs):
        gaps[i] = abs(escape(rho_a) - escape(rho_b))
        # separation in the saddle-adapted chart; a fixed linear change of
        # coordinates only renormalizes the constant, and it removes the
        # kappa anisotropy between models
        t = float(np.hypot(kappa * (rho_a[0] - rho_b[0]), rho_a[1] - rho_b[1]))
        t /= sqrt_eta
        log_brackets[i] = 0.5 * math.log1p(t * t)
    return gaps, log_brackets


def order_function_check(
    spec: EscapeSpec,
    pair: DefiningPair,
    sample_pairs: np.ndarray,
    escape: EscapeFunction | None = None,
) -> tuple[float, int]:
    """Smallest N with exp G(rho)/exp G(rho') <= C <(rho-rho')/sqrt(eta)>^N
    and C below the cap, over all sampled pairs; C is the tight constant."""
    gaps, log_brackets = _order_statistics(spec, pair, sample_pairs, escape)
    log_cap = math.log(ORDER_C_CAP)
    for n_exp in range(ORDER_N_MAX + 1):
        log_c = float(np.max(gaps - n_exp * log_brackets))
        if log_c <= log_cap:
            return math.exp(log_c), n_exp
    raise Unbounded(
        "no admissible polynomial order up to "
        f"{ORDER_N_MAX}; the escape construction is defective"
    )


def order_function_sweep(
    pair: DefiningPair,
    h_list,
    htilde: float = DEFAULT_HTILDE,
    radius: float = CHI_RADII[0],
    n_pairs: int = 10_000,
    seed: int = 0,
    with_g1: bool = True,
    spread_cap: float = 2.0,
) -> dict:
    """Order-function constants across an h sweep, with shared samples.

    For each candidate exponent N the tight constant C_N(h) is computed
    per h; the reported N is the smallest one whose constants stay under
    the cap for every h and vary by less than `spread_cap` across the
    sweep.  Raises Unbounded when even N = ORDER_N_MAX breaks the cap.
    """
    rng = np.random.default_rng(seed)
    pairs = sample_disc_pairs(pair, radius, n_pairs, rng)
    log_cap = math.log(ORDER_C_CAP)
    stats = []
    per_h = []
    for h in h_list:
        spec, _ = make_escape_spec(pair, h=h, htilde=htilde, with_g1=with_g1)
        gaps, log_brackets = _order_statistics(spec, pair, pairs)
        stats.append((gaps, log_brackets))
        log_c = None
        n_single = None
        for n_exp in range(ORDER_N_MAX + 1):
            log_c = float(np.max(gaps - n_exp * log_brackets))
            if log_c <= log_cap:
                n_single = n_exp
                break
        if n_single is None:
            raise Unbounded(f"order constant exceeds the cap at h={h}")
        per_h.append({"h": float(h), "C": math.exp(log_c), "N": n_single})
    chosen = None
    for n_exp in range(ORDER_N_MAX + 1):
        log_cs = [
            float(np.max(gaps - n_exp * log_brackets))
            for gaps, log_brackets in stats
        ]
        if max(log_cs) > log_cap:
            continue
        spread = math.exp(max(log_cs) - min(log_cs))
        if chosen is None:
            chosen = (n_exp, log_cs, spread)  # cap-only fallback
        if spread <= spread_cap:
            chosen = (n_exp, log_cs, spread)
            break
    if chosen is None:
        raise Unbounded("order constants exceed the cap at every exponent")
    n_star, log_cs, spread = chosen
    consts = [math.exp(v) for v in log_cs]
    return {
        "per_h": per_h,
        "N": int(n_star),
        "C": float(max(consts)),
        "C_values": consts,
        "C_spread": float(spread),
        "passed": n_star <= 4 and spread <= spread_cap,
    }


def escape_report(
    model: HamiltonianModel,
    pair: DefiningPair,
    spec: EscapeSpec,
    verify_radius: float = 0.05,
    c1_radius: float = CHI_RADII[0],
    n_grid: int = 41,
    n_pairs: int = 2000,
    seed: int = 0,
) -> dict:
    """One-stop summary: sign relations, commutator floor, order function."""
    verify = verify_defG_relations(
        pair, model, saddle_grid(pair, verify_radius, n_grid)
    )
    c1 = commutator_lower_bound(
        spec, pair, model, saddle_grid(pair, c1_radius, n_grid)
    )
    rng = np.random.default_rng(seed)
    pairs = sample_disc_pairs(pair, spec.chi.inner, n_pairs, rng)
    c_val, n_exp = order_function_check(spec, pair, pairs)
    report = {
        "c1": float(c1),
        "C": float(c_val),
        "N": int(n_exp),
        "bracket_min": verify["min_bracket"],
        "violations": verify["violations"],
        "saddle_value": saddle_commutator_value(pair, spec),
    }
    if spec.G1 is not None:
        report["g1_scale"] = float(spec.G1.scale)
        if getattr(spec.G1, "report", None) is not None:
            report["g1_floor"] = spec.G1.report["g1_floor"]
    return report
