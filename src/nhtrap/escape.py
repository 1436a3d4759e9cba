"""Defining functions for the trapping tails and symbol-level escape bounds.

A hyperbolic saddle of a 2D Hamiltonian symbol carries a pair of invariant
graphs (the stable and unstable manifolds).  This module constructs local
defining functions phi+/- for those graphs by solving the invariance
equation to quadratic order, extracts the contraction/expansion rates c+/-,
assembles the log-flattened escape function G with its exterior term G1,
and evaluates the positive-commutator quantity whose grid minimum
certifies the bound phi_tilde >= c1 * htilde with c1 > 0.  The coarse
scale htilde and the weights M and C1 are the constants HTILDE, M_CONST
and C1_CONST; a spec varies only with h.

Conventions.  Phase points are arrays (x, xi) of shape (2, *batch): every
function of a point also takes a whole batch and returns values of shape
batch and gradients of shape (2, *batch), so each grid is evaluated as one
array expression.  Point lists (grids, samples) are stored as (n, 2) and
transposed on the way in.  Every derivative is in closed form, built from
the model's gradient, Hessian and third-derivative tensor.  The Poisson
bracket is {f, g} = f_xi g_x - f_x g_xi (`_poisson`), and H_p f = {p, f}.
Each defining function is the graph polynomial itself, with xi-derivative
identically 1, and each rate field c^2 is used as constructed; radii are
measured in the saddle-adapted metric s^2 = kappa^2 dx^2 + dxi^2 with
kappa the slope magnitude of the invariant graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GridTooCoarse,
    InvalidNesting,
    NotHyperbolic,
    Unbounded,
)
from .models import HamiltonianModel, newton_saddle

HTILDE = 0.25             # the coarse semiclassical scale of every spec
M_CONST = 5.0             # weight M of the hatted squares in phi_tilde
C1_CONST = 10.0           # weight C1 of the log(1/h) chi1 G1 term of G
CHI_RADII = (0.2, 0.5)
CHI1_RADII = (0.6, 0.9)
G1_RADII = (0.2, 0.5)

GRID_N = 41               # points per axis of the saddle grids
VERIFY_RADIUS = 0.05      # adapted radius of the sign-relation grid
PHI_TUBE = 1e-3           # sign relations are checked where |phi| exceeds this
ORDER_PAIRS = 2000        # sample pairs of the report's order-function check
ORDER_C_CAP = 100.0
ORDER_N_MAX = 8
HP_G1_NEGATIVE_TOL = 1e-6


def _poisson(df, dg):
    """{f, g} = f_xi g_x - f_x g_xi from the gradients of f and g; with f = p
    it is H_p g."""
    return df[1] * dg[0] - df[0] * dg[1]


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

    # -- graph polynomials --------------------------------------------------
    def _phi(self, rho, gamma: float, quad: float):
        dx = rho[0] - self.saddle[0]
        return (rho[1] - self.saddle[1]) - gamma * dx - 0.5 * quad * dx * dx

    def _grad_phi(self, rho, gamma: float, quad: float) -> np.ndarray:
        g0 = -gamma - quad * (rho[0] - self.saddle[0])
        return np.stack([g0, np.ones_like(g0)])

    def phi_plus(self, rho):
        return self._phi(rho, self.gamma_plus, self.quad_plus)

    def phi_minus(self, rho):
        return self._phi(rho, self.gamma_minus, self.quad_minus)

    def grad_phi_plus(self, rho) -> np.ndarray:
        return self._grad_phi(rho, self.gamma_plus, self.quad_plus)

    def grad_phi_minus(self, rho) -> np.ndarray:
        return self._grad_phi(rho, self.gamma_minus, self.quad_minus)

    def hp_phi_plus(self, rho):
        return _poisson(self.model.gradient(rho), self.grad_phi_plus(rho))

    def hp_phi_minus(self, rho):
        return _poisson(self.model.gradient(rho), self.grad_phi_minus(rho))

    # -- rate fields -------------------------------------------------------
    def _c2_field(self, rho, side: int, with_grad: bool = False):
        """Smooth rate field c^2 of one graph (side +1 or -1): the
        directional derivative of H_p phi along grad phi over |grad phi|^2.

        On the graphs this is the removable-singularity limit of
        -sign * H_p phi / phi; elsewhere it extends that quotient smoothly,
        avoiding the blow-up the raw ratio inherits from the quadratic
        construction's cubic residual when phi is small at finite distance
        from the saddle.  With g0 = -gamma - quad dx the field is
        -sign * num / (g0^2 + 1), num = (H01 g0 - quad p_xi - H00) g0
        + H11 g0 - H01; `with_grad` also returns its gradient, from the
        third-derivative tensor and grad g0 = (-quad, 0)."""
        if side > 0:
            sign, gamma, quad = 1.0, self.gamma_plus, self.quad_plus
        else:
            sign, gamma, quad = -1.0, self.gamma_minus, self.quad_minus
        rho = np.asarray(rho, dtype=float)
        g0 = -gamma - quad * (rho[0] - self.saddle[0])
        g = self.model.gradient(rho)
        H = self.model.hessian(rho)
        lead = H[0, 1] * g0 - quad * g[1] - H[0, 0]
        num = lead * g0 + (H[1, 1] * g0 - H[0, 1])
        den = g0 * g0 + 1.0
        c2 = -sign * num / den
        if not with_grad:
            return c2
        T = self.model.third(rho)
        # H, T and p_xi vary along both axes; g0 only along x
        dnum = (T[0, 1] * g0 - quad * H[1] - T[0, 0]) * g0 + (
            T[1, 1] * g0 - T[0, 1]
        )
        dnum[0] -= quad * (lead + H[0, 1] * g0 + H[1, 1])
        dc2 = -sign * dnum / den
        dc2[0] += c2 * (2.0 * quad * g0 / den)
        return c2, dc2

    def c2_plus(self, rho):
        return self._c2_field(rho, +1)

    def c2_minus(self, rho):
        return self._c2_field(rho, -1)

    def c_plus(self, rho):
        return np.sqrt(self.c2_plus(rho))

    def c_minus(self, rho):
        return np.sqrt(self.c2_minus(rho))

    def bracket(self, rho):
        """{phi+, phi-}, analytic from the stored polynomials."""
        dx = rho[0] - self.saddle[0]
        return (self.gamma_plus - self.gamma_minus) + (
            self.quad_plus - self.quad_minus
        ) * dx

    # -- geometry ----------------------------------------------------------
    def adapted_radius(self, rho):
        dx = rho[0] - self.saddle[0]
        dxi = rho[1] - self.saddle[1]
        return np.hypot(self.kappa * dx, dxi)


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
    if model.third is None:
        raise DomainError(f"{model.name} has no closed-form third derivatives")
    # invariance at second order: quad = -D3 / (3 (p_xxi + gamma p_xixi)),
    # where D3 = T.d.d.d is the third derivative of p along d = (1, gamma)
    T = model.third(saddle)
    quads = []
    for gamma in (gamma_plus, gamma_minus):
        d = np.asarray([1.0, gamma])
        d3 = np.einsum("ijk,i,j,k->", T, d, d, d)
        quads.append(float(-d3 / (3.0 * (H[0, 1] + gamma * H[1, 1]))))
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


def verify_defG_relations(pair: DefiningPair, samples: np.ndarray) -> dict:
    """Check the sign relations and the bracket floor on sample points.

    Where |phi| exceeds PHI_TUBE the ratio H_p phi / phi must carry the
    decaying sign for phi+ and the growing sign for phi-; the bracket
    {phi+, phi-} is tracked everywhere.  Failures become report entries,
    point by point with plus before minus, not exceptions.
    """
    samples = np.asarray(samples, dtype=float)
    rho = samples.T
    # columns: the plus side, then the minus side
    phi = np.stack([pair.phi_plus(rho), pair.phi_minus(rho)], axis=-1)
    hp = np.stack([pair.hp_phi_plus(rho), pair.hp_phi_minus(rho)], axis=-1)
    tube = np.abs(phi) > PHI_TUBE
    ratio = hp / np.where(tube, phi, 1.0)
    bad = tube & (ratio * [1.0, -1.0] >= 0.0)
    violations = [
        {
            "point": samples[i].tolist(),
            "side": ("plus", "minus")[k],
            "ratio": float(ratio[i, k]),
        }
        for i, k in np.argwhere(bad)
    ]
    min_bracket = float(np.min(pair.bracket(rho), initial=math.inf))
    return {
        "n_samples": int(len(samples)),
        "violations": violations,
        "n_violations": len(violations),
        "min_bracket": min_bracket,
        "passed": not violations and min_bracket > 0.0,
    }


def _smoothstep(u):
    """Quintic ramp: 0 for u <= 0, 1 for u >= 1, C^2 in between."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_deriv(u):
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u * u * (1.0 - u) ** 2


@dataclass(frozen=True)
class Cutoff:
    """Radial cutoff in the saddle-adapted metric: 1 inside, 0 outside."""

    center: tuple[float, float]
    kappa: float
    inner: float
    outer: float

    def __post_init__(self):
        if not 0.0 < self.inner < self.outer:
            raise DomainError(
                f"cutoff radii must satisfy 0 < inner < outer, "
                f"got ({self.inner}, {self.outer})"
            )

    def radius(self, rho):
        dx = rho[0] - self.center[0]
        dxi = rho[1] - self.center[1]
        return np.hypot(self.kappa * dx, dxi)

    def value(self, rho):
        u = (self.radius(rho) - self.inner) / (self.outer - self.inner)
        return 1.0 - _smoothstep(u)

    def gradient(self, rho) -> np.ndarray:
        s = self.radius(rho)
        width = self.outer - self.inner
        du = -_smoothstep_deriv((s - self.inner) / width) / width
        dx = rho[0] - self.center[0]
        dxi = rho[1] - self.center[1]
        # du vanishes for s <= inner, so the floor only keeps s = 0 finite
        return du / np.maximum(s, self.inner) * np.stack(
            [self.kappa**2 * dx, dxi]
        )


@dataclass(frozen=True)
class G1Function:
    """Exterior escape term: position-momentum pairing gated off near K.

    `report` holds the floors and ceiling measured by build_G1."""

    pair: DefiningPair
    r_inner: float
    r_outer: float
    scale: float
    report: dict | None = None

    def _ramp_u(self, rho):
        s = self.pair.adapted_radius(rho)
        return s, (s - self.r_inner) / (self.r_outer - self.r_inner)

    def __call__(self, rho):
        dx = rho[0] - self.pair.saddle[0]
        dxi = rho[1] - self.pair.saddle[1]
        _, u = self._ramp_u(rho)
        return self.scale * _smoothstep(u) * dx * dxi

    def gradient(self, rho) -> np.ndarray:
        dx = rho[0] - self.pair.saddle[0]
        dxi = rho[1] - self.pair.saddle[1]
        s, u = self._ramp_u(rho)
        dw = _smoothstep_deriv(u) / (self.r_outer - self.r_inner)
        # dw vanishes for s <= r_inner, so the floor only keeps s = 0 finite
        grad = _smoothstep(u) * np.stack([dxi, dx]) + (
            dw * dx * dxi / np.maximum(s, self.r_inner)
        ) * np.stack([self.pair.kappa**2 * dx, dxi])
        return self.scale * grad

    def hp(self, rho):
        return _poisson(self.pair.model.gradient(rho), self.gradient(rho))


def build_G1(
    pair: DefiningPair,
    r_inner: float = G1_RADII[0],
    r_outer: float = G1_RADII[1],
    n_grid: int = 61,
) -> G1Function:
    """Construct the exterior escape function and verify its monotonicity.

    The function is w(s) * dx * dxi with w a smoothstep vanishing for
    s <= r_inner and equal to 1 for s >= r_outer; it is scaled so the
    directional derivative H_p G1 is >= 1 on the band between r_outer and
    2 r_outer.  The returned function's report carries the measured floors
    and ceiling.
    """
    if not 0.0 < r_inner < r_outer:
        raise InvalidNesting(
            f"need 0 < r_inner < r_outer, got ({r_inner}, {r_outer})"
        )
    raw = G1Function(pair, r_inner, r_outer, scale=1.0)

    band = 2.0 * r_outer
    xs = np.linspace(-band, band, n_grid)
    ax, axi = (m.ravel() for m in np.meshgrid(xs, xs, indexing="ij"))
    s = np.hypot(ax, axi)
    disc = s <= band
    s = s[disc]
    rho = np.stack(
        [pair.saddle[0] + ax[disc] / pair.kappa, pair.saddle[1] + axi[disc]]
    )
    hp = raw.hp(rho)
    floor_raw = float(np.min(hp[s > r_outer], initial=math.inf))
    ceiling_raw = float(np.max(hp))
    min_everywhere = float(np.min(hp))
    max_on_core = float(np.max(np.abs(raw(rho[:, s <= r_inner])), initial=0.0))
    if floor_raw <= 0.0:
        raise GridTooCoarse(
            f"no positive floor on the exterior band (min {floor_raw:.3e})"
        )
    scale = max(1.0, 1.0 / floor_raw)
    report = {
        "floor_raw": floor_raw,
        "scale": float(scale),
        "g1_floor": floor_raw * scale,
        "ceiling": ceiling_raw * scale,
        "min_everywhere": min_everywhere * scale,
        "max_abs_on_core": max_on_core * scale,
        "passed": (
            floor_raw * scale >= 1.0 - 1e-12
            and min_everywhere * scale >= -HP_G1_NEGATIVE_TOL
            and max_on_core <= 1e-10
        ),
    }
    return G1Function(pair, r_inner, r_outer, scale, report)


@dataclass(frozen=True)
class EscapeSpec:
    """Parameters of the two-scale escape function."""

    h: float
    htilde: float
    chi: Cutoff
    chi1: Cutoff
    G1: G1Function

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


def make_escape_spec(pair: DefiningPair, h: float) -> EscapeSpec:
    """The EscapeSpec at scale h: htilde = HTILDE, the cutoffs on the
    CHI_RADII and CHI1_RADII centred on the saddle, and G1 from build_G1."""
    center = (float(pair.saddle[0]), float(pair.saddle[1]))
    chi = Cutoff(center, pair.kappa, *CHI_RADII)
    chi1 = Cutoff(center, pair.kappa, *CHI1_RADII)
    return EscapeSpec(h=h, htilde=HTILDE, chi=chi, chi1=chi1, G1=build_G1(pair))


class EscapeFunction:
    """G = chi log((phi-^2 + eta)/(phi+^2 + eta)) + C1 log(1/h) chi1 G1."""

    def __init__(self, spec: EscapeSpec, pair: DefiningPair):
        self.spec = spec
        self.pair = pair

    def __call__(self, rho):
        spec = self.spec
        eta = spec.eta
        fp = self.pair.phi_plus(rho)
        fm = self.pair.phi_minus(rho)
        val = spec.chi.value(rho) * np.log((fm * fm + eta) / (fp * fp + eta))
        amp = C1_CONST * math.log(1.0 / spec.h)
        return val + amp * spec.chi1.value(rho) * spec.G1(rho)

    def gradient(self, rho) -> np.ndarray:
        spec = self.spec
        eta = spec.eta
        fp = self.pair.phi_plus(rho)
        fm = self.pair.phi_minus(rho)
        gp = self.pair.grad_phi_plus(rho)
        gm = self.pair.grad_phi_minus(rho)
        quot = np.log((fm * fm + eta) / (fp * fp + eta))
        grad = spec.chi.gradient(rho) * quot + spec.chi.value(rho) * (
            2.0 * fm * gm / (fm * fm + eta) - 2.0 * fp * gp / (fp * fp + eta)
        )
        amp = C1_CONST * math.log(1.0 / spec.h)
        return grad + amp * (
            spec.chi1.gradient(rho) * spec.G1(rho)
            + spec.chi1.value(rho) * spec.G1.gradient(rho)
        )


# ---------------------------------------------------------------------------
# commutator bound


def _hatted(pair: DefiningPair, spec: EscapeSpec, rho, side: int):
    """phi_hat = c phi / sqrt(phi^2 + eta) with its gradient, both closed-form."""
    rho = np.asarray(rho, dtype=float)
    eta = spec.eta
    if side > 0:
        phi, grad = pair.phi_plus(rho), pair.grad_phi_plus(rho)
    else:
        phi, grad = pair.phi_minus(rho), pair.grad_phi_minus(rho)
    c2, dc2 = pair._c2_field(rho, side, with_grad=True)
    lost = np.ravel(c2 <= 0.0)
    if lost.any():
        where = rho.reshape(2, -1)[:, np.argmax(lost)]
        raise DomainError(f"rate field lost positivity at {where.tolist()}")
    c = np.sqrt(c2)
    w = np.sqrt(phi * phi + eta)
    val = c * phi / w
    gradient = (c * eta / w**3) * grad + (phi / w) * (dc2 / (2.0 * c))
    return val, gradient


def phi_tilde(pair: DefiningPair, spec: EscapeSpec, rho):
    """M htilde (phi_hat+^2 + phi_hat-^2) + h {phi_hat+, phi_hat-}."""
    vp, gp = _hatted(pair, spec, rho, +1)
    vm, gm = _hatted(pair, spec, rho, -1)
    return M_CONST * spec.htilde * (vp * vp + vm * vm) + spec.h * _poisson(gp, gm)


def saddle_commutator_value(pair: DefiningPair, spec: EscapeSpec) -> float:
    """phi_tilde / htilde exactly at the saddle: the h/htilde factors
    cancel and the value reduces to c+ c- {phi+, phi-}."""
    rho = pair.saddle
    cp = pair.c_plus(rho)
    cm = pair.c_minus(rho)
    return cp * cm * pair.bracket(rho)


def saddle_grid(pair: DefiningPair, radius: float, n: int = GRID_N) -> np.ndarray:
    """Square grid in adapted coordinates clipped to the disc, saddle first,
    as an (n, 2) point list in row order of the x offset."""
    ax = np.linspace(-radius, radius, n)
    a, b = (m.ravel() for m in np.meshgrid(ax, ax, indexing="ij"))
    keep = (np.hypot(a, b) <= radius) & ((a != 0.0) | (b != 0.0))
    x_s, xi_s = pair.saddle
    ring = np.column_stack([x_s + a[keep] / pair.kappa, xi_s + b[keep]])
    return np.vstack([pair.saddle, ring])


def commutator_lower_bound(
    spec: EscapeSpec,
    pair: DefiningPair,
    grid: np.ndarray,
) -> float:
    """Minimum of phi_tilde / htilde over an (n, 2) grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 2 or len(grid) == 0:
        raise DomainError("grid must be a nonempty (n, 2) array")
    return float(np.min(phi_tilde(pair, spec, grid.T) / spec.htilde))


# ---------------------------------------------------------------------------
# order function


def sample_disc_pairs(
    pair: DefiningPair,
    radius: float,
    n_pairs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform point pairs in the adapted disc around the saddle, (n,2,2).

    Candidates are drawn from the square in blocks and accepted in order,
    which takes the same points from `rng` as drawing one candidate at a
    time until it lands in the disc."""
    need = 2 * n_pairs
    accepted = np.empty((0, 2))
    while len(accepted) < need:
        block = rng.uniform(-radius, radius, size=(2 * (need - len(accepted)) + 8, 2))
        inside = np.hypot(block[:, 0], block[:, 1]) <= radius
        accepted = np.concatenate([accepted, block[inside]])
    a, b = accepted[:need].T
    x_s, xi_s = pair.saddle
    out = np.stack([x_s + a / pair.kappa, xi_s + b], axis=-1)
    return out.reshape(n_pairs, 2, 2)


def _order_statistics(
    spec: EscapeSpec,
    pair: DefiningPair,
    sample_pairs: np.ndarray,
    escape: EscapeFunction | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair |G gap| and log of the eta-scaled separation bracket."""
    if escape is None:
        escape = EscapeFunction(spec, pair)
    pairs = np.asarray(sample_pairs, dtype=float)
    rho_a, rho_b = pairs[:, 0].T, pairs[:, 1].T
    gaps = np.broadcast_to(np.abs(escape(rho_a) - escape(rho_b)), len(pairs))
    # separation in the saddle-adapted chart; a fixed linear change of
    # coordinates only renormalizes the constant, and it removes the
    # kappa anisotropy between models
    t = np.hypot(pair.kappa * (rho_a[0] - rho_b[0]), rho_a[1] - rho_b[1])
    t /= math.sqrt(spec.eta)
    return gaps, 0.5 * np.log1p(t * t)


def _smallest_order(gaps: np.ndarray, log_brackets: np.ndarray):
    """(log C, N) for the smallest N whose tight constant C stays under
    ORDER_C_CAP, or None when no N up to ORDER_N_MAX does."""
    for n_exp in range(ORDER_N_MAX + 1):
        log_c = float(np.max(gaps - n_exp * log_brackets))
        if log_c <= math.log(ORDER_C_CAP):
            return log_c, n_exp
    return None


def order_function_check(
    spec: EscapeSpec,
    pair: DefiningPair,
    sample_pairs: np.ndarray,
    escape: EscapeFunction | None = None,
) -> tuple[float, int]:
    """Smallest N with exp G(rho)/exp G(rho') <= C <(rho-rho')/sqrt(eta)>^N
    and C below the cap, over all sampled pairs; C is the tight constant."""
    found = _smallest_order(*_order_statistics(spec, pair, sample_pairs, escape))
    if found is None:
        raise Unbounded(
            "no admissible polynomial order up to "
            f"{ORDER_N_MAX}; the escape construction is defective"
        )
    return math.exp(found[0]), found[1]


def escape_report(pair: DefiningPair, spec: EscapeSpec, seed: int = 0) -> dict:
    """One-stop summary: sign relations, commutator floor, order function."""
    verify = verify_defG_relations(
        pair, saddle_grid(pair, VERIFY_RADIUS, GRID_N)
    )
    c1 = commutator_lower_bound(
        spec, pair, saddle_grid(pair, CHI_RADII[0], GRID_N)
    )
    rng = np.random.default_rng(seed)
    pairs = sample_disc_pairs(pair, spec.chi.inner, ORDER_PAIRS, rng)
    c_val, n_exp = order_function_check(spec, pair, pairs)
    return {
        "c1": float(c1),
        "C": float(c_val),
        "N": int(n_exp),
        "bracket_min": verify["min_bracket"],
        "violations": verify["violations"],
        "saddle_value": float(saddle_commutator_value(pair, spec)),
        "g1_scale": float(spec.G1.scale),
        "g1_floor": spec.G1.report["g1_floor"],
    }
