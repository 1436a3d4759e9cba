"""Defining functions for the trapping tails and symbol-level escape bounds.

A hyperbolic saddle of a 2D Hamiltonian symbol carries a pair of invariant
graphs (the stable and unstable manifolds).  This module constructs local
defining functions phi+/- for those graphs by solving the invariance
equation to quadratic order, extracts the contraction/expansion rates c+/-,
assembles the log-flattened escape function G with its exterior term G1,
and evaluates the positive-commutator quantity whose grid minimum
certifies the bound phi_tilde >= c1 * htilde with c1 > 0.  An escape
spec is the defining pair at scale h, with its G1: the coarse scale
htilde (HTILDE), the weights M and C1, the cutoff and G1 radii and every
grid size are module constants, read where they are used.  The order
check compares G over every pair of points of one grid, so no number
this module reports depends on a seed.

Conventions.  Phase points are arrays (x, xi) of shape (2, *batch): every
function of a point also takes a whole batch and returns values of shape
batch and gradients of shape (2, *batch), so each grid is evaluated as one
array expression.  Point lists are stored as (n, 2) and transposed on
the way in.  Every derivative is in closed form, built from the model's
gradient, Hessian and third-derivative tensor.  G itself is only
evaluated (the order-function check compares its values): the
commutator floor differentiates the hatted defining functions, and the
G1 check differentiates G1.  The Poisson bracket is
{f, g} = f_xi g_x - f_x g_xi (`_poisson`), and H_p f = {p, f}.
Each defining function is the graph polynomial itself, with xi-derivative
identically 1, and each rate field c^2 is used as constructed.  The pair
says each of them once, indexed by side (+1 for phi+, -1 for phi-).  It
also owns the saddle-adapted chart (x_s + a/kappa, xi_s + b), with kappa
the slope magnitude of the invariant graphs: every grid and cutoff
radius is laid out in (a, b), where s^2 = a^2 + b^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse, NotHyperbolic, Unbounded
from .models import HamiltonianModel, newton_saddle, saddle_rate
from .ramp import smoothstep5

HTILDE = 0.25             # the coarse semiclassical scale of every spec
M_CONST = 5.0             # weight M of the hatted squares in phi_tilde
C1_CONST = 10.0           # weight C1 of the log(1/h) chi1 G1 term of G
# (inner, outer) adapted radii of the cutoffs chi and chi1 and of the G1
# ramp; the chi ramp ends inside the chi1 plateau
CHI_RADII = (0.2, 0.5)
CHI1_RADII = (0.6, 0.9)
G1_RADII = (0.2, 0.5)
G1_GRID_N = 61            # points per axis of the G1 monotonicity grid

GRID_N = 41               # points per axis of the saddle grids
VERIFY_RADIUS = 0.05      # adapted radius of the sign-relation grid
PHI_TUBE = 1e-3           # sign relations are checked where |phi| exceeds this
ORDER_GRID_N = 17         # points per axis of the order-function grid
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

    Every method takes the side: +1 for phi+, which vanishes on the
    unstable graph (decays forward under H_p), -1 for phi-, which vanishes
    on the stable one.  c2 is the smooth rate field with
    -H_p phi_+ = c_+^2 phi_+ and H_p phi_- = c_-^2 phi_- up to the cubic
    construction error; at the saddle both equal the rate
    `models.saddle_rate`.  The pair also owns the saddle-adapted chart
    (x, xi) = (x_s + a/kappa, xi_s + b): `point` maps (a, b) to phase
    space and `adapted_radius` is hypot(a, b).
    """

    model: HamiltonianModel
    saddle: np.ndarray
    gamma_plus: float
    gamma_minus: float
    quad_plus: float
    quad_minus: float
    kappa: float              # adapted-metric slope scale

    def _graph(self, side: int) -> tuple[float, float]:
        """(gamma, quad) of the graph polynomial on this side."""
        if side > 0:
            return self.gamma_plus, self.quad_plus
        return self.gamma_minus, self.quad_minus

    def phi(self, rho, side: int):
        gamma, quad = self._graph(side)
        dx = rho[0] - self.saddle[0]
        return (rho[1] - self.saddle[1]) - gamma * dx - 0.5 * quad * dx * dx

    def grad_phi(self, rho, side: int) -> np.ndarray:
        gamma, quad = self._graph(side)
        g0 = -gamma - quad * (rho[0] - self.saddle[0])
        return np.stack([g0, np.ones_like(g0)])

    def hp_phi(self, rho, side: int):
        return _poisson(self.model.gradient(rho), self.grad_phi(rho, side))

    def c2(self, rho, side: int, with_grad: bool = False):
        """Smooth rate field c^2 of one side: the directional derivative of
        H_p phi along grad phi over |grad phi|^2.

        On the graphs this is the removable-singularity limit of
        -side * H_p phi / phi; elsewhere it extends that quotient smoothly,
        avoiding the blow-up the raw ratio inherits from the quadratic
        construction's cubic residual when phi is small at finite distance
        from the saddle.  With g0 = -gamma - quad dx the field is
        -side * num / (g0^2 + 1), num = (H01 g0 - quad p_xi - H00) g0
        + H11 g0 - H01; `with_grad` also returns its gradient, from the
        third-derivative tensor and grad g0 = (-quad, 0)."""
        sign = 1.0 if side > 0 else -1.0
        _, quad = self._graph(side)
        rho = np.asarray(rho, dtype=float)
        g0 = self.grad_phi(rho, side)[0]
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

    def bracket(self, rho):
        """{phi+, phi-}, analytic from the stored polynomials."""
        dx = rho[0] - self.saddle[0]
        return (self.gamma_plus - self.gamma_minus) + (
            self.quad_plus - self.quad_minus
        ) * dx

    # -- the saddle-adapted chart -------------------------------------------
    def point(self, a, b) -> np.ndarray:
        """The phase point(s) (x_s + a/kappa, xi_s + b), shape (2, *batch)."""
        return np.stack([self.saddle[0] + a / self.kappa, self.saddle[1] + b])

    def adapted_radius(self, rho):
        dx = rho[0] - self.saddle[0]
        dxi = rho[1] - self.saddle[1]
        return np.hypot(self.kappa * dx, dxi)


def build_defining_pair(
    model: HamiltonianModel, saddle_guess=(0.0, 0.0)
) -> DefiningPair:
    """Solve the graph-invariance equation at a saddle to quadratic order.

    `saddle_guess` seeds the Newton polish of the saddle.  The linear
    slopes come from the characteristic equation
    p_xixi g^2 + 2 p_xxi g + p_xx = 0; the quadratic terms from the next
    order of the same expansion.
    """
    saddle = newton_saddle(model.gradient, model.hessian, saddle_guess)
    H = model.hessian(saddle)
    mu = saddle_rate(H, f"the saddle {saddle.tolist()}")
    if H[1, 1] <= 0.0:
        raise NotHyperbolic("graph construction needs p_xixi > 0")
    gamma_plus = (-H[0, 1] + mu) / H[1, 1]
    gamma_minus = (-H[0, 1] - mu) / H[1, 1]
    if model.third is None:
        raise DomainError("the model has no closed-form third derivatives")
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
        kappa=kappa,
    )


def verify_defG_relations(pair: DefiningPair, samples: np.ndarray) -> tuple:
    """(violations, min_bracket) of the sign relations and the bracket on
    sample points; escape-check turns them into its verdicts.

    Where |phi| exceeds PHI_TUBE the ratio H_p phi / phi must carry the
    decaying sign for phi+ and the growing sign for phi-; failures become
    violation entries, point by point with plus before minus, not
    exceptions.  The bracket {phi+, phi-} is minimized over every sample.
    """
    samples = np.asarray(samples, dtype=float)
    rho = samples.T
    # columns: the plus side, then the minus side
    phi = np.stack([pair.phi(rho, side) for side in (1, -1)], axis=-1)
    hp = np.stack([pair.hp_phi(rho, side) for side in (1, -1)], axis=-1)
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
    return violations, float(np.min(pair.bracket(rho), initial=math.inf))


def _smoothstep_deriv(u):
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u * u * (1.0 - u) ** 2


def _cutoff(pair: DefiningPair, rho, radii):
    """Radial cutoff in the pair's adapted chart: 1 inside radii[0], 0
    outside radii[1]."""
    inner, outer = radii
    return 1.0 - smoothstep5((pair.adapted_radius(rho) - inner) / (outer - inner))


@dataclass(frozen=True)
class G1Function:
    """Exterior escape term: position-momentum pairing gated off near K,
    ramped on across the G1_RADII.

    `report` holds build_G1's floor and verdict."""

    pair: DefiningPair
    scale: float
    report: dict | None = None

    def _ramp_u(self, rho):
        r_inner, r_outer = G1_RADII
        s = self.pair.adapted_radius(rho)
        return s, (s - r_inner) / (r_outer - r_inner)

    def __call__(self, rho):
        dx = rho[0] - self.pair.saddle[0]
        dxi = rho[1] - self.pair.saddle[1]
        _, u = self._ramp_u(rho)
        return self.scale * smoothstep5(u) * dx * dxi

    def gradient(self, rho) -> np.ndarray:
        dx = rho[0] - self.pair.saddle[0]
        dxi = rho[1] - self.pair.saddle[1]
        r_inner, r_outer = G1_RADII
        s, u = self._ramp_u(rho)
        dw = _smoothstep_deriv(u) / (r_outer - r_inner)
        # dw vanishes for s <= r_inner, so the floor only keeps s = 0 finite
        grad = smoothstep5(u) * np.stack([dxi, dx]) + (
            dw * dx * dxi / np.maximum(s, r_inner)
        ) * np.stack([self.pair.kappa**2 * dx, dxi])
        return self.scale * grad

    def hp(self, rho):
        return _poisson(self.pair.model.gradient(rho), self.gradient(rho))


def build_G1(pair: DefiningPair) -> G1Function:
    """Construct the exterior escape function and verify its monotonicity.

    The function is w(s) * dx * dxi with w a smoothstep vanishing for
    s <= r_inner and equal to 1 for s >= r_outer, the G1_RADII; it is
    scaled so the directional derivative H_p G1 is >= 1 on the band
    between r_outer and 2 r_outer, sampled on a G1_GRID_N-point grid per
    axis.  Its report carries the scaled band floor `g1_floor` and the
    "passed" verdict: H_p G1 >= -HP_G1_NEGATIVE_TOL on the whole
    sample disc.  Two more facts hold by construction, so it does not
    check them: g1_floor >= 1 up to rounding, as scale = max(1, 1/floor_raw);
    and G1 is exactly 0 on the core s <= r_inner, where `smoothstep5`
    clips to 0.
    """
    r_outer = G1_RADII[1]
    raw = G1Function(pair, scale=1.0)

    band = 2.0 * r_outer
    xs = np.linspace(-band, band, G1_GRID_N)
    ax, axi = (m.ravel() for m in np.meshgrid(xs, xs, indexing="ij"))
    s = np.hypot(ax, axi)
    disc = s <= band
    s = s[disc]
    rho = pair.point(ax[disc], axi[disc])
    hp = raw.hp(rho)
    floor_raw = float(np.min(hp[s > r_outer], initial=math.inf))
    if floor_raw <= 0.0:
        raise GridTooCoarse(
            f"no positive floor on the exterior band (min {floor_raw:.3e})"
        )
    scale = max(1.0, 1.0 / floor_raw)
    report = {
        "g1_floor": floor_raw * scale,
        "passed": float(np.min(hp)) * scale >= -HP_G1_NEGATIVE_TOL,
    }
    return G1Function(pair, scale, report)


@dataclass(frozen=True)
class EscapeSpec:
    """The defining pair at scale h, 0 < h < HTILDE, with its G1."""

    pair: DefiningPair
    h: float
    G1: G1Function

    def __post_init__(self):
        if not self.h > 0.0:
            raise DomainError(f"h must be positive, got {self.h}")
        if self.h >= HTILDE:
            raise DomainError(f"need h < htilde, got h={self.h}, htilde={HTILDE}")

    @property
    def eta(self) -> float:
        return self.h / HTILDE


def make_escape_spec(pair: DefiningPair, h: float) -> EscapeSpec:
    """The EscapeSpec of the pair at scale h, with G1 from build_G1."""
    return EscapeSpec(pair, h, build_G1(pair))


def escape_function(spec: EscapeSpec, rho):
    """G = chi log((phi-^2 + eta)/(phi+^2 + eta)) + C1 log(1/h) chi1 G1."""
    pair, eta = spec.pair, spec.eta
    fp, fm = pair.phi(rho, 1), pair.phi(rho, -1)
    val = _cutoff(pair, rho, CHI_RADII) * np.log((fm * fm + eta) / (fp * fp + eta))
    amp = C1_CONST * math.log(1.0 / spec.h)
    return val + amp * _cutoff(pair, rho, CHI1_RADII) * spec.G1(rho)


# ---------------------------------------------------------------------------
# commutator bound


def _hatted(spec: EscapeSpec, rho, side: int):
    """phi_hat = c phi / sqrt(phi^2 + eta) with its gradient, both closed-form."""
    rho = np.asarray(rho, dtype=float)
    pair, eta = spec.pair, spec.eta
    phi, grad = pair.phi(rho, side), pair.grad_phi(rho, side)
    c2, dc2 = pair.c2(rho, side, with_grad=True)
    lost = np.ravel(c2 <= 0.0)
    if lost.any():
        where = rho.reshape(2, -1)[:, np.argmax(lost)]
        raise DomainError(f"rate field lost positivity at {where.tolist()}")
    c = np.sqrt(c2)
    w = np.sqrt(phi * phi + eta)
    val = c * phi / w
    # eta / w**3 as (eta / w) / w**2: at the saddle w = sqrt(eta), whose
    # cube underflows to 0 once h is below about 1e-250
    gradient = (c * (eta / w) / (w * w)) * grad + (phi / w) * (dc2 / (2.0 * c))
    return val, gradient


def phi_tilde(spec: EscapeSpec, rho):
    """M htilde (phi_hat+^2 + phi_hat-^2) + h {phi_hat+, phi_hat-}."""
    vp, gp = _hatted(spec, rho, +1)
    vm, gm = _hatted(spec, rho, -1)
    return M_CONST * HTILDE * (vp * vp + vm * vm) + spec.h * _poisson(gp, gm)


def saddle_commutator_value(pair: DefiningPair) -> float:
    """phi_tilde / htilde exactly at the saddle: the h/htilde factors
    cancel and the value reduces to c+ c- {phi+, phi-}."""
    rho = pair.saddle
    return np.sqrt(pair.c2(rho, 1)) * np.sqrt(pair.c2(rho, -1)) * pair.bracket(rho)


def saddle_grid(pair: DefiningPair, radius: float, n: int) -> np.ndarray:
    """Square grid in adapted coordinates clipped to the disc, saddle first,
    as an (n, 2) point list in row order of the x offset."""
    ax = np.linspace(-radius, radius, n)
    a, b = (m.ravel() for m in np.meshgrid(ax, ax, indexing="ij"))
    keep = (np.hypot(a, b) <= radius) & ((a != 0.0) | (b != 0.0))
    return np.vstack([pair.saddle, pair.point(a[keep], b[keep]).T])


def commutator_lower_bound(spec: EscapeSpec, grid: np.ndarray) -> float:
    """Minimum of phi_tilde / htilde over an (n, 2) grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 2 or len(grid) == 0:
        raise DomainError("grid must be a nonempty (n, 2) array")
    return float(np.min(phi_tilde(spec, grid.T) / HTILDE))


# ---------------------------------------------------------------------------
# order function


def _order_statistics(
    spec: EscapeSpec, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """|G gap| and log of the eta-scaled separation bracket of every pair
    (i < j) of an (n, 2) grid, with G evaluated once per point."""
    rho = np.asarray(grid, dtype=float).T
    G = escape_function(spec, rho)
    i, j = np.triu_indices(rho.shape[1], k=1)
    # separation in the saddle-adapted chart; a fixed linear change of
    # coordinates only renormalizes the constant, and it removes the
    # kappa anisotropy between models
    t = np.hypot(spec.pair.kappa * (rho[0, i] - rho[0, j]), rho[1, i] - rho[1, j])
    t /= math.sqrt(spec.eta)
    return np.abs(G[i] - G[j]), 0.5 * np.log1p(t * t)


def _smallest_order(gaps: np.ndarray, log_brackets: np.ndarray):
    """(log C, N) for the smallest N whose tight constant C stays under
    ORDER_C_CAP, or None when no N up to ORDER_N_MAX does."""
    for n_exp in range(ORDER_N_MAX + 1):
        log_c = float(np.max(gaps - n_exp * log_brackets))
        if log_c <= math.log(ORDER_C_CAP):
            return log_c, n_exp
    return None


def order_function_check(spec: EscapeSpec, grid: np.ndarray) -> tuple[float, int]:
    """Smallest N with exp G(rho)/exp G(rho') <= C <(rho-rho')/sqrt(eta)>^N
    and C below the cap, over every pair of points of an (n, 2) grid; C is
    the tight constant."""
    found = _smallest_order(*_order_statistics(spec, grid))
    if found is None:
        raise Unbounded(
            "no admissible polynomial order up to "
            f"{ORDER_N_MAX}; the escape construction is defective"
        )
    return math.exp(found[0]), found[1]


def escape_report(spec: EscapeSpec) -> dict:
    """One-stop summary: sign relations, commutator floor, order function."""
    pair = spec.pair
    violations, min_bracket = verify_defG_relations(
        pair, saddle_grid(pair, VERIFY_RADIUS, GRID_N)
    )
    c1 = commutator_lower_bound(spec, saddle_grid(pair, CHI_RADII[0], GRID_N))
    c_val, n_exp = order_function_check(
        spec, saddle_grid(pair, CHI_RADII[0], ORDER_GRID_N)
    )
    return {
        "c1": float(c1),
        "C": float(c_val),
        "N": int(n_exp),
        "bracket_min": min_bracket,
        "violations": violations,
        "saddle_value": float(saddle_commutator_value(pair)),
        "g1_scale": float(spec.G1.scale),
        "g1_floor": spec.G1.report["g1_floor"],
    }
