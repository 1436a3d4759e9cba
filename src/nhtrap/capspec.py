"""Complex-absorbing-potential spectra for one-dimensional barrier models.

Builds discretized operators A = P - i*diag(W) where P is the symmetric
finite-difference realization of (h D) m(x) (h D) + v(x) with Dirichlet
ends, W is a smooth absorber supported near the ends, and v has a
nondegenerate barrier top inside the absorber-free region.  Provides the
non-self-adjoint spectrum near the barrier energy, the spectral gap,
resolvent norms on and near the real axis, and semigroup decay demos.

Every solve works on the banded sparse matrix.  Eigenvalues come from a
box |Re z| < window, bottom < Im z <= 0, covered by cells (strips of Re z
with shifts on the mid-line when the box is wider than deep); each cell
runs ARPACK shift-invert from the shift at its centre through one sparse
LU and is accepted once its nearest eigenvalues reach past the cell's
far corner, so no eigenvalue in the box is missed and none is counted
twice.  Since A is complex symmetric (A^T = A), the left
eigenvector of a right eigenvector r is conj(r), and each eigenvalue's
condition number ||r||^2 / |r^T r| comes with it at no extra solve.  The
resolvent norm 1/sigma_min(A - z) is the top eigenvalue of the Hermitian
(A - z)^{-H} (A - z)^{-1}, found by ``eigsh`` through one sparse LU.

Three model kinds are built in: ``toy_sech2`` (v = sech^2 x - 1, flat
mass), ``schw_radial`` (v = k*Delta/r^4 - 1, m = Delta^2/r^4, the
conformally rescaled radial barrier outside a nonrotating horizon), and
``kerr_equatorial`` (same rescaling of the equatorial radial barrier at
the critical angular momentum of a rotating exterior).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.integrate as integrate
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .errors import (
    ConvergenceFailure,
    DomainError,
    NewtonDiverged,
    StepFailure,
    UnderResolved,
)

MODEL_KINDS = ("toy_sech2", "schw_radial", "kerr_equatorial")

DEFAULT_WINDOW = 0.3  # half-width of the real-part window around z = 0
FLOOR_FACTOR = -1.0  # reported-list floor, in units of h below the axis
RESIDUAL_TOL = 1e-8
K_START = 16  # nearest eigenvalues first asked of each shift
K_CAP = 64  # most asked of one shift before its cell splits
RESOLUTION_FACTOR = 3.0  # grid points per semiclassical radian
DISSIPATIVITY_TOL = 1e-9

# band profile: (inner, outer) ramp fractions of the domain length; only
# consulted when the problem is built with profile="band"
DEFAULT_RAMPS = {
    "toy_sech2": (0.30, 0.30),
    "schw_radial": (0.055, 0.25),
    "kerr_equatorial": (0.055, 0.25),
}

# depth profile: the ramp is a quintic smoothstep in barrier depth -v,
# switching on at D(h) = DEPTH_FLAT + DEPTH_SLOPE*h and saturating at
# DEPTH_SAT = (inner, outer); turn-on keyed to depth stays gentle exactly
# where emitted waves are still slow, at every h.  A narrow quintic seam
# of width SEAM_FRACTION*length extends each saturated margin so the
# profile stays grid-resolvable instead of jumping to 1 at the margin edge
DEPTH_FLAT = 0.015
DEPTH_SLOPE = 0.2
DEPTH_SAT = (0.25, 0.45)
SEAM_FRACTION = 0.015

# flat toy wells keep the banded ramps; barrier kinds need the depth-keyed
# turn-on or slow near-top waves reflect off the absorber as h shrinks
DEFAULT_PROFILES = {
    "toy_sech2": "band",
    "schw_radial": "depth",
    "kerr_equatorial": "depth",
}

# (inner, outer) saturated-absorber fractions; at least 10% of the domain
# must stay saturated at each end
MIN_MARGIN = 0.10
DEFAULT_MARGINS = {
    "toy_sech2": (0.10, 0.10),
    "schw_radial": (0.10, 0.10),
    "kerr_equatorial": (0.10, 0.10),
}

_DEFAULT_PARAMS = {
    "toy_sech2": {},
    "schw_radial": {"mass": 1.0, "k_ang": 27.0},
    "kerr_equatorial": {"mass": 1.0, "spin": 0.0, "branch": "prograde"},
}

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 80
_CURV_STEP = 1e-3  # stencil step for numeric barrier curvature
_MAX_AUTO_POINTS = 60_000


@dataclass(frozen=True)
class CapProblem:
    """One sampled absorbing-barrier eigenvalue problem.

    Node samples live on the uniform interior grid of ``(x_min, x_max)``
    with Dirichlet walls at both ends; ``mass_mid`` is sampled at the
    n_points + 1 cell midpoints the flux stencils difference across.
    ``flat_lo``/``flat_hi`` bound the absorber-free region, and
    ``exponent`` is the barrier-top normal rate sqrt(2 m |v''|).
    """

    kind: str
    h: float
    x_min: float
    x_max: float
    n_points: int
    order: int
    x: np.ndarray
    potential: np.ndarray
    mass_weight: np.ndarray
    mass_mid: np.ndarray
    absorber: np.ndarray
    barrier_top: float
    mass_top: float
    potential_curvature: float
    exponent: float
    flat_lo: float
    flat_hi: float
    ramps: tuple
    margins: tuple
    profile: str
    params: dict

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def flat_region(self) -> tuple:
        return (self.flat_lo, self.flat_hi)


@dataclass(frozen=True)
class SpectrumReport:
    """Windowed spectrum of one absorbing-barrier problem.

    ``eigenvalues`` holds the floor-filtered list for reporting, with
    residuals and condition numbers; ``gap`` is the distance from the
    axis to the top window eigenvalue, above the floor or not, and
    ``nu`` = gap/h.  ``resolvent_axis`` pairs each probed real z with
    the discrete resolvent norm there.
    """

    kind: str
    h: float
    n_points: int
    window: float
    floor: float
    eigenvalues: np.ndarray
    residuals: np.ndarray
    conditions: np.ndarray
    gap: float
    nu: float
    resolvent_axis: tuple
    runtime_s: float


def _smoothstep5(t):
    """Quintic 0 -> 1 ramp with two flat derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def _absorber_profile(x, slowness, x_min, x_max, margins, ramps, scale):
    """Absorber W: saturated margins, quintic ramps, flat-zero middle.

    Band edges are fractions of the domain in x, but each ramp's interior
    shape follows the unit-speed coordinate ``slowness`` (cumulative
    integral of 1/sqrt(m)), so the turn-on stays adiabatic for waves that
    slow down where the mass weight degenerates.  Linear in x when m = 1.
    """
    length = x_max - x_min
    (margin_lo, margin_hi), (ramp_lo, ramp_hi) = margins, ramps
    lo_start = x_min + margin_lo * length  # ramp-down begins
    lo_end = lo_start + ramp_lo * length
    hi_end = x_max - margin_hi * length  # ramp-up ends
    hi_start = hi_end - ramp_hi * length
    s_of = lambda pos: float(np.interp(pos, x, slowness))
    w = np.zeros_like(x)
    if ramp_lo > 0.0:
        t = (slowness - s_of(lo_start)) / (s_of(lo_end) - s_of(lo_start))
        w = np.maximum(w, 1.0 - _smoothstep5(t))
    else:
        w = np.maximum(w, np.where(x <= lo_start, 1.0, 0.0))
    if ramp_hi > 0.0:
        t = (slowness - s_of(hi_start)) / (s_of(hi_end) - s_of(hi_start))
        w = np.maximum(w, _smoothstep5(t))
    else:
        w = np.maximum(w, np.where(x >= hi_end, 1.0, 0.0))
    return scale * w


def _depth_profile(
    x,
    potential,
    barrier_top,
    x_min,
    x_max,
    margins,
    flat_depth,
    saturation,
    seam,
    scale,
):
    """Absorber W keyed to barrier depth: quintic smoothstep of -v.

    The turn-on tracks how far the potential has fallen below the barrier
    top, so waves emitted near the top meet no absorber until they have
    accelerated; ``flat_depth`` must scale with h because the emitted
    wavelength does.  Saturation at ``saturation = (inner, outer)`` depth
    on each side of the top.  A quintic seam of width ``seam*length``
    carries the ramp the rest of the way to 1 at each margin edge, so the
    saturated margins continue without a grid-scale jump.
    """
    length = x_max - x_min
    margin_lo, margin_hi = margins
    sat_in, sat_out = saturation
    if flat_depth >= min(sat_in, sat_out):
        raise DomainError(
            f"flat depth {flat_depth:g} swallows the absorber saturation "
            f"{min(sat_in, sat_out):g}"
        )
    lo_edge = x_min + margin_lo * length
    hi_edge = x_max - margin_hi * length
    depth = np.maximum(-potential, 0.0)
    w = np.empty_like(x)
    inner = x < barrier_top
    w[inner] = _smoothstep5((depth[inner] - flat_depth) / (sat_in - flat_depth))
    w[~inner] = _smoothstep5((depth[~inner] - flat_depth) / (sat_out - flat_depth))
    if seam > 0.0:
        bw = seam * length
        w = w + np.maximum(
            _smoothstep5((lo_edge + bw - x) / bw),
            _smoothstep5((x - hi_edge + bw) / bw),
        )
        np.minimum(w, 1.0, out=w)
    w[x <= lo_edge] = 1.0
    w[x >= hi_edge] = 1.0
    return scale * w


def _horizon_radius(mass: float, spin: float) -> float:
    return mass + math.sqrt(mass * mass - spin * spin)


def _equatorial_critical(mass: float, spin: float, branch: str):
    """Radius and angular momentum of the circular equatorial null orbit.

    Solves V = V' = 0 for the radial function
    V(r, b) = (b - a)^2 - ((r^2 + a^2) - a b)^2 / Delta,
    seeded by the closed-form orbit radius, refined by a damped Newton
    step on (V, V') with a finite-difference Jacobian.
    """
    a = spin
    sign = 1.0 if branch == "prograde" else -1.0

    def val_and_slope(r: float, b: float):
        delta = r * r - 2.0 * mass * r + a * a
        u = (r * r + a * a) - a * b
        val = (b - a) ** 2 - u * u / delta
        slope = u * (2.0 * (r - mass) * u - 4.0 * r * delta) / delta**2
        return val, slope

    # closed-form seed; exact at a = 0 where the orbit sits at r = 3M
    r0 = 2.0 * mass * (1.0 + math.cos((2.0 / 3.0) * math.acos(-sign * a / mass)))
    delta0 = r0 * r0 - 2.0 * mass * r0 + a * a
    u0 = 2.0 * r0 * delta0 / (r0 - mass)
    b0 = a + sign * u0 / math.sqrt(delta0)

    y = np.array([r0, b0])
    for _ in range(_NEWTON_MAX_ITER):
        f = np.array(val_and_slope(y[0], y[1]))
        if np.hypot(f[0], f[1]) < _NEWTON_TOL * max(1.0, y[0] ** 2):
            return float(y[0]), float(y[1])
        jac = np.empty((2, 2))
        for j in range(2):
            step = 1e-7 * max(1.0, abs(y[j]))
            yp = y.copy()
            yp[j] += step
            ym = y.copy()
            ym[j] -= step
            fp = np.array(val_and_slope(yp[0], yp[1]))
            fm = np.array(val_and_slope(ym[0], ym[1]))
            jac[:, j] = (fp - fm) / (2.0 * step)
        try:
            dy = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular orbit jacobian at {y}") from exc
        if not np.all(np.isfinite(dy)):
            raise NewtonDiverged(f"orbit step lost finiteness at {y}")
        y = y - dy
    raise NewtonDiverged(
        f"circular-orbit solve stalled at r={y[0]:.6g}, b={y[1]:.6g}"
    )


def _stencil_curvature(func, x0: float, step: float = _CURV_STEP) -> float:
    """Second derivative by the 5-point central stencil."""
    f = [func(x0 + k * step) for k in (-2, -1, 0, 1, 2)]
    return (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (
        12.0 * step * step
    )


def _model_functions(kind: str, params: dict):
    """Closed-form (v, m, top, m_top, v_curv, default_domain) per kind."""
    if kind == "toy_sech2":

        def v_func(r):
            s = 1.0 / np.cosh(r)
            return s * s - 1.0

        def m_func(r):
            return np.ones_like(np.asarray(r, dtype=float))

        return v_func, m_func, 0.0, 1.0, -2.0, (-6.0, 6.0)

    if kind == "schw_radial":
        mass, k_ang = params["mass"], params["k_ang"]
        if mass <= 0.0:
            raise DomainError(f"mass must be positive, got {mass:g}")
        if k_ang <= 0.0:
            raise DomainError(f"k_ang must be positive, got {k_ang:g}")

        def v_func(r):
            r = np.asarray(r, dtype=float)
            return k_ang * (r - 2.0 * mass) / r**3 - 1.0

        def m_func(r):
            r = np.asarray(r, dtype=float)
            return (1.0 - 2.0 * mass / r) ** 2

        top = 3.0 * mass
        m_top = 1.0 / 9.0
        v_curv = -2.0 * k_ang / (81.0 * mass**4)
        domain = (2.1 * mass, 6.8 * mass)
        return v_func, m_func, top, m_top, v_curv, domain

    if kind == "kerr_equatorial":
        mass, spin, branch = params["mass"], params["spin"], params["branch"]
        if mass <= 0.0:
            raise DomainError(f"mass must be positive, got {mass:g}")
        if not 0.0 <= spin < mass:
            raise DomainError(f"spin must lie in [0, mass), got {spin:g}")
        if branch not in ("prograde", "retrograde"):
            raise DomainError(f"unknown orbit branch {branch!r}")
        r_star, b_star = _equatorial_critical(mass, spin, branch)
        a = spin

        def v_func(r):
            r = np.asarray(r, dtype=float)
            delta = r * r - 2.0 * mass * r + a * a
            u = (r * r + a * a) - a * b_star
            return ((b_star - a) ** 2 - u * u / delta) * delta / r**4

        def m_func(r):
            r = np.asarray(r, dtype=float)
            delta = r * r - 2.0 * mass * r + a * a
            return delta * delta / r**4

        m_top = float(m_func(r_star))
        v_curv = _stencil_curvature(lambda r: float(v_func(r)), r_star)
        r_h = _horizon_radius(mass, spin)
        span = r_star - r_h
        domain = (r_h + 0.10 * span, r_star + 3.8 * span)
        return v_func, m_func, r_star, m_top, v_curv, domain

    raise DomainError(f"unknown model kind {kind!r}")


def _merge_params(kind: str, params) -> dict:
    defaults = _DEFAULT_PARAMS.get(kind)
    if defaults is None:
        raise DomainError(f"unknown model kind {kind!r}")
    merged = dict(defaults)
    for key, value in dict(params or {}).items():
        if key not in defaults:
            raise DomainError(f"unknown parameter {key!r} for kind {kind!r}")
        merged[key] = value
    return merged


def required_points(
    length: float,
    h: float,
    xi_max: float,
    factor: float = RESOLUTION_FACTOR,
) -> int:
    """Wavelength rule: at least ``factor`` grid points per radian of the
    fastest window-energy oscillation (phase rate xi/h per unit length)."""
    return int(math.ceil(factor * length * max(1.0, xi_max) / h))


def build_model(
    kind: str,
    params=None,
    h: float = 0.05,
    grid=None,
    *,
    order: int = 4,
    profile: str | None = None,
    ramps=None,
    margins=None,
    resolution_factor: float = RESOLUTION_FACTOR,
    absorber_scale: float = 1.0,
) -> CapProblem:
    """Sample one absorbing-barrier problem onto a uniform Dirichlet grid.

    ``grid`` is an optional (x_min, x_max, n_points) override; when absent
    the kind's default domain is used and n_points is set by the
    wavelength rule.  An explicit n_points below that rule raises
    UnderResolved.  ``profile`` picks the absorber shape ("band" ramps in
    fixed domain fractions, "depth" keys the ramp to barrier depth -v);
    each kind has a tested default.  ``absorber_scale=0`` builds the
    absorber-free reference problem (self-adjoint, for calibration),
    skipping the saturated-margin check that would otherwise fail.
    """
    if not 0.0 < h < 0.5:
        raise DomainError(f"h must lie in (0, 0.5), got {h:g}")
    if order not in (2, 4):
        raise DomainError(f"stencil order must be 2 or 4, got {order}")
    if not 0.0 <= absorber_scale <= 1.0:
        raise DomainError(f"absorber scale must lie in [0, 1], got {absorber_scale:g}")
    merged = _merge_params(kind, params)
    v_func, m_func, top, m_top, v_curv, default_domain = _model_functions(
        kind, merged
    )
    if profile is None:
        profile = DEFAULT_PROFILES.get(kind, "band")
    if profile not in ("band", "depth"):
        raise DomainError(f"unknown absorber profile '{profile}'")
    if ramps is None:
        ramp_lo, ramp_hi = DEFAULT_RAMPS[kind]
    else:
        ramp_lo, ramp_hi = float(ramps[0]), float(ramps[1])
    if margins is None:
        margin_lo, margin_hi = DEFAULT_MARGINS[kind]
    else:
        margin_lo, margin_hi = float(margins[0]), float(margins[1])
    if min(ramp_lo, ramp_hi) < 0.0 or min(margin_lo, margin_hi) < MIN_MARGIN or (
        max(margin_lo + ramp_lo, margin_hi + ramp_hi) > 0.5
    ):
        raise DomainError(
            f"absorber fractions (margins ({margin_lo:g}, {margin_hi:g}), "
            f"ramps ({ramp_lo:g}, {ramp_hi:g})) out of range: margins must "
            f"cover at least {MIN_MARGIN:g} of the domain at each end"
        )

    if grid is None:
        x_min, x_max = default_domain
        n_points = None
    else:
        x_min, x_max, n_points = float(grid[0]), float(grid[1]), int(grid[2])
    if not x_min < x_max:
        raise DomainError(f"empty domain [{x_min:g}, {x_max:g}]")
    if kind in ("schw_radial", "kerr_equatorial"):
        r_h = _horizon_radius(
            merged["mass"], merged.get("spin", 0.0)
        )
        if x_min <= r_h:
            raise DomainError(
                f"inner wall {x_min:g} does not clear the horizon {r_h:g}"
            )
    length = x_max - x_min

    # fastest window-energy phase rate sets the grid rule; the saturated
    # margins are excluded since waves arrive there exponentially damped
    probe = np.linspace(x_min, x_max, 2001)[1:-1]
    v_probe = np.asarray(v_func(probe), dtype=float)
    m_probe = np.asarray(m_func(probe), dtype=float)
    if not np.all(np.isfinite(v_probe)) or not np.all(np.isfinite(m_probe)):
        raise DomainError("model functions lost finiteness on the domain")
    if np.min(m_probe) <= 0.0:
        raise DomainError("mass weight lost positivity on the domain")
    live = (probe >= x_min + margin_lo * length) & (
        probe <= x_max - margin_hi * length
    )
    xi_sq = (DEFAULT_WINDOW - v_probe[live]) / m_probe[live]
    xi_max = math.sqrt(max(np.max(xi_sq), 0.0))
    n_rule = required_points(length, h, xi_max, resolution_factor)
    if n_rule > _MAX_AUTO_POINTS:
        raise DomainError(
            f"wavelength rule wants {n_rule} points; narrow the domain"
        )
    if n_points is None:
        n_points = n_rule
    elif n_points < n_rule:
        raise UnderResolved(
            f"{n_points} points under-resolve the window wavelength; "
            f"need at least {n_rule} on [{x_min:g}, {x_max:g}] at h={h:g}"
        )
    if n_points < 8:
        raise DomainError(f"need at least 8 grid points, got {n_points}")

    dx = length / (n_points + 1)
    x = x_min + dx * np.arange(1, n_points + 1)
    x_mid = x_min + dx * (np.arange(n_points + 1) + 0.5)
    potential = np.asarray(v_func(x), dtype=float)
    mass_weight = np.asarray(m_func(x), dtype=float)
    mass_mid = np.asarray(m_func(x_mid), dtype=float)
    if profile == "band":
        # unit-speed coordinate of the m-weighted principal part; ramps
        # shaped in it stay adiabatic where waves slow down near a
        # degenerate wall
        s_probe = np.concatenate(
            ([0.0], integrate.cumulative_trapezoid(1.0 / np.sqrt(m_probe), probe))
        )
        slowness = np.interp(x, probe, s_probe)
        absorber = _absorber_profile(
            x,
            slowness,
            x_min,
            x_max,
            (margin_lo, margin_hi),
            (ramp_lo, ramp_hi),
            absorber_scale,
        )
        flat_lo = x_min + (margin_lo + ramp_lo) * length
        flat_hi = x_max - (margin_hi + ramp_hi) * length
    else:
        absorber = _depth_profile(
            x,
            potential,
            top,
            x_min,
            x_max,
            (margin_lo, margin_hi),
            DEPTH_FLAT + DEPTH_SLOPE * h,
            DEPTH_SAT,
            SEAM_FRACTION,
            absorber_scale,
        )
        zero = np.flatnonzero(absorber == 0.0)
        if zero.size == 0:
            raise DomainError("absorber leaves no absorber-free region")
        flat_lo = float(x[zero[0]])
        flat_hi = float(x[zero[-1]])
    if not flat_lo < flat_hi:
        raise DomainError("absorber ramps leave no absorber-free region")
    if not flat_lo <= top <= flat_hi:
        raise DomainError(
            f"barrier top {top:g} leaves the absorber-free region "
            f"({flat_lo:g}, {flat_hi:g})"
        )
    if absorber_scale > 0.0:
        margin_nodes = x <= x_min + margin_lo * length
        if not np.all(absorber[margin_nodes] == absorber_scale):
            raise DomainError("absorber fails to saturate on the inner margin")
        margin_nodes = x >= x_max - margin_hi * length
        if not np.all(absorber[margin_nodes] == absorber_scale):
            raise DomainError("absorber fails to saturate on the outer margin")
    if np.min(absorber) < 0.0 or np.max(absorber) > 1.0:
        raise DomainError("absorber left the [0, 1] range")

    return CapProblem(
        kind=kind,
        h=h,
        x_min=x_min,
        x_max=x_max,
        n_points=n_points,
        order=order,
        x=x,
        potential=potential,
        mass_weight=mass_weight,
        mass_mid=mass_mid,
        absorber=absorber,
        barrier_top=top,
        mass_top=m_top,
        potential_curvature=v_curv,
        exponent=math.sqrt(2.0 * m_top * max(-v_curv, 0.0)),
        flat_lo=flat_lo,
        flat_hi=flat_hi,
        ramps=(ramp_lo, ramp_hi) if profile == "band" else (0.0, 0.0),
        margins=(margin_lo, margin_hi),
        profile=profile,
        params=merged,
    )


def laplacian_reference(
    h: float = 0.1,
    length: float = math.pi,
    n_points: int = 200,
    order: int = 4,
) -> CapProblem:
    """Absorber-free flat problem (v = 0, m = 1) with known spectrum.

    The continuum eigenvalues are h^2 (j pi / length)^2; the order-2
    discretization has the exact discrete counterpart
    (4 h^2/dx^2) sin^2(j pi / (2 (n+1))).  Calibration only.
    """
    dx = length / (n_points + 1)
    x = dx * np.arange(1, n_points + 1)
    return CapProblem(
        kind="reference",
        h=h,
        x_min=0.0,
        x_max=length,
        n_points=n_points,
        order=order,
        x=x,
        potential=np.zeros(n_points),
        mass_weight=np.ones(n_points),
        mass_mid=np.ones(n_points + 1),
        absorber=np.zeros(n_points),
        barrier_top=0.5 * length,
        mass_top=1.0,
        potential_curvature=0.0,
        exponent=0.0,
        flat_lo=0.0,
        flat_hi=length,
        ramps=(0.0, 0.0),
        margins=(0.0, 0.0),
        profile="band",
        params={},
    )


def _derivative_matrix(n: int, dx: float, order: int) -> sp.csr_matrix:
    """Node-to-midpoint derivative over the extended grid with zero walls.

    Rows are the n+1 cell midpoints; columns the n interior nodes.  Wall
    samples are exact zeros, so their stencil columns are dropped.  The
    wide stencils close at the walls by odd reflection (the Dirichlet
    extension), which reproduces the interior stencil exactly for
    odd-extendable data and keeps the Gram form's transpose consistent.
    """
    rows, cols, vals = [], [], []

    def add_row(m: int, ext_idx, weights):
        for e, w in zip(ext_idx, weights):
            if e < 1:
                e, w = 2 * 0 - e, -w  # fold across the left wall (ext 0)
            elif e > n:
                e, w = 2 * (n + 1) - e, -w  # fold across the right wall
            if 1 <= e <= n:
                rows.append(m)
                cols.append(e - 1)
                vals.append(w / dx)

    if order == 2:
        for m in range(n + 1):
            add_row(m, (m, m + 1), (-1.0, 1.0))
    else:
        interior = np.array([1.0, -27.0, 27.0, -1.0]) / 24.0
        for m in range(n + 1):
            add_row(m, range(m - 1, m + 3), interior)
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n + 1, n), dtype=float)
    return coo.tocsr()


def _assemble(problem: CapProblem):
    """Real-symmetric part (sparse) and absorber diagonal of the operator."""
    n = problem.n_points
    deriv = _derivative_matrix(n, problem.dx, problem.order)
    weighted = deriv.multiply(problem.mass_mid[:, None]).tocsr()
    kinetic = (problem.h**2) * (deriv.T @ weighted)
    kinetic = 0.5 * (kinetic + kinetic.T)  # Gram form; kill roundoff skew
    a_real = (kinetic + sp.diags(problem.potential)).tocsr()
    return a_real, problem.absorber.copy()


def discretize_sparse(problem: CapProblem) -> sp.csc_matrix:
    """Banded complex matrix A = P - i*diag(W), structurally dissipative."""
    a_real, absorber = _assemble(problem)
    return (a_real.astype(complex) - 1j * sp.diags(absorber)).tocsc()


def _certify(matrix, zs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Relative eigenpair residuals ||A v - z v|| / ||v||, vectorized."""
    residual = matrix @ vecs - vecs * zs[None, :]
    return np.linalg.norm(residual, axis=0) / np.linalg.norm(vecs, axis=0)


def _conditions(vecs: np.ndarray) -> np.ndarray:
    """Eigenvalue condition numbers ||r||^2 / |r^T r|, one per column.

    A is complex symmetric, so the left eigenvector of r is conj(r).
    """
    return np.linalg.norm(vecs, axis=0) ** 2 / np.abs(np.sum(vecs * vecs, axis=0))


def _range_bottom(matrix) -> float:
    """Lowest Im z of the numerical range: min Im diag(A) = -max W."""
    return float(np.min(matrix.diagonal().imag))


def _require_dissipative(zs: np.ndarray) -> None:
    if np.max(zs.imag) > DISSIPATIVITY_TOL:
        raise ConvergenceFailure(
            f"eigenvalue with Im z = {np.max(zs.imag):.3e} > 0 breaks dissipativity"
        )


def _dense_eigenpairs(matrix, window: float, bottom: float):
    zs, vecs = sla.eig(matrix.toarray())
    _require_dissipative(zs)
    keep = (np.abs(zs.real) < window) & (zs.imag > bottom)
    return zs[keep], vecs[:, keep]


def _box_eigenpairs(matrix, window: float, bottom: float):
    """Every eigenpair with |Re z| < window and bottom < Im z <= 0.

    The box is covered by cells, at first the whole box.  Each cell runs
    ARPACK shift-invert from one shift at its centre through one sparse
    LU.  The k eigenvalues nearest the shift are all the eigenvalues in
    the disk out to the k-th of them, so once that disk reaches past the
    cell's far corner, none in the cell is missed.  Until then k doubles
    up to K_CAP.  A cell that stays uncovered, or owns an eigenpair whose
    residual misses the certification tolerance, splits its longer side
    in two.  A box wider than it is deep thus splits into strips of Re z
    with their shifts on its mid-line.  Each cell keeps only the
    eigenvalues it owns, so none is reported twice.
    """
    n = matrix.shape[0]
    k_cap = min(K_CAP, n - 2)
    identity = sp.identity(n, dtype=complex, format="csc")
    # fixed start vector: keeps repeated solves bit-reproducible across
    # processes and thread schedules
    rng = np.random.default_rng(1234)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cells = [(-window, window, bottom, DISSIPATIVITY_TOL)]
    found_z, found_v = [], []
    while cells:
        lo, hi, bot, top = cells.pop()
        shift = complex(0.5 * (lo + hi), 0.5 * (bot + top))
        corner = math.hypot(0.5 * (hi - lo), 0.5 * (top - bot))
        try:
            lu = spla.splu((matrix - shift * identity).tocsc())
        except RuntimeError as exc:
            raise ConvergenceFailure(
                f"shift {shift:.6g} is an eigenvalue", shift=shift
            ) from exc
        inverse = spla.LinearOperator((n, n), matvec=lu.solve, dtype=complex)
        k = min(K_START, k_cap)
        while True:
            try:
                zs, vecs = spla.eigs(
                    matrix, k=k, sigma=shift, OPinv=inverse, v0=v0
                )
            except spla.ArpackError as exc:
                raise ConvergenceFailure(
                    f"shift-invert failed at shift {shift:.6g}: {exc}",
                    shift=shift,
                ) from exc
            _require_dissipative(zs)
            covered = float(np.max(np.abs(zs - shift))) > corner
            if covered or k == k_cap:
                break
            k = min(2 * k, k_cap)
        own = (
            (zs.real >= lo)
            & (zs.real < hi)
            & (np.abs(zs.real) < window)
            & (zs.imag > bot)
            & (zs.imag <= top)
        )
        zs, vecs = zs[own], vecs[:, own]
        if covered and np.all(_certify(matrix, zs, vecs) < RESIDUAL_TOL):
            found_z.append(zs)
            found_v.append(vecs)
            continue
        if corner < 1e-6 * window:
            raise ConvergenceFailure(
                f"no certified eigenpairs from {k} near shift {shift:.6g}",
                shift=shift,
            )
        if hi - lo >= top - bot:
            mid = 0.5 * (lo + hi)
            cells += [(mid, hi, bot, top), (lo, mid, bot, top)]
        else:
            mid = 0.5 * (bot + top)
            cells += [(lo, hi, mid, top), (lo, hi, bot, mid)]
    return np.concatenate(found_z), np.concatenate(found_v, axis=1)


def _eigenpairs(matrix, window: float, floor: float | None, method: str):
    """Window eigenpairs of a csc matrix above ``floor``, by descending
    imaginary part."""
    # no eigenvalue lies below the numerical range; the slack mirrors the
    # dissipativity tolerance above the axis
    bottom = _range_bottom(matrix) - DISSIPATIVITY_TOL
    if floor is not None:
        bottom = max(bottom, floor)
    solve = _box_eigenpairs if method == "box" else _dense_eigenpairs
    zs, vecs = solve(matrix, window, bottom)
    order = np.lexsort((zs.real, -zs.imag))
    return zs[order], vecs[:, order]


def eigenvalues(
    matrix,
    window: float = DEFAULT_WINDOW,
    floor: float | None = None,
    *,
    method: str = "box",
):
    """Certified eigenvalues with |Re z| < window and Im z > floor.

    ``floor=None`` means the bottom of the numerical range, below which
    no eigenvalue lies.  The box path works on the sparse matrix;
    ``method="dense"`` solves the same box densely in O(n^3) and is kept
    as a test oracle at small n.  Every returned eigenvalue carries a
    relative residual, and any residual at or above the certification
    tolerance raises ConvergenceFailure.  Returns (values, residuals,
    condition numbers) sorted by descending imaginary part.
    """
    if method not in ("box", "dense"):
        raise DomainError(f"unknown eigensolve method {method!r}")
    if matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"matrix is not square: {matrix.shape}")
    matrix = sp.csc_matrix(matrix, dtype=complex)
    zs, vecs = _eigenpairs(matrix, window, floor, method)
    residuals = _certify(matrix, zs, vecs)
    if zs.size and np.max(residuals) >= RESIDUAL_TOL:
        i = int(np.argmax(residuals))
        raise ConvergenceFailure(
            f"eigenpair at z = {zs[i]:.6g} has residual {residuals[i]:.3e}"
        )
    return zs, residuals, _conditions(vecs)


def _shallowest(search, floor: float, matrix):
    """``search(bottom)`` from ``floor`` down, doubling the depth while it
    finds nothing, until the box holds the whole numerical range."""
    lowest = _range_bottom(matrix)
    bottom = floor
    while True:
        found = search(bottom)
        if found[0].size:
            return found
        if bottom <= lowest:
            raise ConvergenceFailure("no window eigenvalue below the axis")
        bottom *= 2.0


def spectral_gap(
    problem: CapProblem,
    *,
    window: float = DEFAULT_WINDOW,
    floor_factor: float = FLOOR_FACTOR,
    axis_points=(0.0,),
) -> SpectrumReport:
    """Windowed spectrum report with gap, nu = gap/h, and axis norms.

    The box search starts at the floor (floor_factor * h below the axis)
    and doubles its depth while it finds nothing, so the gap is always
    the distance from the axis to the top window eigenvalue; the floor
    only trims the reported eigenvalue list.
    """
    start = time.perf_counter()
    floor = floor_factor * problem.h
    if not floor < 0.0:
        raise DomainError(f"floor factor must be negative, got {floor_factor:g}")
    matrix = discretize_sparse(problem)
    zs, residuals, conditions = _shallowest(
        lambda bottom: eigenvalues(matrix, window=window, floor=bottom),
        floor,
        matrix,
    )
    gap = float(-zs[0].imag)
    keep = zs.imag > floor
    axis = tuple(
        (float(z), resolvent_norm(problem, float(z))) for z in axis_points
    )
    return SpectrumReport(
        kind=problem.kind,
        h=problem.h,
        n_points=problem.n_points,
        window=window,
        floor=floor,
        eigenvalues=zs[keep],
        residuals=residuals[keep],
        conditions=conditions[keep],
        gap=gap,
        nu=gap / problem.h,
        resolvent_axis=axis,
        runtime_s=time.perf_counter() - start,
    )


def resolvent_norm(
    problem: CapProblem,
    z: complex,
    *,
    tol: float = 1e-10,
    max_iter: int = 5000,
) -> float:
    """Discrete resolvent norm 1/sigma_min(A - z).

    ``eigsh`` (k = 1) finds the top eigenvalue 1/sigma_min^2 of the
    Hermitian (A - z)^{-H} (A - z)^{-1}, applied through one sparse LU;
    ``tol`` is ARPACK's relative tolerance and ``max_iter`` its limit on
    restarts, past which ConvergenceFailure is raised.  An exactly
    singular shift reports +inf.
    """
    n = problem.n_points
    matrix = discretize_sparse(problem) - complex(z) * sp.identity(
        n, dtype=complex, format="csc"
    )
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError:
        return float("inf")
    gram_inverse = spla.LinearOperator(
        (n, n), matvec=lambda v: lu.solve(lu.solve(v), trans="H"), dtype=complex
    )
    rng = np.random.default_rng(1234)
    v0 = (rng.standard_normal(n) + 0.25).astype(complex)
    try:
        top = spla.eigsh(
            gram_inverse,
            k=1,
            v0=v0,
            tol=tol,
            maxiter=max_iter,
            return_eigenvectors=False,
        )
    except spla.ArpackError as exc:
        raise ConvergenceFailure(
            f"resolvent norm at z = {complex(z):.6g} failed to converge "
            f"in {max_iter} restarts: {exc}",
            shift=complex(z),
        ) from exc
    sigma_sq = float(top[0])
    return math.sqrt(sigma_sq) if sigma_sq > 0.0 else float("inf")


def saddle_generator(problem: CapProblem) -> np.ndarray:
    """Barrier-top linearization [[0, 2m], [-v'', 0]] of the flow field.

    Its positive eigenvalue sqrt(2 m |v''|) is the problem's normal
    expansion rate (the ``exponent`` field).
    """
    return np.array(
        [
            [0.0, 2.0 * problem.mass_top],
            [-problem.potential_curvature, 0.0],
        ]
    )


def gaussian_state(
    problem: CapProblem, center: float | None = None, width: float | None = None
) -> np.ndarray:
    """Unit-norm Gaussian node vector, by default at the barrier top with
    the barrier's natural width sqrt(h / exponent), narrowed when needed
    so the tails stay inside the absorber-free window."""
    if center is None:
        center = problem.barrier_top
    if width is None:
        if problem.exponent > 0.0:
            width = math.sqrt(problem.h / problem.exponent)
        else:
            width = 0.1 * problem.length
        # keep 4 sigma inside the flat window on both sides
        room = min(center - problem.flat_lo, problem.flat_hi - center)
        if room > 0.0:
            width = min(width, 0.25 * room)
    state = np.exp(-((problem.x - center) ** 2) / (2.0 * width * width))
    state = state.astype(complex)
    return state / np.linalg.norm(state)


def slowest_mode(problem: CapProblem, *, window: float = DEFAULT_WINDOW):
    """Window eigenpair closest to the axis, as (z, unit eigenvector)."""
    matrix = discretize_sparse(problem)
    zs, vecs = _shallowest(
        lambda bottom: _eigenpairs(matrix, window, bottom, "box"),
        FLOOR_FACTOR * problem.h,
        matrix,
    )
    return complex(zs[0]), vecs[:, 0] / np.linalg.norm(vecs[:, 0])


def evolve_norms(
    problem: CapProblem,
    initial: np.ndarray,
    times: np.ndarray,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> np.ndarray:
    """Norm history of u' = -(i/h) A u from ``initial`` at the given times.

    Integrates the real/imaginary stacking with the banded sparse
    operator; adaptive high-order explicit stepping.
    """
    a_real, absorber = _assemble(problem)
    h = problem.h
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (problem.n_points,):
        raise DomainError(
            f"initial state has shape {initial.shape}, "
            f"expected ({problem.n_points},)"
        )

    def rhs(_t, y):
        re, im = np.split(y, 2)
        return np.concatenate(
            [
                (a_real @ im - absorber * re) / h,
                (-(a_real @ re) - absorber * im) / h,
            ]
        )

    times = np.asarray(times, dtype=float)
    y0 = np.concatenate([initial.real, initial.imag])
    sol = solve_ivp(
        rhs,
        (float(times[0]), float(times[-1])),
        y0,
        method="DOP853",
        t_eval=times,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise StepFailure(f"semigroup integration failed: {sol.message}")
    re, im = np.split(sol.y, 2, axis=0)
    return np.sqrt(np.sum(re * re + im * im, axis=0))


def semigroup_decay(
    problem: CapProblem,
    initial: np.ndarray | None = None,
    t_final: float = 10.0,
    *,
    fit_start: float = 0.5,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    support_tol: float | None = 1e-2,
) -> float:
    """Fitted exponential decay rate of the absorbed evolution.

    Evolves the state, then fits the slope of log||u|| on the trailing
    [fit_start * t_final, t_final] window.  Localized initial data must
    sit in the absorber-free region (relative mass outside below
    ``support_tol``); pass ``support_tol=None`` for states with genuine
    exterior tails such as computed eigenvectors.
    """
    if t_final <= 0.0:
        raise DomainError(f"final time must be positive, got {t_final:g}")
    if initial is None:
        initial = gaussian_state(problem)
    initial = np.asarray(initial, dtype=complex)
    total = np.linalg.norm(initial)
    if total == 0.0:
        raise DomainError("initial state is zero")
    if support_tol is not None:
        outside = (problem.x < problem.flat_lo) | (problem.x > problem.flat_hi)
        if np.linalg.norm(initial[outside]) > support_tol * total:
            raise DomainError(
                "initial state leaks into the absorber region beyond "
                f"{support_tol:g} relative mass"
            )
    times = np.linspace(0.0, t_final, 161)
    norms = evolve_norms(problem, initial, times, rtol=rtol, atol=atol)
    mask = (times >= fit_start * t_final) & (norms > 1e-280)
    if np.count_nonzero(mask) < 8:
        raise ConvergenceFailure(
            "decay fit window has too few usable samples; shorten t_final"
        )
    slope = float(np.polyfit(times[mask], np.log(norms[mask]), 1)[0])
    alpha = -slope
    if alpha < -1e-8:
        raise ConvergenceFailure(f"fitted rate {alpha:.3e} is negative")
    return max(alpha, 0.0)
