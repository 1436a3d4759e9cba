"""Complex-absorbing-potential spectra for one-dimensional barrier models.

Builds discretized operators A = P - i*diag(W) where P is the symmetric
finite-difference realization of (h D) m(x) (h D) + v(x) with Dirichlet
ends, W is a smooth absorber supported near the ends, and v has a
nondegenerate barrier top inside the absorber-free region.  Provides the
non-self-adjoint spectrum near the barrier energy, the spectral gap,
and resolvent norms on and near the real axis.

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
mass), and two barriers built from ``kerr``: ``kerr_equatorial`` is the
equatorial radial function V = v_beta(r) + (beta - a)^2 of a rotating
exterior, at the beta of its prograde circular null orbit (closed form),
scaled to v = V*Delta/r^4 with mass weight m = Delta^2/r^4, and
``schw_radial`` is the same barrier outside a nonrotating horizon (a = 0,
where v = 27 M^2 Delta/r^4 - 1).

The absorber shape is fixed per kind.  Both shapes saturate on the outer
MARGINS fractions of the domain.  The toy ramps down over the fixed
fractions TOY_RAMPS next to them; the barrier kinds key the ramp to the
barrier depth -v, so slow waves near the top meet no absorber.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# no solve here is dense; the benchmark tracer (perfbench/tracer.py) reads
# and wraps ``capspec.sla.eig``, so the module keeps the name
import scipy.linalg as sla  # noqa: F401
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kerr
from .config import MODEL_KINDS
from .errors import ConvergenceFailure, DomainError, UnderResolved

DEFAULT_WINDOW = 0.3  # half-width of the real-part window around z = 0
FLOOR_FACTOR = -1.0  # reported-list floor, in units of h below the axis
RESIDUAL_TOL = 1e-8
K_START = 16  # nearest eigenvalues first asked of each shift
K_CAP = 64  # most asked of one shift before its cell splits
RESOLUTION_FACTOR = 3.0  # grid points per semiclassical radian
DISSIPATIVITY_TOL = 1e-9

# (inner, outer) saturated-absorber fractions of the domain, every kind
MARGINS = (0.10, 0.10)
# toy band ramps: (inner, outer) fractions of the domain, next to the margins
TOY_RAMPS = (0.30, 0.30)

# barrier depth profile: the ramp is a quintic smoothstep in barrier depth
# -v, switching on at D(h) = DEPTH_FLAT + DEPTH_SLOPE*h and saturating at
# DEPTH_SAT = (inner, outer); turn-on keyed to depth stays gentle exactly
# where emitted waves are still slow, at every h.  A narrow quintic seam
# of width SEAM_FRACTION*length extends each saturated margin so the
# profile stays grid-resolvable instead of jumping to 1 at the margin edge
DEPTH_FLAT = 0.015
DEPTH_SLOPE = 0.2
DEPTH_SAT = (0.25, 0.45)
SEAM_FRACTION = 0.015

_DEFAULT_PARAMS = {
    "toy_sech2": {},
    "schw_radial": {"mass": 1.0},
    "kerr_equatorial": {"mass": 1.0, "spin": 0.0},
}

_MAX_AUTO_POINTS = 60_000


@dataclass(frozen=True)
class CapProblem:
    """One sampled absorbing-barrier eigenvalue problem.

    Node samples live on the uniform interior grid of ``(x_min, x_max)``
    with Dirichlet walls at both ends; ``mass_mid`` is sampled at the
    n_points + 1 cell midpoints the flux stencils difference across.
    ``flat_lo``/``flat_hi`` bound the absorber-free region, and
    ``exponent`` is the barrier-top normal rate sqrt(2 m |v''|).
    ``matrix`` is the operator A, assembled on first use and then shared
    by every solve on the problem.
    """

    kind: str
    h: float
    x_min: float
    x_max: float
    n_points: int
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
    params: dict

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        return discretize_sparse(self)


@dataclass(frozen=True)
class SpectrumReport:
    """Windowed spectrum of one absorbing-barrier problem.

    ``eigenvalues`` holds the floor-filtered list for reporting, with
    residuals and condition numbers; ``gap`` is the distance from the
    axis to the top window eigenvalue, above the floor or not,
    ``nu`` = gap/h, and ``nu_ratio`` = nu/(mu/2) compares it with the
    barrier-top rate mu (the problem's ``exponent``).  ``resolvent_axis``
    pairs each probed real z with the discrete resolvent norm there.
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
    nu_ratio: float
    resolvent_axis: tuple
    runtime_s: float


def _smoothstep5(t):
    """Quintic 0 -> 1 ramp with two flat derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def _band_profile(x, x_min, x_max, scale):
    """Toy absorber W: saturated margins, quintic ramps, flat-zero middle.

    Margin and ramp edges are the fixed fractions MARGINS and TOY_RAMPS of
    the domain, and each ramp is a quintic smoothstep in x.
    """
    length = x_max - x_min
    (margin_lo, margin_hi), (ramp_lo, ramp_hi) = MARGINS, TOY_RAMPS
    lo_start = x_min + margin_lo * length  # ramp-down begins
    lo_end = lo_start + ramp_lo * length
    hi_end = x_max - margin_hi * length  # ramp-up ends
    hi_start = hi_end - ramp_hi * length
    w = np.maximum(
        1.0 - _smoothstep5((x - lo_start) / (lo_end - lo_start)),
        _smoothstep5((x - hi_start) / (hi_end - hi_start)),
    )
    return scale * w


def _depth_profile(x, potential, barrier_top, x_min, x_max, h, scale):
    """Barrier absorber W keyed to depth: quintic smoothstep of -v.

    The turn-on tracks how far the potential has fallen below the barrier
    top, so waves emitted near the top meet no absorber until they have
    accelerated; the turn-on depth DEPTH_FLAT + DEPTH_SLOPE*h scales with h
    because the emitted wavelength does.  Saturation at DEPTH_SAT =
    (inner, outer) depth on each side of the top.  A quintic seam of width
    SEAM_FRACTION*length carries the ramp the rest of the way to 1 at each
    margin edge, so the saturated margins continue without a grid-scale
    jump.
    """
    length = x_max - x_min
    flat_depth = DEPTH_FLAT + DEPTH_SLOPE * h
    sat_in, sat_out = DEPTH_SAT
    lo_edge = x_min + MARGINS[0] * length
    hi_edge = x_max - MARGINS[1] * length
    depth = np.maximum(-potential, 0.0)
    w = np.empty_like(x)
    inner = x < barrier_top
    w[inner] = _smoothstep5((depth[inner] - flat_depth) / (sat_in - flat_depth))
    w[~inner] = _smoothstep5((depth[~inner] - flat_depth) / (sat_out - flat_depth))
    bw = SEAM_FRACTION * length
    w = w + np.maximum(
        _smoothstep5((lo_edge + bw - x) / bw),
        _smoothstep5((x - hi_edge + bw) / bw),
    )
    np.minimum(w, 1.0, out=w)
    w[x <= lo_edge] = 1.0
    w[x >= hi_edge] = 1.0
    return scale * w


def _kerr_params(params: dict) -> kerr.KerrParams:
    """Black hole of a barrier kind; validates 0 <= spin < mass."""
    return kerr.KerrParams(mass=params["mass"], spin=params.get("spin", 0.0))


def _critical_orbit(params: kerr.KerrParams):
    """Radius r* and beta* = -b* of the prograde circular equatorial null orbit.

    Closed form: r* = 2M(1 + cos(2/3 acos(-a/M))) and
    b* = a + 2 r* sqrt(Delta*) / (r* - M).  There V = V' = 0 for the
    equatorial radial function V = v_beta(r) + (beta - a)^2.
    """
    m, a = params.mass, params.spin
    r_star = 2.0 * m * (1.0 + math.cos((2.0 / 3.0) * math.acos(-a / m)))
    b_star = a + 2.0 * r_star * math.sqrt(kerr.delta(params, r_star)) / (r_star - m)
    return r_star, -b_star


def _model_functions(kind: str, params: dict):
    """Closed-form (v, m, top, m_top, v_curv, default_domain) per kind.

    The barrier kinds share one path through ``kerr``: at the critical
    orbit, v = (v_beta(r) + (beta - a)^2) * Delta/r^4 and m = Delta^2/r^4,
    the equatorial radial function scaled by Delta/r^4; ``schw_radial``
    is the same path at a = 0.  Since V = V' = 0 at r*, the top curvature
    is exactly v''(r*) = v_rr(r*) * Delta*/r*^4.
    """
    if kind == "toy_sech2":

        def v_func(r):
            s = 1.0 / np.cosh(r)
            return s * s - 1.0

        def m_func(r):
            return np.ones_like(np.asarray(r, dtype=float))

        return v_func, m_func, 0.0, 1.0, -2.0, (-6.0, 6.0)

    black_hole = _kerr_params(params)
    r_star, beta = _critical_orbit(black_hole)
    shift = (beta - black_hole.spin) ** 2

    def v_func(r):
        r = np.asarray(r, dtype=float)
        v_beta = kerr.radial_potential(black_hole, beta, r)
        return (v_beta + shift) * kerr.delta(black_hole, r) / r**4

    def m_func(r):
        r = np.asarray(r, dtype=float)
        return kerr.delta(black_hole, r) ** 2 / r**4

    delta_star = kerr.delta(black_hole, r_star)
    v_rr = kerr.radial_terms(black_hole, beta, r_star)[2]
    r_h = float(kerr.horizon_radius(black_hole))
    span = r_star - r_h
    domain = (r_h + 0.10 * span, r_star + 3.8 * span)
    return (
        v_func,
        m_func,
        r_star,
        delta_star**2 / r_star**4,
        v_rr * delta_star / r_star**4,
        domain,
    )


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


def required_points(length: float, h: float, xi_max: float) -> int:
    """Wavelength rule: at least RESOLUTION_FACTOR grid points per radian
    of the fastest window-energy oscillation (phase rate xi/h per unit
    length)."""
    return int(math.ceil(RESOLUTION_FACTOR * length * max(1.0, xi_max) / h))


def build_model(
    kind: str,
    params=None,
    h: float = 0.05,
    grid=None,
    *,
    absorber_scale: float = 1.0,
    window: float = DEFAULT_WINDOW,
) -> CapProblem:
    """Sample one absorbing-barrier problem onto a uniform Dirichlet grid.

    ``grid`` is an optional (x_min, x_max, n_points) override; when absent
    the kind's default domain is used and n_points is set by the
    wavelength rule at the fastest oscillation of energies up to
    ``window``, the half-width of the real-part window the spectrum is
    searched in.  An explicit n_points below that rule raises
    UnderResolved.  The absorber shape is fixed per kind: the toy ramps
    over the fixed domain fractions TOY_RAMPS, and the barrier kinds key
    the ramp to barrier depth -v; both saturate on the MARGINS fractions
    at the ends.  ``absorber_scale`` multiplies the absorber, and 0 builds
    the absorber-free reference problem (self-adjoint, for calibration).
    """
    if not 0.0 < h < 0.5:
        raise DomainError(f"h must lie in (0, 0.5), got {h:g}")
    if not 0.0 <= absorber_scale <= 1.0:
        raise DomainError(f"absorber scale must lie in [0, 1], got {absorber_scale:g}")
    merged = _merge_params(kind, params)
    v_func, m_func, top, m_top, v_curv, default_domain = _model_functions(
        kind, merged
    )
    if grid is None:
        x_min, x_max = default_domain
        n_points = None
    else:
        x_min, x_max, n_points = float(grid[0]), float(grid[1]), int(grid[2])
    if not x_min < x_max:
        raise DomainError(f"empty domain [{x_min:g}, {x_max:g}]")
    if kind != "toy_sech2":
        r_h = kerr.horizon_radius(_kerr_params(merged))
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
    live = (probe >= x_min + MARGINS[0] * length) & (
        probe <= x_max - MARGINS[1] * length
    )
    xi_sq = (window - v_probe[live]) / m_probe[live]
    xi_max = math.sqrt(max(np.max(xi_sq), 0.0))
    n_rule = required_points(length, h, xi_max)
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
    # flat toy wells keep the banded ramps; barrier kinds need the depth-keyed
    # turn-on or slow near-top waves reflect off the absorber as h shrinks
    if kind == "toy_sech2":
        absorber = _band_profile(x, x_min, x_max, absorber_scale)
        flat_lo = x_min + (MARGINS[0] + TOY_RAMPS[0]) * length
        flat_hi = x_max - (MARGINS[1] + TOY_RAMPS[1]) * length
    else:
        absorber = _depth_profile(
            x, potential, top, x_min, x_max, h, absorber_scale
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

    return CapProblem(
        kind=kind,
        h=h,
        x_min=x_min,
        x_max=x_max,
        n_points=n_points,
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
        params=merged,
    )


def _derivative_matrix(n: int, dx: float) -> sp.csr_matrix:
    """Fourth-order node-to-midpoint derivative over the extended grid with
    zero walls.

    Rows are the n+1 cell midpoints; columns the n interior nodes.  Wall
    samples are exact zeros, so their stencil columns are dropped.  The
    wide stencil closes at the walls by odd reflection (the Dirichlet
    extension), which reproduces the interior stencil exactly for
    odd-extendable data and keeps the Gram form's transpose consistent.
    """
    offsets, weights = np.arange(-1, 3), np.array([1.0, -27.0, 27.0, -1.0]) / 24.0
    rows = np.repeat(np.arange(n + 1), offsets.size)
    ext = rows + np.tile(offsets, n + 1)  # extended-grid node of each entry
    vals = np.tile(weights, n + 1)
    # fold across the left wall (ext 0) and the right wall (ext n+1)
    folded = (ext < 1) | (ext > n)
    ext = np.where(ext < 1, -ext, np.where(ext > n, 2 * (n + 1) - ext, ext))
    vals = np.where(folded, -vals, vals)
    keep = (ext >= 1) & (ext <= n)
    coo = sp.coo_matrix(
        (vals[keep] / dx, (rows[keep], ext[keep] - 1)), shape=(n + 1, n), dtype=float
    )
    return coo.tocsr()


def _assemble(problem: CapProblem):
    """Real-symmetric part (sparse) and absorber diagonal of the operator."""
    n = problem.n_points
    deriv = _derivative_matrix(n, problem.dx)
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


def _eigenpairs(matrix, window: float, floor: float | None):
    """Window eigenpairs of a csc matrix above ``floor``, by descending
    imaginary part."""
    # no eigenvalue lies below the numerical range; the slack mirrors the
    # dissipativity tolerance above the axis
    bottom = _range_bottom(matrix) - DISSIPATIVITY_TOL
    if floor is not None:
        bottom = max(bottom, floor)
    zs, vecs = _box_eigenpairs(matrix, window, bottom)
    order = np.lexsort((zs.real, -zs.imag))
    return zs[order], vecs[:, order]


def eigenvalues(matrix, window: float = DEFAULT_WINDOW, floor: float | None = None):
    """Certified eigenvalues with |Re z| < window and Im z > floor.

    ``floor=None`` means the bottom of the numerical range, below which
    no eigenvalue lies.  The box is searched on the sparse matrix by
    shift-invert cells (``_box_eigenpairs``); nothing is solved densely.
    Every returned eigenvalue carries a relative residual, and any
    residual at or above the certification tolerance raises
    ConvergenceFailure.  Returns (values, residuals, condition numbers)
    sorted by descending imaginary part.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"matrix is not square: {matrix.shape}")
    matrix = sp.csc_matrix(matrix, dtype=complex)
    zs, vecs = _eigenpairs(matrix, window, floor)
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
    matrix = problem.matrix
    zs, residuals, conditions = _shallowest(
        lambda bottom: eigenvalues(matrix, window=window, floor=bottom),
        floor,
        matrix,
    )
    gap = float(-zs[0].imag)
    nu = gap / problem.h
    keep = zs.imag > floor
    axis = tuple((float(z), resolvent_norm(matrix, float(z))) for z in axis_points)
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
        nu=nu,
        nu_ratio=nu / (0.5 * problem.exponent),
        resolvent_axis=axis,
        runtime_s=time.perf_counter() - start,
    )


def resolvent_norm(
    matrix,
    z: complex,
    *,
    tol: float = 1e-10,
    max_iter: int = 5000,
) -> float:
    """Discrete resolvent norm 1/sigma_min(A - z) of a sparse matrix A.

    ``eigsh`` (k = 1) finds the top eigenvalue 1/sigma_min^2 of the
    Hermitian (A - z)^{-H} (A - z)^{-1}, applied through one sparse LU;
    ``tol`` is ARPACK's relative tolerance and ``max_iter`` its limit on
    restarts, past which ConvergenceFailure is raised.  An exactly
    singular shift reports +inf.
    """
    n = matrix.shape[0]
    shifted = matrix - complex(z) * sp.identity(n, dtype=complex, format="csc")
    try:
        lu = spla.splu(shifted.tocsc())
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
