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
resolvent norm 1/sigma_min(A - z) comes from Lanczos: ``eigsh`` finds the
top eigenvalue of the Hermitian (A - z)^{-H} (A - z)^{-1} through one
sparse LU.  Above the axis no norm is needed: ``dissipativity`` reads off
the stored matrix that A is dissipative, which bounds the resolvent norm
by 1/Im z on the whole upper half plane.

Three model kinds are built in: ``toy_sech2`` (v = sech^2 x - 1, flat
mass), and ``kerr_equatorial`` and ``schw_radial``, the prograde
equatorial barrier of the run's black hole (a ``KerrParams``) scaled by
Delta/r^4, v = -(1 - r*/r)^2 (1 + 2r*/r), and the same with a = 0.  Each
is a barrier symbol m(x)*xi^2 + v(x) that ``kerr.barrier`` states once,
with closed-form derivatives, for this module and escape-check alike;
``build_model`` samples v and m from its terms.

A problem carries the half-width ``window`` of the real-part window its
grid is sized for, and ``spectral_gap`` searches that window, so a grid
and the box searched on it always agree.

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
# only the benchmark tracer (perfbench/tracer.py) reads this, as
# ``capspec.sla.eig``; without it a traced pass fails at install
import scipy.linalg as sla  # noqa: F401
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kerr
from .errors import ConvergenceFailure, DomainError, NotHyperbolic
from .kerr import KerrParams
from .ramp import smoothstep5

DEFAULT_WINDOW = 0.3  # half-width of the real-part window around z = 0
FLOOR_FACTOR = -1.0  # reported-list floor, in units of h below the axis
RESIDUAL_TOL = 1e-8
RESOLVENT_TOL = 1e-10  # ARPACK's relative tolerance on the resolvent norm
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

_MAX_AUTO_POINTS = 60_000


@dataclass(frozen=True)
class CapProblem:
    """One sampled absorbing-barrier eigenvalue problem.

    Node samples live on the uniform interior grid of ``(x_min, x_max)``
    with Dirichlet walls at both ends; ``mass_mid`` is sampled at the
    n_points + 1 cell midpoints the flux stencils difference across.
    ``window`` is the half-width of the real-part window the grid is
    sized for and the spectrum is searched in, and ``exponent`` is the
    barrier-top normal rate sqrt(2 m |v''|).  ``matrix`` is the operator
    A, assembled on first use and then shared by every solve on the
    problem.
    """

    h: float
    x_min: float
    x_max: float
    n_points: int
    window: float
    potential: np.ndarray
    mass_mid: np.ndarray
    absorber: np.ndarray
    exponent: float

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        return _assemble(self)


@dataclass(frozen=True)
class SpectrumReport:
    """Windowed spectrum of one absorbing-barrier problem.

    ``eigenvalues`` holds the list above the floor, FLOOR_FACTOR * h, with
    residuals and condition numbers; ``gap`` is the distance from the
    axis to the top window eigenvalue, above the floor or not,
    ``nu`` = gap/h, and ``nu_ratio`` = nu/(mu/2) compares it with the
    barrier-top rate mu (the problem's ``exponent``).  ``norm_axis_z0``
    is the discrete resolvent norm at z = 0.
    """

    h: float
    n_points: int
    eigenvalues: np.ndarray
    residuals: np.ndarray
    conditions: np.ndarray
    gap: float
    nu: float
    nu_ratio: float
    norm_axis_z0: float
    runtime_s: float


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
        1.0 - smoothstep5((x - lo_start) / (lo_end - lo_start)),
        smoothstep5((x - hi_start) / (hi_end - hi_start)),
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
    w[inner] = smoothstep5((depth[inner] - flat_depth) / (sat_in - flat_depth))
    w[~inner] = smoothstep5((depth[~inner] - flat_depth) / (sat_out - flat_depth))
    bw = SEAM_FRACTION * length
    w = w + np.maximum(
        smoothstep5((lo_edge + bw - x) / bw),
        smoothstep5((x - hi_edge + bw) / bw),
    )
    np.minimum(w, 1.0, out=w)
    w[x <= lo_edge] = 1.0
    w[x >= hi_edge] = 1.0
    return scale * w


def required_points(length: float, h: float, xi_max: float) -> int:
    """Wavelength rule: at least RESOLUTION_FACTOR grid points per radian
    of the fastest window-energy oscillation (phase rate xi/h per unit
    length)."""
    return int(math.ceil(RESOLUTION_FACTOR * length * max(1.0, xi_max) / h))


def build_model(
    kind: str,
    black_hole: KerrParams = KerrParams(),
    h: float = 0.05,
    *,
    absorber_scale: float = 1.0,
    window: float = DEFAULT_WINDOW,
) -> CapProblem:
    """Sample one absorbing-barrier problem onto a uniform Dirichlet grid.

    ``black_hole`` is the run's ``KerrParams``: ``kerr_equatorial`` uses it
    whole, ``schw_radial`` only its mass, and the toy ignores it.
    ``window`` is the half-width of the real-part window the spectrum is
    searched in; the problem carries it, so ``spectral_gap`` searches the
    window the grid was sized for.  Every problem lives on its kind's own
    domain, and n_points is set by the wavelength rule at the fastest
    oscillation of energies up to ``window``.  The absorber shape is fixed
    per kind: the toy ramps over the fixed domain fractions TOY_RAMPS, and
    the barrier kinds key the ramp to barrier depth -v; both saturate on
    the MARGINS fractions at the ends, and the barrier top must lie among
    the absorber-free nodes.  ``absorber_scale`` multiplies the absorber,
    and 0 builds the absorber-free reference problem (self-adjoint, for
    calibration).
    """
    if not 0.0 < h < 0.5:
        raise DomainError(f"h must lie in (0, 0.5), got {h:g}")
    if not 0.0 <= absorber_scale <= 1.0:
        raise DomainError(f"absorber scale must lie in [0, 1], got {absorber_scale:g}")
    barrier = kerr.barrier(kind, black_hole)
    (x_min, x_max), top = barrier.domain, barrier.top
    length = x_max - x_min

    # fastest window-energy phase rate sets the grid rule; the saturated
    # margins are excluded since waves arrive there exponentially damped
    probe = np.linspace(x_min, x_max, 2001)[1:-1]
    (m_probe, *_), (v_probe, *_) = barrier.terms(probe)
    # within a few float spacings of extremal spin Delta rounds to 0 on the
    # domain, and the weight m = (Delta/r^2)^2 with it
    if not np.all(m_probe > 0.0):
        raise DomainError("barrier weight m vanishes on the domain")
    live = (probe >= x_min + MARGINS[0] * length) & (
        probe <= x_max - MARGINS[1] * length
    )
    xi_sq = (window - v_probe[live]) / m_probe[live]
    xi_max = math.sqrt(max(np.max(xi_sq), 0.0))
    n_points = required_points(length, h, xi_max)
    if n_points > _MAX_AUTO_POINTS:
        raise DomainError(
            f"wavelength rule wants {n_points} points; raise h or narrow the window"
        )
    # a near-extremal barrier at large h and a tiny window wants fewer
    if n_points < 8:
        raise DomainError(f"need at least 8 grid points, got {n_points}")

    dx = length / (n_points + 1)
    x = x_min + dx * np.arange(1, n_points + 1)
    x_mid = x_min + dx * (np.arange(n_points + 1) + 0.5)
    potential = barrier.terms(x)[1][0]
    mass_mid = barrier.terms(x_mid)[0][0]
    # flat toy wells keep the banded ramps; barrier kinds need the depth-keyed
    # turn-on or slow near-top waves reflect off the absorber as h shrinks
    if kind == "toy_sech2":
        absorber = _band_profile(x, x_min, x_max, absorber_scale)
    else:
        absorber = _depth_profile(
            x, potential, top, x_min, x_max, h, absorber_scale
        )
    free = x[absorber == 0.0]
    if free.size < 2:
        raise DomainError("absorber leaves no absorber-free region")
    if not free[0] <= top <= free[-1]:
        raise DomainError(
            f"barrier top {top:g} leaves the absorber-free region "
            f"({free[0]:g}, {free[-1]:g})"
        )

    return CapProblem(
        h=h,
        x_min=x_min,
        x_max=x_max,
        n_points=n_points,
        window=window,
        potential=potential,
        mass_mid=mass_mid,
        absorber=absorber,
        exponent=barrier.exponent,
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


def _assemble(problem: CapProblem) -> sp.csc_matrix:
    """Banded complex matrix A = P - i*diag(W), structurally dissipative."""
    n = problem.n_points
    deriv = _derivative_matrix(n, problem.dx)
    weighted = deriv.multiply(problem.mass_mid[:, None]).tocsr()
    kinetic = (problem.h**2) * (deriv.T @ weighted)
    kinetic = 0.5 * (kinetic + kinetic.T)  # Gram form; kill roundoff skew
    a_real = (kinetic + sp.diags(problem.potential)).tocsr()
    return (a_real.astype(complex) - 1j * sp.diags(problem.absorber)).tocsc()


def _certify(matrix, zs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Relative eigenpair residuals ||A v - z v|| / ||v||, vectorized."""
    residual = matrix @ vecs - vecs * zs[None, :]
    return np.linalg.norm(residual, axis=0) / np.linalg.norm(vecs, axis=0)


def _conditions(vecs: np.ndarray) -> np.ndarray:
    """Eigenvalue condition numbers ||r||^2 / |r^T r|, one per column.

    A is complex symmetric, so the left eigenvector of r is conj(r).
    """
    return np.linalg.norm(vecs, axis=0) ** 2 / np.abs(np.sum(vecs * vecs, axis=0))


def dissipativity(matrix) -> tuple[float, float]:
    """(off_diagonal, gain) of K = (A - A^H)/2i, the Hermitian imaginary part.

    Im<Au, u> = <Ku, u>.  ``off_diagonal`` is the largest |K_ij| with
    i != j and ``gain`` the largest K_ii = Im A_ii.  When off_diagonal = 0
    and gain <= 0, <Ku, u> <= 0 for every u: A is dissipative, so for
    Im z > 0, ||(A - z)u|| ||u|| >= -Im<(A - z)u, u> >= Im z ||u||^2, and
    ||(A - z)^{-1}|| <= 1/Im z on the whole upper half plane.  The test is
    exact, not within a tolerance: the absorber is diagonal and
    ``_assemble`` symmetrizes the kinetic part as 0.5 (T + T^T), so
    off_diagonal reads exactly 0 in floating point.
    """
    a = sp.csr_matrix(matrix, dtype=complex)
    upper = sp.triu(a - a.conj().T, k=1)  # 2i K above the diagonal
    off_diagonal = 0.5 * float(np.max(np.abs(upper.data), initial=0.0))
    return off_diagonal, float(np.max(a.diagonal().imag))


def _range_bottom(matrix) -> float:
    """Lowest Im z of the numerical range, min Im diag(A) = -max W: K is
    diagonal (see ``dissipativity``), so its least eigenvalue is its least entry."""
    return float(np.min(matrix.diagonal().imag))


def _require_dissipative(zs: np.ndarray) -> None:
    if np.max(zs.imag) > DISSIPATIVITY_TOL:
        raise ConvergenceFailure(
            f"eigenvalue with Im z = {np.max(zs.imag):.3e} > 0 breaks dissipativity"
        )


def _box_eigenpairs(matrix, window: float, bottom: float):
    """Every eigenpair with |Re z| < window and bottom < Im z <= 0, and the
    residuals it was accepted with.

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
    # processes
    rng = np.random.default_rng(1234)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cells = [(-window, window, bottom, DISSIPATIVITY_TOL)]
    found_z, found_v, found_r = [], [], []
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
        residuals = _certify(matrix, zs, vecs) if covered else None
        if covered and np.all(residuals < RESIDUAL_TOL):
            found_z.append(zs)
            found_v.append(vecs)
            found_r.append(residuals)
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
    return (
        np.concatenate(found_z),
        np.concatenate(found_v, axis=1),
        np.concatenate(found_r),
    )


def eigenvalues(matrix, window: float = DEFAULT_WINDOW, floor: float | None = None):
    """Certified eigenvalues with |Re z| < window and Im z > floor.

    ``floor=None`` means the bottom of the numerical range, below which
    no eigenvalue lies.  The box is searched on the sparse matrix by
    shift-invert cells (``_box_eigenpairs``); nothing is solved densely.
    Every returned eigenvalue carries the relative residual its cell was
    accepted with, below the certification tolerance RESIDUAL_TOL.
    Returns (values, residuals, condition numbers) sorted by descending
    imaginary part.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"matrix is not square: {matrix.shape}")
    matrix = sp.csc_matrix(matrix, dtype=complex)
    # no eigenvalue lies below the numerical range; the slack mirrors the
    # dissipativity tolerance above the axis
    bottom = _range_bottom(matrix) - DISSIPATIVITY_TOL
    if floor is not None:
        bottom = max(bottom, floor)
    zs, vecs, residuals = _box_eigenpairs(matrix, window, bottom)
    order = np.lexsort((zs.real, -zs.imag))
    return zs[order], residuals[order], _conditions(vecs[:, order])


def spectral_gap(problem: CapProblem) -> SpectrumReport:
    """Spectrum report in the problem's window: gap, nu = gap/h, and the
    norm at z = 0.

    The box search starts at the floor (FLOOR_FACTOR * h below the axis)
    and doubles its depth while it finds nothing, until the box holds the
    whole numerical range, so the gap is always the distance from the
    axis to the top window eigenvalue; the floor only trims the reported
    eigenvalue list.  NotHyperbolic, before any solve, unless the
    problem's rate (the scale of nu_ratio) is positive.
    """
    if not problem.exponent > 0.0:
        raise NotHyperbolic(f"barrier-top rate {problem.exponent!r} is not positive")
    start = time.perf_counter()
    floor = FLOOR_FACTOR * problem.h
    matrix = problem.matrix
    lowest = _range_bottom(matrix)
    bottom = floor
    while True:
        zs, residuals, conditions = eigenvalues(
            matrix, window=problem.window, floor=bottom
        )
        if zs.size:
            break
        if bottom <= lowest:
            raise ConvergenceFailure("no window eigenvalue below the axis")
        bottom *= 2.0
    gap = float(-zs[0].imag)
    nu = gap / problem.h
    keep = zs.imag > floor
    return SpectrumReport(
        h=problem.h,
        n_points=problem.n_points,
        eigenvalues=zs[keep],
        residuals=residuals[keep],
        conditions=conditions[keep],
        gap=gap,
        nu=nu,
        nu_ratio=nu / (0.5 * problem.exponent),
        norm_axis_z0=resolvent_norm(matrix, 0.0),
        runtime_s=time.perf_counter() - start,
    )


def resolvent_norm(
    matrix,
    z: complex,
    *,
    max_iter: int = 5000,
) -> float:
    """Discrete resolvent norm 1/sigma_min(A - z) of a sparse matrix A.

    ``eigsh`` (k = 1) finds the top eigenvalue 1/sigma_min^2 of the
    Hermitian (A - z)^{-H} (A - z)^{-1}, applied through one sparse LU,
    to ARPACK's relative tolerance RESOLVENT_TOL; ``max_iter`` is its
    limit on restarts, past which ConvergenceFailure is raised.  An exactly
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
            tol=RESOLVENT_TOL,
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
