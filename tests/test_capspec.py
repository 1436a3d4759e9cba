"""Absorbing-barrier spectrum tests: stencils, strings, gaps, resolvents."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_eigenvalues

from nhtrap import capspec, escape, kerr, models, trapping
from nhtrap.errors import ConvergenceFailure, DomainError, NotHyperbolic
from nhtrap.kerr import KerrParams

MU_EFF = 2.0 * math.sqrt(3.0) / 9.0


def laplacian_reference(h: float, n_points: int,
                        length: float = math.pi) -> capspec.CapProblem:
    """Absorber-free flat problem (v = 0, m = 1) with known spectrum.

    The continuum eigenvalues are h^2 (j pi / length)^2.
    """
    return capspec.CapProblem(
        h=h,
        x_min=0.0,
        x_max=length,
        n_points=n_points,
        potential=np.zeros(n_points),
        mass_mid=np.ones(n_points + 1),
        absorber=np.zeros(n_points),
        exponent=0.0,
    )


def assert_box_matches_dense(matrix, window: float, floor) -> int:
    """The box search and the dense oracle find the same eigenvalues, one
    to one; returns how many."""
    zd, rd, kd = dense_eigenvalues(matrix, window=window, floor=floor)
    zb, rb, _ = capspec.eigenvalues(matrix, window=window, floor=floor)
    assert zb.size == zd.size
    if zd.size:
        match = np.argmin(np.abs(zd[:, None] - zb[None, :]), axis=1)
        assert np.unique(match).size == zb.size  # one-to-one, no duplicates
        # an eigenvalue is only determined to its first-order perturbation
        # bound kappa * residual; 1e-9 on top of that
        assert np.all(np.abs(zd - zb[match]) <= 1e-9 + kd * (rd + rb[match]))
    return zd.size


def nodes(p: capspec.CapProblem) -> np.ndarray:
    """The interior grid nodes the problem is sampled on."""
    return p.x_min + p.dx * np.arange(1, p.n_points + 1)


def absorber_free(p: capspec.CapProblem) -> np.ndarray:
    """The nodes where the absorber vanishes."""
    return nodes(p)[p.absorber == 0.0]


@pytest.fixture(scope="module")
def toy_problem():
    return capspec.build_model("toy_sech2", h=0.05)


@pytest.fixture(scope="module")
def toy_window(toy_problem):
    return capspec.eigenvalues(toy_problem.matrix, window=0.3, floor=-np.inf)


@pytest.fixture(scope="module")
def schw_problem():
    return capspec.build_model("schw_radial", h=0.05)


COARSE_KINDS = ("toy_sech2", "schw_radial", "kerr_equatorial")


@pytest.fixture(scope="module")
def coarse_problems():
    # h = 0.1 keeps each dense reference small; the Kerr barrier at a = 0.9
    return {kind: capspec.build_model(kind, KerrParams(spin=0.9), h=0.1) for kind in COARSE_KINDS}


class TestBuildModel:
    def test_toy_defaults(self, toy_problem):
        p = toy_problem
        assert p.x_min == -6.0 and p.x_max == 6.0
        assert p.potential.shape == p.absorber.shape == (p.n_points,)
        assert p.mass_mid.shape == (p.n_points + 1,)
        assert p.dx == pytest.approx((p.x_max - p.x_min) / (p.n_points + 1))
        # band ramps: 10% margins, then 30% ramps, at each end
        free = absorber_free(p)
        assert -1.2 <= free[0] < -1.2 + p.dx
        assert 1.2 - p.dx < free[-1] <= 1.2

    def test_absorber_range_and_margins(self, toy_problem, schw_problem):
        for p in (toy_problem, schw_problem):
            w, x = p.absorber, nodes(p)
            assert w.min() >= 0.0 and w.max() <= 1.0
            length = p.x_max - p.x_min
            lo = x <= p.x_min + capspec.MARGINS[0] * length
            hi = x >= p.x_max - capspec.MARGINS[1] * length
            assert np.all(w[lo] == 1.0)
            assert np.all(w[hi] == 1.0)
            # the absorber-free nodes form one unbroken stretch
            flat = np.flatnonzero(w == 0.0)
            assert flat.size > 1 and np.all(np.diff(flat) == 1)

    def test_schw_depth_profile(self, schw_problem):
        p = schw_problem
        free = absorber_free(p)
        assert free[0] < 3.0 < free[-1]
        # absorber vanishes at the barrier top node
        i_top = int(np.argmin(np.abs(nodes(p) - 3.0)))
        assert p.absorber[i_top] == 0.0

    def test_schw_barrier_top_values(self):
        # v(3M) = 0, v'(3M) = 0 and m(3M) = 1/9 at the critical b^2 = 27 M^2
        barrier = kerr.barrier("schw_radial", KerrParams())
        assert barrier.top == 3.0
        (m, *_), (v, *_) = barrier.terms(3.0)
        assert v == pytest.approx(0.0, abs=1e-13)
        h = 1e-5
        (_, (v_hi, *_)), (_, (v_lo, *_)) = barrier.terms(3.0 + h), barrier.terms(3.0 - h)
        assert (v_hi - v_lo) / (2.0 * h) == pytest.approx(0.0, abs=1e-9)
        assert m == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert barrier.exponent == pytest.approx(MU_EFF, abs=1e-13)

    def test_schw_ignores_spin(self, schw_problem):
        spinning = capspec.build_model("schw_radial", KerrParams(spin=0.7), h=0.05)
        assert np.array_equal(spinning.potential, schw_problem.potential)
        assert np.array_equal(spinning.absorber, schw_problem.absorber)
        assert spinning.exponent == schw_problem.exponent
        heavy = capspec.build_model("schw_radial", KerrParams(mass=2.0), h=0.05)
        assert heavy.x_min == pytest.approx(2.0 * schw_problem.x_min, rel=1e-15)

    def test_exponent_identity(self, schw_problem):
        # the rescaling by Delta/r^4 divides the shell's rate by r*^4/Delta* = 27
        chart = trapping.linearization(0.0, KerrParams())
        assert schw_problem.exponent == pytest.approx(
            chart.normal_exponent / 27.0, abs=1e-13
        )
        assert schw_problem.exponent == pytest.approx(MU_EFF, abs=1e-13)

    def test_kerr_static_reduces_to_schw(self, schw_problem):
        pk = capspec.build_model("kerr_equatorial", KerrParams(), h=0.05)
        ps = schw_problem
        assert (pk.x_min, pk.x_max, pk.n_points) == (
            ps.x_min,
            ps.x_max,
            ps.n_points,
        )
        assert np.max(np.abs(pk.potential - ps.potential)) < 1e-14
        assert np.max(np.abs(pk.mass_mid - ps.mass_mid)) < 1e-14
        assert np.max(np.abs(pk.absorber - ps.absorber)) < 1e-13
        assert pk.exponent == pytest.approx(ps.exponent, abs=1e-13)
        static = capspec.build_model("kerr_equatorial")
        assert static.exponent == pytest.approx(MU_EFF, abs=1e-14)

    @pytest.mark.parametrize("spin", [0.0, 0.3, 0.5, 0.9, 0.99])
    def test_critical_orbit_closed_form(self, spin):
        # the closed-form orbit is a double root of V = v_beta + (beta - a)^2;
        # V' is held relative to v_rr, because rounding the inputs to double
        # moves it by v_rr * dr (1.3e-12 at a = 0.99, where v_rr = -997)
        params = KerrParams(mass=1.0, spin=spin)
        r_star, beta = kerr.prograde_orbit(params)
        v, v_r, v_rr = kerr.radial_terms(params, beta, r_star)[:3]
        assert abs(v + (beta - spin) ** 2) < 1e-12
        assert abs(v_r) < 1e-12 * max(1.0, abs(v_rr))
        # against the double root solved at 40 digits (M = 1)
        a = mpmath.mpf(spin)

        def big_v(r, b):
            n = a * a * b * b + 4 * a * r * b + (r * r + a * a) ** 2
            return 2 * a * b - n / (r * r - 2 * r + a * a) + (b - a) ** 2

        with mpmath.workdps(40):
            root = mpmath.findroot(
                [big_v, lambda r, b: mpmath.diff(lambda x: big_v(x, b), r)],
                (mpmath.mpf(r_star), mpmath.mpf(beta)),
            )
        assert abs(r_star - float(root[0])) < 1e-14 * r_star
        assert abs(beta - float(root[1])) < 1e-14 * max(1.0, abs(beta))
        assert kerr.barrier("kerr_equatorial", params).top == r_star

    @pytest.mark.parametrize("mass", [1.0, 2.0])
    @pytest.mark.parametrize("spin", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("kind", ["toy_sech2", "schw_radial", "kerr_equatorial"])
    def test_escape_rate_is_cap_exponent(self, kind, spin, mass):
        # escape-check certifies the symbol the CAP problem samples: the
        # defining pair's saddle rate is the problem's barrier-top exponent
        params = KerrParams(mass, spin * mass)
        barrier = kerr.barrier(kind, params)
        model = models.barrier_model(barrier.terms, None)
        saddle = escape.build_defining_pair(model, (barrier.top, 0.0)).saddle
        mu = models.saddle_rate(model.hessian(saddle), kind)
        exponent = capspec.build_model(kind, params).exponent
        assert mu == pytest.approx(exponent, rel=1e-14, abs=0.0)

    def test_kerr_spinning_domain(self):
        params = KerrParams(mass=1.0, spin=0.4)
        p = capspec.build_model("kerr_equatorial", params, h=0.1)
        horizon = 1.0 + math.sqrt(1.0 - 0.16)
        assert p.x_min > horizon
        free = absorber_free(p)
        assert free[0] < kerr.prograde_orbit(params)[0] < free[-1]

    def test_wavelength_rule(self, monkeypatch):
        n_rule = capspec.required_points(8.0, 0.05, 1.2)
        assert n_rule >= capspec.RESOLUTION_FACTOR * 8.0 * 1.2 / 0.05
        # the rule resolves the fastest oscillation up to the window edge
        narrow = capspec.build_model("toy_sech2", h=0.05)
        monkeypatch.setattr(capspec, "DEFAULT_WINDOW", 1.0)
        wide = capspec.build_model("toy_sech2", h=0.05)
        assert wide.n_points > narrow.n_points

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", h=0.0)
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", h=0.6)
        with pytest.raises(DomainError):
            capspec.build_model("no_such_model")

    def test_near_extremal_limits(self):
        # at large h the wavelength rule asks fewer than 8 points of a small
        # black hole's barrier
        with pytest.raises(DomainError, match="at least 8 grid points"):
            capspec.build_model("schw_radial", KerrParams(0.01, 0.0), h=0.4999)
        # two float spacings below extremal spin, Delta rounds to 0 on the
        # domain and the weight m = (Delta/r^2)^2 with it, though v stays finite
        with pytest.raises(DomainError, match="weight m vanishes"):
            capspec.build_model("kerr_equatorial", KerrParams(1.0, 1.0 - 2.0**-52), h=0.1)

    def test_absorber_free_reference(self):
        # the absorber-free reference keeps the grid and P, with W = 0
        p = capspec.build_model("toy_sech2", h=0.1)
        ref = dataclasses.replace(p, absorber=np.zeros_like(p.absorber))
        assert np.all(ref.absorber == 0.0)
        assert abs(ref.matrix - p.matrix - 1j * sp.diags(p.absorber)).max() == 0.0


def _loop_derivative_matrix(n, dx):
    """Row-by-row reference for the wall-folded fourth-order stencil."""
    offsets = (-1, 0, 1, 2)
    weights = np.array([1.0, -27.0, 27.0, -1.0]) / 24.0
    rows, cols, vals = [], [], []
    for m in range(n + 1):
        for off, w in zip(offsets, weights):
            e = m + off
            if e < 1:
                e, w = -e, -w
            elif e > n:
                e, w = 2 * (n + 1) - e, -w
            if 1 <= e <= n:
                rows.append(m)
                cols.append(e - 1)
                vals.append(w / dx)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n + 1, n), dtype=float).tocsr()


class TestSemigroup:
    def test_saddle_generator_toy(self, toy_problem):
        # barrier-top linearization [[0, 2m], [-v'', 0]] of the flow field;
        # for sech^2 x - 1 (m = 1, v'' = -2) its positive eigenvalue
        # sqrt(2 m |v''|) = 2 is the problem's exponent
        barrier = kerr.barrier("toy_sech2", KerrParams())
        top, step = barrier.top, 1e-4
        v = [barrier.terms(x)[1][0] for x in (top - step, top, top + step)]
        v_curv = (v[2] - 2.0 * v[1] + v[0]) / step**2
        gen = np.array([[0.0, 2.0 * barrier.terms(top)[0][0]], [-v_curv, 0.0]])
        assert np.max(np.abs(gen - np.array([[0.0, 2.0], [2.0, 0.0]]))) < 1e-6
        rate = float(np.max(np.linalg.eigvals(gen).real))
        assert rate == pytest.approx(toy_problem.exponent, abs=1e-6)
        assert toy_problem.exponent == 2.0


class TestDiscretization:
    def test_derivative_matrix_matches_loop(self):
        for n, dx in ((8, 0.1), (9, 1.0 / 3.0), (57, 0.0123456789)):
            fast = capspec._derivative_matrix(n, dx)
            loop = _loop_derivative_matrix(n, dx)
            assert np.array_equal(fast.indptr, loop.indptr)
            assert np.array_equal(fast.indices, loop.indices)
            assert np.array_equal(fast.data, loop.data)

    def test_order4_convergence_rate(self):
        errs = []
        for n in (100, 200, 400):
            ref = laplacian_reference(h=0.1, n_points=n)
            matrix = ref.matrix.toarray()
            vals = np.sort(np.linalg.eigvalsh(matrix.real))
            exact = (0.1 * np.arange(1, 4)) ** 2
            errs.append(np.max(np.abs(vals[:3] - exact)))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(rates) > 3.5

    def test_matrix_symmetry(self, toy_problem, coarse_problems):
        for problem in (toy_problem, *coarse_problems.values()):
            matrix = problem.matrix
            assert abs(matrix - matrix.T).max() == 0.0

    def test_numerical_range_identity(self, toy_problem):
        matrix = toy_problem.matrix
        rng = np.random.default_rng(7)
        for _ in range(6):
            u = rng.standard_normal(toy_problem.n_points) + 1j * rng.standard_normal(
                toy_problem.n_points
            )
            u /= np.linalg.norm(u)
            im = float(np.imag(np.vdot(u, matrix @ u)))
            expected = -float(np.real(np.vdot(u, toy_problem.absorber * u)))
            assert im == pytest.approx(expected, abs=1e-12)
            assert im <= capspec.DISSIPATIVITY_TOL

    def test_absorber_free_is_self_adjoint(self):
        p = capspec.build_model("toy_sech2", h=0.1)
        p = dataclasses.replace(p, absorber=np.zeros_like(p.absorber))
        vals, _, _ = capspec.eigenvalues(p.matrix, window=0.3, floor=-np.inf)
        assert np.max(np.abs(vals.imag)) < 1e-10


class TestEigenvalues:
    def test_toy_string_oracle(self, toy_window):
        # the toy potential v = sech^2 x - 1 is exactly Poschl-Teller, whose
        # resonances are z_n = -h^2(1/4+(n+1/2)^2) - i(2n+1)h*sqrt(1-h^2/4);
        # the CAP eigenvalues match them to 9.3e-6 (n = 0) and 8.4e-4 (n = 1)
        zs, _, _ = toy_window
        h = 0.05
        tols = (2e-5, 2e-3, 5e-2)
        for n, tol in enumerate(tols):
            zexp = complex(
                -h * h * (0.25 + (n + 0.5) ** 2),
                -(2 * n + 1) * h * math.sqrt(1.0 - h * h / 4.0),
            )
            assert np.min(np.abs(zs - zexp)) < tol

    def test_residual_certification(self, toy_window):
        _, residuals, _ = toy_window
        assert residuals.size > 0
        assert np.max(residuals) < capspec.RESIDUAL_TOL

    def test_dense_matches_shift_invert(self, monkeypatch):
        monkeypatch.setattr(capspec, "RESOLUTION_FACTOR", 7.5)  # n = 1027
        p = capspec.build_model("toy_sech2", h=0.1)
        matrix = p.matrix
        zd, _, _ = dense_eigenvalues(matrix)
        zi, _, _ = capspec.eigenvalues(matrix, capspec.DEFAULT_WINDOW, -np.inf)
        top_d = zd[np.argmax(zd.imag)]
        top_i = zi[np.argmax(zi.imag)]
        assert abs(top_d - top_i) < 1e-8

    def test_grid_refinement_stability(self, monkeypatch):
        # eigenvalues near the axis stable to 1e-6 under n -> 2n
        tops = []
        for factor in (15.0, 30.0):  # n = 2053 and 4105
            monkeypatch.setattr(capspec, "RESOLUTION_FACTOR", factor)
            p = capspec.build_model("toy_sech2", h=0.1)
            zs, _, _ = capspec.eigenvalues(p.matrix, capspec.DEFAULT_WINDOW, -np.inf)
            tops.append(zs[np.argmax(zs.imag)])
        assert abs(tops[0] - tops[1]) < 1e-6

    def test_method_validation(self):
        # not square, and too small for ARPACK's 1 <= k < n - 1
        for matrix in (np.zeros((3, 4)), sp.identity(2)):
            with pytest.raises(DomainError):
                capspec.eigenvalues(matrix, capspec.DEFAULT_WINDOW, -np.inf)

    @pytest.mark.parametrize(
        "kind, params, scale",
        [
            ("toy_sech2", None, 1.0),
            ("toy_sech2", None, 0.0),
            ("schw_radial", None, 1.0),
            ("kerr_equatorial", KerrParams(spin=0.5), 1.0),
        ],
    )
    @pytest.mark.parametrize("floor_factor", [-1.0, -6.0, None])
    def test_box_matches_dense_oracle(self, kind, params, scale, floor_factor):
        # scale 0 is the absorber-free, all-real case; None is the default
        # black hole
        p = capspec.build_model(kind, params or KerrParams(), h=0.1)
        p = dataclasses.replace(p, absorber=scale * p.absorber)
        floor = -np.inf if floor_factor is None else floor_factor * p.h
        assert assert_box_matches_dense(p.matrix, capspec.DEFAULT_WINDOW, floor) > 0

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(COARSE_KINDS),
        spin=st.floats(0.0, 0.9),
        h=st.floats(0.1, 0.2),
        window=st.floats(0.05, 0.8),
        floor_factor=st.sampled_from([-0.5, -1.0, -3.0, -8.0, None]),
    )
    def test_box_matches_dense_oracle_property(self, kind, spin, h, window, floor_factor):
        # cells of every shape: narrow and wide boxes, shallow and full depth
        p = capspec.build_model(kind, KerrParams(spin=spin), h=h)
        floor = -np.inf if floor_factor is None else floor_factor * h
        assert_box_matches_dense(p.matrix, window, floor)

    def test_wide_box_splits_along_re_z(self, coarse_problems, monkeypatch):
        # at window 2 the disk out to the K-th eigenvalue nearest the box's
        # centre spans only a band of Re z, so the rest of the box is passed
        # on as cells beside it, each solved once at its own shift
        matrix = coarse_problems["toy_sech2"].matrix
        calls, eigs = [], capspec.spla.eigs

        def recording(*args, sigma, k, **kwargs):
            calls.append((sigma, k))
            return eigs(*args, sigma=sigma, k=k, **kwargs)

        monkeypatch.setattr(capspec.spla, "eigs", recording)
        zb, rb, _ = capspec.eigenvalues(matrix, window=2.0, floor=-0.2)
        shifts = [sigma for sigma, _ in calls]
        assert len(set(shifts)) == len(shifts)  # no shift is solved twice
        assert {k for _, k in calls} == {min(capspec.K, matrix.shape[0] - 2)}
        assert len({z.real for z in shifts}) > 1 and len({z.imag for z in shifts}) == 1
        zd, rd, kd = dense_eigenvalues(matrix, window=2.0, floor=-0.2)
        assert zb.size == zd.size == 5
        assert np.all(np.abs(zd - zb) <= 1e-9 + kd * (rd + rb))

    def test_condition_numbers_match_left_eigenvectors(self):
        p = capspec.build_model("schw_radial", h=0.1)
        matrix = p.matrix
        zs, _, kappa = capspec.eigenvalues(matrix, capspec.DEFAULT_WINDOW, -6.0 * p.h)
        vals, left, right = sla.eig(matrix.toarray(), left=True)
        for z, k in zip(zs, kappa):
            i = int(np.argmin(np.abs(vals - z)))
            y, r = left[:, i], right[:, i]
            expected = np.linalg.norm(y) * np.linalg.norm(r) / abs(np.vdot(y, r))
            assert k == pytest.approx(expected, rel=1e-6)
        assert np.all(kappa >= 1.0 - 1e-12)


class TestSpectralGap:
    def test_report_fields(self, toy_problem):
        rep = capspec.spectral_gap(toy_problem)
        assert rep.gap > 0.0
        assert rep.nu == pytest.approx(rep.gap / rep.h)
        assert np.all(rep.eigenvalues.imag > capspec.FLOOR_FACTOR * rep.h)
        assert np.all(np.abs(rep.eigenvalues.real) < capspec.DEFAULT_WINDOW)
        assert rep.norm_axis_z0 == capspec.resolvent_norm(toy_problem.matrix, 0.0)

    def test_floor_trims_list_not_gap(self, toy_problem):
        rep = capspec.spectral_gap(toy_problem)
        deep, _, _ = capspec.eigenvalues(
            toy_problem.matrix, window=capspec.DEFAULT_WINDOW, floor=-6.0 * rep.h
        )
        assert -deep[0].imag == pytest.approx(rep.gap, rel=1e-12)
        assert deep.size > rep.eigenvalues.size

    def test_searches_the_problem_window(self, monkeypatch):
        # the grid and the searched box both read the one window
        monkeypatch.setattr(capspec, "DEFAULT_WINDOW", 0.6)
        p = capspec.build_model("toy_sech2", h=0.1)
        rep = capspec.spectral_gap(p)
        floor = capspec.FLOOR_FACTOR * rep.h
        wide, _, _ = capspec.eigenvalues(p.matrix, window=0.6, floor=floor)
        assert np.array_equal(rep.eigenvalues, wide)

    def test_empty_floor_box_deepens_to_the_gap(self, monkeypatch):
        # a flat well under a constant absorber 0.25 has every eigenvalue at
        # Im z = -0.25, below the floor -h, so the search runs once more, to
        # the bottom of the numerical range; the well has no barrier top, so
        # its rate (nu_ratio's scale) is 1
        flat = dataclasses.replace(
            laplacian_reference(h=0.1, n_points=200), absorber=np.full(200, 0.25), exponent=1.0
        )
        floors, search = [], capspec.eigenvalues

        def recording(matrix, window, floor):
            floors.append(floor)
            return search(matrix, window, floor)

        monkeypatch.setattr(capspec, "eigenvalues", recording)
        rep = capspec.spectral_gap(flat)
        assert floors == [-0.1, -math.inf]
        assert rep.eigenvalues.size == 0
        assert rep.gap == pytest.approx(0.25, abs=1e-12)

    def test_zero_rate_is_not_hyperbolic(self, monkeypatch):
        # nu_ratio's scale is the barrier-top rate: a flat well at rate 0 is
        # refused before any eigensolve
        flat = dataclasses.replace(
            laplacian_reference(h=0.1, n_points=200), absorber=np.full(200, 0.25), exponent=0.0
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(capspec, "eigenvalues", forbidden)
        with pytest.raises(NotHyperbolic, match="rate 0.0"):
            capspec.spectral_gap(flat)

    def test_toy_gap_tracks_string(self, toy_problem):
        rep = capspec.spectral_gap(toy_problem)
        assert rep.nu == pytest.approx(1.0, rel=0.01)

    def test_gap_grid_convergence(self, schw_problem, monkeypatch):
        # gap(n) vs gap(2n) differ by < 1% at the working resolution
        base = capspec.spectral_gap(schw_problem)
        monkeypatch.setattr(capspec, "RESOLUTION_FACTOR", 2.0 * capspec.RESOLUTION_FACTOR)
        p2 = capspec.build_model("schw_radial", h=0.05)
        assert p2.n_points in (2 * base.n_points - 1, 2 * base.n_points)
        refined = capspec.spectral_gap(p2)
        assert abs(refined.gap - base.gap) / base.gap < 0.01

    def test_short_toy_sweep(self):
        reports = [
            capspec.spectral_gap(capspec.build_model("toy_sech2", h=h))
            for h in (0.1, 0.05)
        ]
        for rep in reports:
            assert rep.gap > 0.0
            assert rep.norm_axis_z0 > 0.0
        nus = [rep.nu for rep in reports]
        assert min(nus) > 0.9
        assert abs(nus[1] - nus[0]) / abs(nus[0]) < 0.15


# ten fixed upper-half-plane points across the default window
LANCZOS_POINTS = (
    -0.21938145353255928 + 0.0457698789188302j,
    0.20145906235192185 + 0.17016987962848398j,
    -0.2847324834039235 + 0.13757625816195101j,
    -0.1601493298454564 + 0.2307400375377047j,
    0.2955260473056391 + 0.042016041361413035j,
    -0.11797889344024942 + 0.12372581815693216j,
    -0.19619555905256944 + 0.1353603715835541j,
    -0.006183887722645054 + 0.2911275108099279j,
    0.16231388389848034 + 0.13811476546506637j,
    0.27426976887613613 + 0.29828726116488213j,
)


class TestResolvent:
    def test_lower_bound_spectrum_distance(self, schw_problem):
        rep = capspec.spectral_gap(schw_problem)
        norm = capspec.resolvent_norm(schw_problem.matrix, 0.0)
        dist = float(np.min(np.abs(rep.eigenvalues - 0.0)))
        assert norm >= (1.0 / dist) * (1.0 - 1e-6)

    def test_upper_half_plane_bound(self, toy_problem, coarse_problems):
        # the bound dissipativity proves, against the Lanczos norm, down to
        # Im z = 1e-3, where it reads 1000
        rng = np.random.default_rng(20)
        zs = [complex(rng.uniform(-0.2, 0.2), rng.uniform(0.01, 0.3)) for _ in range(8)]
        zs += [complex(re, 1e-3) for re in (-0.2, 0.0, 0.2)]
        for problem in (toy_problem, *coarse_problems.values()):
            for z in zs:
                norm = capspec.resolvent_norm(problem.matrix, z)
                assert norm <= (1.0 / z.imag) * (1.0 + 1e-10)

    def test_elliptic_region_is_tame(self, toy_problem):
        assert capspec.resolvent_norm(toy_problem.matrix, -2.0) < 2.0

    def test_near_eigenvalue_blowup(self, toy_problem, toy_window):
        zs, _, _ = toy_window
        z0 = zs[np.argmax(zs.imag)]
        assert capspec.resolvent_norm(toy_problem.matrix, complex(z0)) > 1e5

    def test_lanczos_matches_dense_svd(self, coarse_problems):
        # the coarse toy (h = 0.1) takes the same Lanczos path at half the
        # size of the default one, so its dense SVDs cost an eighth as much
        problem = coarse_problems["toy_sech2"]
        matrix = problem.matrix.toarray()
        eye = np.eye(problem.n_points)
        for z in LANCZOS_POINTS:
            exact = 1.0 / sla.svdvals(matrix - z * eye)[-1]
            norm = capspec.resolvent_norm(problem.matrix, z)
            assert norm == pytest.approx(exact, rel=1e-10)

    def test_nonconvergence_raises(self, toy_problem):
        with pytest.raises(ConvergenceFailure):
            capspec.resolvent_norm(toy_problem.matrix, complex(0.1, 0.3), max_iter=1)


class TestDissipativity:
    @pytest.mark.parametrize("kind", COARSE_KINDS)
    def test_imaginary_part_is_diagonal(self, coarse_problems, kind):
        # K = (A - A^H)/2i is exactly diagonal and <= 0, and its least
        # eigenvalue is the numerical range's bottom the box search starts from
        matrix = coarse_problems[kind].matrix
        off_diagonal, gain = capspec.dissipativity(matrix)
        assert off_diagonal == 0.0 and gain <= 0.0
        dense = matrix.toarray()
        k = (dense - dense.conj().T) / 2j
        assert capspec._range_bottom(matrix) == np.linalg.eigvalsh(k)[0]

    @pytest.mark.parametrize("kind", COARSE_KINDS)
    def test_flipped_absorber_is_read(self, coarse_problems, kind):
        # conj(A) = S + iW gains max W, and its eigenvalues above the axis
        # really break 1/Im z there
        problem = coarse_problems[kind]
        flipped = problem.matrix.conj().tocsc()
        assert capspec.dissipativity(flipped) == (0.0, float(np.max(problem.absorber)))
        z = 0.05j
        assert capspec.resolvent_norm(flipped, z) > 1.0 / z.imag
        # and the box search refuses them
        with pytest.raises(ConvergenceFailure, match="breaks dissipativity"):
            capspec.eigenvalues(flipped, capspec.DEFAULT_WINDOW, -np.inf)

    def test_skew_entry_is_read(self, coarse_problems):
        skewed = coarse_problems["toy_sech2"].matrix.tolil()
        skewed[0, 1] += 1e-3
        off_diagonal, gain = capspec.dissipativity(skewed.tocsc())
        assert off_diagonal == pytest.approx(0.5e-3) and gain == 0.0
