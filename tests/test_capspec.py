"""Absorbing-barrier spectrum tests: stencils, strings, gaps, semigroup."""

import math

import numpy as np
import pytest

from nhtrap import capspec, trapping
from nhtrap.errors import (
    ConvergenceFailure,
    DomainError,
    UnderResolved,
)
from nhtrap.kerr import KerrParams

MU_EFF = 2.0 * math.sqrt(3.0) / 9.0


@pytest.fixture(scope="module")
def toy_problem():
    return capspec.build_model("toy_sech2", h=0.05)


@pytest.fixture(scope="module")
def toy_window(toy_problem):
    matrix = capspec.discretize(toy_problem)
    return capspec.eigenvalues(matrix, window=0.3, floor=None)


@pytest.fixture(scope="module")
def schw_problem():
    return capspec.build_model("schw_radial", h=0.05)


class TestBuildModel:
    def test_toy_defaults(self, toy_problem):
        p = toy_problem
        assert p.kind == "toy_sech2"
        assert p.profile == "band"
        assert p.x_min == -6.0 and p.x_max == 6.0
        assert p.flat_lo < p.barrier_top < p.flat_hi
        assert p.x.shape == (p.n_points,)
        assert p.dx == pytest.approx(p.length / (p.n_points + 1))

    def test_absorber_range_and_margins(self, toy_problem, schw_problem):
        for p in (toy_problem, schw_problem):
            w = p.absorber
            assert w.min() >= 0.0 and w.max() <= 1.0
            lo = p.x <= p.x_min + p.margins[0] * p.length
            hi = p.x >= p.x_max - p.margins[1] * p.length
            assert np.all(w[lo] == 1.0)
            assert np.all(w[hi] == 1.0)
            flat = (p.x >= p.flat_lo) & (p.x <= p.flat_hi)
            assert np.all(w[flat] == 0.0)

    def test_schw_depth_profile(self, schw_problem):
        p = schw_problem
        assert p.profile == "depth"
        assert p.flat_lo < 3.0 < p.flat_hi
        # absorber vanishes at the barrier top node
        i_top = int(np.argmin(np.abs(p.x - 3.0)))
        assert p.absorber[i_top] == 0.0

    def test_schw_barrier_top_values(self, schw_problem):
        # v(3M) = 0, v'(3M) = 0 and m(3M) = 1/9 for the k_ang = 27 normalization
        assert schw_problem.params == {"mass": 1.0, "k_ang": 27.0}
        v_func, m_func, top, m_top, _, _ = capspec._model_functions(
            "schw_radial", schw_problem.params
        )
        assert top == schw_problem.barrier_top == 3.0
        assert v_func(3.0) == pytest.approx(0.0, abs=1e-13)
        h = 1e-5
        slope = (v_func(3.0 + h) - v_func(3.0 - h)) / (2.0 * h)
        assert slope == pytest.approx(0.0, abs=1e-9)
        assert m_func(3.0) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert m_top == schw_problem.mass_top == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_exponent_identity(self, schw_problem):
        chart = trapping.linearization(0.0, KerrParams())
        k_ang = schw_problem.params["k_ang"]
        assert schw_problem.exponent == pytest.approx(
            chart.normal_exponent / k_ang, abs=1e-8
        )
        assert schw_problem.exponent == pytest.approx(MU_EFF, abs=1e-8)

    def test_kerr_static_reduces_to_schw(self, schw_problem):
        pk = capspec.build_model(
            "kerr_equatorial", {"mass": 1.0, "spin": 0.0}, h=0.05
        )
        ps = schw_problem
        assert (pk.x_min, pk.x_max, pk.n_points) == (
            ps.x_min,
            ps.x_max,
            ps.n_points,
        )
        assert np.max(np.abs(pk.potential - ps.potential)) < 1e-14
        assert np.max(np.abs(pk.mass_weight - ps.mass_weight)) < 1e-14
        assert np.max(np.abs(pk.absorber - ps.absorber)) < 1e-13
        assert pk.exponent == pytest.approx(ps.exponent, abs=1e-10)

    def test_kerr_spinning_domain(self):
        p = capspec.build_model(
            "kerr_equatorial", {"mass": 1.0, "spin": 0.4}, h=0.1
        )
        horizon = 1.0 + math.sqrt(1.0 - 0.16)
        assert p.x_min > horizon
        assert p.flat_lo < p.barrier_top < p.flat_hi

    def test_wavelength_rule(self):
        with pytest.raises(UnderResolved):
            capspec.build_model("toy_sech2", h=0.05, grid=(-4.0, 4.0, 100))
        n_rule = capspec.required_points(8.0, 0.05, 1.2, 3.0)
        assert n_rule >= 3.0 * 8.0 * 1.2 / 0.05

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", h=0.0)
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", h=0.6)
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", order=3)
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", profile="taper")
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", margins=(0.05, 0.10))
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", absorber_scale=2.0)
        with pytest.raises(DomainError):
            capspec.build_model("schw_radial", grid=(1.9, 6.8, 4000))
        with pytest.raises(DomainError):
            capspec.build_model("toy_sech2", grid=(4.0, -4.0, 500))
        with pytest.raises(DomainError):
            capspec.build_model("no_such_model")

    def test_absorber_scale_zero(self):
        p = capspec.build_model("toy_sech2", h=0.1, absorber_scale=0.0)
        assert np.all(p.absorber == 0.0)


class TestDiscretization:
    def test_order2_exact_discrete_spectrum(self):
        ref = capspec.laplacian_reference(h=0.1, n_points=160, order=2)
        matrix = capspec.discretize(ref)
        vals = np.sort(np.linalg.eigvalsh(matrix.real))
        n, dx, h = ref.n_points, ref.dx, ref.h
        j = np.arange(1, n + 1)
        exact = (4.0 * h * h / (dx * dx)) * np.sin(
            j * math.pi / (2.0 * (n + 1))
        ) ** 2
        assert np.max(np.abs(vals - exact)) < 1e-12

    def test_order4_convergence_rate(self):
        errs = []
        for n in (100, 200, 400):
            ref = capspec.laplacian_reference(h=0.1, n_points=n, order=4)
            vals = np.sort(np.linalg.eigvalsh(capspec.discretize(ref).real))
            exact = (0.1 * np.arange(1, 4)) ** 2
            errs.append(np.max(np.abs(vals[:3] - exact)))
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(rates) > 3.5

    def test_matrix_symmetry(self, toy_problem):
        matrix = capspec.discretize(toy_problem)
        assert np.max(np.abs(matrix - matrix.T)) == 0.0

    def test_numerical_range_identity(self, toy_problem):
        matrix = capspec.discretize(toy_problem)
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
        p = capspec.build_model("toy_sech2", h=0.1, absorber_scale=0.0)
        vals, _ = capspec.eigenvalues(capspec.discretize(p), window=0.3, floor=None)
        assert np.max(np.abs(vals.imag)) < 1e-10


class TestEigenvalues:
    def test_toy_string_oracle(self, toy_window):
        # barrier-top string of the exactly solvable flat-well twin:
        # z_n = -h^2(1/4+(n+1/2)^2) - i(2n+1)h*sqrt(1-h^2/4)
        zs, _ = toy_window
        h = 0.05
        tols = (1e-4, 5e-3, 5e-2)
        for n, tol in enumerate(tols):
            zexp = complex(
                -h * h * (0.25 + (n + 0.5) ** 2),
                -(2 * n + 1) * h * math.sqrt(1.0 - h * h / 4.0),
            )
            assert np.min(np.abs(zs - zexp)) < tol

    def test_residual_certification(self, toy_window):
        _, residuals = toy_window
        assert residuals.size > 0
        assert np.max(residuals) < capspec.RESIDUAL_TOL

    def test_dense_matches_shift_invert(self):
        p = capspec.build_model("toy_sech2", h=0.1, grid=(-4.0, 4.0, 1000))
        matrix = capspec.discretize_sparse(p)
        zd, _ = capspec.eigenvalues(matrix, method="dense")
        zi, _ = capspec.eigenvalues(matrix, method="shift_invert")
        top_d = zd[np.argmax(zd.imag)]
        top_i = zi[np.argmax(zi.imag)]
        assert abs(top_d - top_i) < 1e-8

    def test_grid_refinement_stability(self):
        # eigenvalues near the axis stable to 1e-6 under n -> 2n
        tops = []
        for n in (2000, 4000):
            p = capspec.build_model("toy_sech2", h=0.1, grid=(-4.0, 4.0, n))
            zs, _ = capspec.eigenvalues(
                capspec.discretize_sparse(p), method="shift_invert"
            )
            tops.append(zs[np.argmax(zs.imag)])
        assert abs(tops[0] - tops[1]) < 1e-6

    def test_method_validation(self, toy_problem):
        matrix = capspec.discretize(toy_problem)
        with pytest.raises(DomainError):
            capspec.eigenvalues(matrix, method="arnoldi")
        with pytest.raises(DomainError):
            capspec.eigenvalues(np.zeros((3, 4)))


class TestSpectralGap:
    def test_report_fields(self, toy_problem):
        rep = capspec.spectral_gap(toy_problem)
        assert rep.kind == "toy_sech2"
        assert rep.gap > 0.0
        assert rep.nu == pytest.approx(rep.gap / rep.h)
        assert rep.floor == pytest.approx(-1.0 * rep.h)
        assert np.all(rep.eigenvalues.imag > rep.floor)
        assert np.all(np.abs(rep.eigenvalues.real) < rep.window)
        assert rep.resolvent_axis[0][0] == 0.0

    def test_floor_trims_list_not_gap(self, toy_problem):
        rep = capspec.spectral_gap(toy_problem)
        deep = capspec.spectral_gap(toy_problem, floor_factor=-6.0)
        assert deep.gap == pytest.approx(rep.gap, rel=1e-12)
        assert deep.eigenvalues.size > rep.eigenvalues.size

    def test_toy_gap_tracks_string(self, toy_problem):
        rep = capspec.spectral_gap(toy_problem)
        assert rep.nu == pytest.approx(1.0, rel=0.01)

    def test_gap_grid_convergence(self, schw_problem):
        # gap(n) vs gap(2n) differ by < 1% at the working resolution
        base = capspec.spectral_gap(schw_problem)
        p2 = capspec.build_model(
            "schw_radial",
            h=0.05,
            grid=(schw_problem.x_min, schw_problem.x_max, 2 * schw_problem.n_points),
        )
        refined = capspec.spectral_gap(p2)
        assert abs(refined.gap - base.gap) / base.gap < 0.01

    def test_sweep_validation(self):
        with pytest.raises(DomainError):
            capspec.gap_sweep("toy_sech2", h_list=())
        with pytest.raises(DomainError):
            capspec.gap_sweep("toy_sech2", h_list=(0.05, 0.1))

    def test_short_toy_sweep(self):
        sweep = capspec.gap_sweep("toy_sech2", h_list=(0.1, 0.05))
        assert sweep["passed"]
        assert sweep["nu_floor"] > 0.9
        assert sweep["nu_consistency"] < 0.15
        for row in sweep["rows"]:
            assert set(row) == {
                "h",
                "gap",
                "nu",
                "norm_axis_z0",
                "runtime_s",
                "n_points",
            }
            assert row["gap"] > 0.0
            assert row["norm_axis_z0"] > 0.0


class TestResolvent:
    def test_lower_bound_spectrum_distance(self, schw_problem):
        rep = capspec.spectral_gap(schw_problem)
        norm = capspec.resolvent_norm(schw_problem, 0.0)
        dist = float(np.min(np.abs(rep.eigenvalues - 0.0)))
        assert norm >= (1.0 / dist) * (1.0 - 1e-6)

    def test_upper_half_plane_bound(self, toy_problem):
        rng = np.random.default_rng(20)
        for _ in range(8):
            z = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.01, 0.3))
            norm = capspec.resolvent_norm(toy_problem, z)
            assert norm <= (1.0 / z.imag) * (1.0 + 1e-10)

    def test_elliptic_region_is_tame(self, toy_problem):
        assert capspec.resolvent_norm(toy_problem, -2.0) < 2.0

    def test_near_eigenvalue_blowup(self, toy_problem, toy_window):
        zs, _ = toy_window
        z0 = zs[np.argmax(zs.imag)]
        assert capspec.resolvent_norm(toy_problem, complex(z0)) > 1e5


class TestSemigroup:
    def test_saddle_generator_toy(self, toy_problem):
        gen = capspec.saddle_generator(toy_problem)
        assert np.max(np.abs(gen - np.array([[0.0, 2.0], [2.0, 0.0]]))) < 1e-12
        rate = float(np.max(np.linalg.eigvals(gen).real))
        assert rate == pytest.approx(toy_problem.exponent, abs=1e-12)

    def test_gaussian_state_support(self, toy_problem, schw_problem):
        for p in (toy_problem, schw_problem):
            state = capspec.gaussian_state(p)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
            outside = (p.x < p.flat_lo) | (p.x > p.flat_hi)
            assert np.linalg.norm(state[outside]) < 1e-2

    def test_absorber_free_evolution_is_unitary(self):
        p = capspec.build_model("toy_sech2", h=0.1, absorber_scale=0.0)
        norms = capspec.evolve_norms(
            p, capspec.gaussian_state(p), np.linspace(0.0, 2.0, 9)
        )
        assert np.max(np.abs(norms - norms[0])) < 1e-10

    def test_eigenvector_decay_matches_eigenvalue(self, toy_problem):
        z, vec = capspec.slowest_mode(toy_problem)
        alpha = capspec.semigroup_decay(
            toy_problem, vec, t_final=6.0, support_tol=None
        )
        assert alpha == pytest.approx(-z.imag / toy_problem.h, rel=0.02)

    def test_gaussian_decay_within_factor_two(self, toy_problem):
        rep = capspec.spectral_gap(toy_problem)
        alpha = capspec.semigroup_decay(toy_problem, t_final=6.0)
        ratio = alpha / rep.nu
        assert 0.5 <= ratio <= 2.0

    def test_support_guard(self):
        p = capspec.build_model("schw_radial", h=0.1)
        _, vec = capspec.slowest_mode(p)
        with pytest.raises(DomainError):
            capspec.semigroup_decay(p, vec)
        alpha = capspec.semigroup_decay(p, vec, t_final=6.0, support_tol=None)
        assert alpha > 0.0

    def test_evolution_validation(self, toy_problem):
        with pytest.raises(DomainError):
            capspec.evolve_norms(
                toy_problem, np.ones(3, dtype=complex), np.linspace(0.0, 1.0, 5)
            )
        with pytest.raises(DomainError):
            capspec.semigroup_decay(toy_problem, t_final=-1.0)
        with pytest.raises(DomainError):
            capspec.semigroup_decay(
                toy_problem, np.zeros(toy_problem.n_points, dtype=complex)
            )
