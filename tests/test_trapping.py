"""Trapped-set location, linearization, and certification tests."""

import math

import numpy as np
import pytest
from oracles import (
    embed,
    embed_diff,
    full_period_cocycle,
    symbol_grad_hess,
    symbol_value,
    tangent_flow,
)
from scipy.linalg import expm

from nhtrap import kerr, models, trapping
from nhtrap.config import RunConfig
from nhtrap.errors import (
    DomainError,
    InvalidHorizon,
    NoBracket,
)
from nhtrap.kerr import KerrParams, PhaseState

SQRT27 = math.sqrt(27.0)
MU0 = 6.0 * math.sqrt(3.0)
# the CLI's defaults for the values certify and perturb take
CLI = RunConfig(command="trap-certify")
R_MAX, TOL = CLI.r_max, CLI.tolerances["flow"]


def _family(spin: float, epsilon: float, seed: int = 1) -> trapping.ReducedFamily:
    """The M = 1 family at this spin, bumped by the seeded pattern of size
    epsilon unless epsilon is 0."""
    bump = models.BumpPattern(seed, 1.0, epsilon) if epsilon else None
    return trapping.ReducedFamily(KerrParams(1.0, spin), bump=bump)


def horizon_beta(params: KerrParams) -> float:
    """beta_h = -(r+^2 + a^2)/a, where the sphere r^2 = -a(a + beta) is r+."""
    rp = kerr.horizon_radius(params)
    return -(rp**2 + params.spin**2) / params.spin


class TestTrappedRadius:
    def test_static_radius_beta_independent(self):
        p = KerrParams()
        for beta in (-5.0, -1.0, 0.0, 2.0, 5.0):
            assert trapping.trapped_radius(beta, p) == pytest.approx(
                3.0, abs=1e-10
            )

    def test_critical_point_property(self):
        from nhtrap.models import radial_potential_derivs

        rng = np.random.default_rng(31)
        cases = [(rng.uniform(0.0, 0.85), rng.uniform(-4.5, 4.5)) for _ in range(12)]
        # near extremal spin the prograde orbit hugs the horizon
        cases += [(0.95, -2.2), (0.99, -2.378), (0.99, 0.7)]
        # a maximum on the sphere r^2 = -a(a + beta) instead of the cubic
        cases += [(0.999, -4.0)]
        for a, beta in cases:
            p = KerrParams(1.0, a)
            r0 = trapping.trapped_radius(beta, p)
            _, v1, v2, _ = radial_potential_derivs(p, beta, r0)
            assert abs(v1) < 1e-10
            assert v2 < 0.0
        # at beta_h +- 1e-3 that sphere lies 3e-4 M outside r+, where v'
        # carries 1/Delta^2 and rounds at ~1e-8: the root is checked by its
        # Newton step v'/v'' instead
        p = KerrParams(1.0, 0.9)
        for beta in (horizon_beta(p) - 1e-3, horizon_beta(p) + 1e-3):
            r0 = trapping.trapped_radius(beta, p)
            _, v1, v2, _ = radial_potential_derivs(p, beta, r0)
            assert r0 - kerr.horizon_radius(p) < 1e-3
            assert abs(v1 / v2) < 1e-12
            assert v2 < 0.0

    def test_corotating_counterrotating_split(self):
        p = KerrParams(1.0, 0.5)
        r_plus = trapping.trapped_radius(4.0, p)
        r_minus = trapping.trapped_radius(-4.0, p)
        assert r_plus > 3.0 > r_minus

    def test_no_bracket(self):
        # at beta_h the only candidate maximum is the horizon itself
        p = KerrParams(1.0, 0.9)
        with pytest.raises(NoBracket):
            trapping.trapped_radius(horizon_beta(p), p)

    def test_far_counterrotating_sphere(self):
        p = KerrParams(1.0, 0.9)
        r0 = trapping.trapped_radius(-100.0, p)
        assert r0 == pytest.approx(9.444045743218, abs=1e-12)
        _, v1, v2, _ = models.radial_potential_derivs(p, -100.0, r0)
        assert abs(v1) < 1e-10 * abs(v2)
        assert v2 < 0.0

    @pytest.mark.parametrize("spin", [0.0, 0.5, 0.9, 0.99])
    def test_prograde_closed_form(self, spin):
        # the closed-form prograde equatorial orbit lies on the shell
        p = KerrParams(1.0, spin)
        r_star, beta_star = kerr.prograde_orbit(p)
        assert trapping.trapped_radius(beta_star, p) == pytest.approx(r_star, abs=1e-12)

    def test_numerator_factorization(self):
        sp = pytest.importorskip("sympy")
        r, m, a, b = sp.symbols("r M a beta", real=True)
        n = a**2 * b**2 + 4 * m * a * b * r + (r**2 + a**2) ** 2
        dl = r**2 - 2 * m * r + a**2
        cubic = r**3 - 3 * m * r**2 + a * (a - b) * r + a * m * (a + b)
        factored = 2 * (r**2 + a**2 + a * b) * cubic
        assert sp.expand(sp.diff(n, r) * dl - n * sp.diff(dl, r) - factored) == 0
        # and v' = -(N' Delta - N Delta')/Delta^2 for v = 2 a beta - N/Delta
        v = 2 * a * b - n / dl
        assert sp.simplify(sp.diff(v, r) + factored / dl**2) == 0


class TestLinearization:
    def test_static_chart(self):
        chart = trapping.linearization(0.0, KerrParams())
        assert np.max(
            np.abs(chart.lin_matrix - np.asarray([[0.0, 3.0], [9.0, 0.0]]))
        ) < 1e-8
        assert chart.normal_exponent == pytest.approx(MU0, abs=1e-8)
        assert chart.potential_curvature == pytest.approx(-18.0, abs=1e-8)

    def test_exponent_mass_scaling(self):
        for mass in (1.0, 2.0, 5.0):
            chart = trapping.linearization(0.0, KerrParams(mass=mass))
            assert chart.trapped_radius == pytest.approx(3.0 * mass, rel=1e-12)
            assert chart.normal_exponent == pytest.approx(
                MU0 * mass, rel=1e-10
            )

    def test_curvature_exponent_identity(self):
        # B' = -v''/2 ties the two derivative routes together
        rng = np.random.default_rng(37)
        for _ in range(8):
            p = KerrParams(1.0, rng.uniform(0.0, 0.8))
            chart = trapping.linearization(rng.uniform(-4.0, 4.0), p)
            assert chart.lin_matrix[1, 0] == pytest.approx(
                -chart.potential_curvature / 2.0, rel=1e-9
            )


class TestFamilyAndShell:
    def test_equatorial_range_static(self):
        fam = trapping.ReducedFamily(KerrParams())
        lo, hi = trapping.equatorial_beta_range(0.0, fam)
        assert hi == pytest.approx(SQRT27, abs=1e-10)
        assert lo == pytest.approx(-SQRT27, abs=1e-10)
        lo5, hi5 = trapping.equatorial_beta_range(5.0, fam)
        assert hi5 == pytest.approx(math.sqrt(32.0), abs=1e-10)
        # +-sqrt(57) lies beyond the first far end, 7 M
        lo30, hi30 = trapping.equatorial_beta_range(30.0, fam)
        assert (lo30, hi30) == pytest.approx((-math.sqrt(57.0), math.sqrt(57.0)), abs=1e-10)

    def test_spin_breaks_symmetry(self):
        params = KerrParams(1.0, 0.4)
        lo, hi = trapping.equatorial_beta_range(0.0, trapping.ReducedFamily(params))
        assert abs(hi) != pytest.approx(abs(lo), abs=1e-3)

    def test_exponent_is_the_top_eigenvalue(self):
        # the closed form sqrt(-det H) against a general 2x2 eigensolve of
        # the full-field generator, on a perturbed family, whose saddle
        # Hessian has an off-diagonal term
        fam = _family(0.5, 0.01, seed=2)
        for beta in (-2.0, 0.5, 3.0):
            chart = fam.chart(beta)
            top = np.max(np.linalg.eigvals(2.0 * chart.lin_matrix).real)
            assert chart.normal_exponent == pytest.approx(top, rel=1e-14)

    def test_orbit_on_shell(self):
        fam = trapping.ReducedFamily(KerrParams(1.0, 0.2))
        orbit = trapping.ShellOrbit(fam, 1.5, 0.0)
        assert symbol_value(fam, embed(orbit, orbit.u0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orbit_outside_range_rejected(self):
        fam = trapping.ReducedFamily(KerrParams())
        with pytest.raises(DomainError):
            trapping.ShellOrbit(fam, 5.5, 0.0)  # beyond sqrt(27)

    def test_pinned_radial_pair_is_invariant(self):
        # on the trapped set the (r, xi) components of the field vanish
        fam = trapping.ReducedFamily(KerrParams(1.0, 0.3))
        orbit = trapping.ShellOrbit(fam, 2.0, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = np.asarray(
                [
                    rng.uniform(0.9, np.pi - 0.9),
                    rng.uniform(0, 2 * np.pi),
                    rng.uniform(-2, 2),
                    orbit.beta,
                ]
            )
            g = symbol_grad_hess(fam, embed(orbit, u))[0]
            assert abs(g[3]) < 1e-10  # r-dot = dp/dxi
            # xi-dot = -dp/dr varies with theta only through terms that
            # vanish at the saddle radius
            u_eq = u.copy()
            u_eq[0] = np.pi / 2
            g_eq = symbol_grad_hess(fam, embed(orbit, u_eq))[0]
            assert abs(g_eq[0]) < 1e-9

    def test_start_blocks_match_grad_hess6(self):
        # the frame's start velocity is the 6D gradient at the start point,
        # bit for bit, also with a bump
        fam = _family(0.5, 0.01, seed=3)
        for beta in (-2.5, 1.2):
            orbit = trapping.ShellOrbit(fam, beta, 0.0)
            g, H = symbol_grad_hess(fam, embed(orbit, orbit.u0))
            z0 = np.concatenate([orbit.u0, np.eye(4).ravel()])
            velocity = orbit.rhs(0.0, z0)[:4]
            assert np.array_equal(velocity, [g[4], g[5], -g[1], 0.0])
            frame = orbit.tangential_frame()
            direction = velocity / np.linalg.norm(velocity)
            assert abs(abs(frame[:, 0] @ direction) - 1.0) < 1e-14

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_normal_block_is_the_reference_block(self, epsilon):
        # the block read off the reduced symbol is the (r, phi, xi) block of
        # the six-dimensional J Hess p at the start point, bit for bit
        fam = _family(0.5, epsilon, seed=3)
        block = [0, 2, 3]
        for beta in (-2.5, 1.2):
            orbit = trapping.ShellOrbit(fam, beta, 0.0)
            H = symbol_grad_hess(fam, embed(orbit, orbit.u0))[1]
            A6 = np.vstack([H[3:, :], -H[:3, :]])
            assert np.array_equal(orbit.normal_block, A6[np.ix_(block, block)])
            # the other rows vanish on the block, which makes it invariant
            rest = [1, 4, 5]
            assert not np.any(A6[np.ix_(rest, block)])

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_rhs_is_the_embedded_reference(self, epsilon):
        # the intrinsic rows of `rhs` are the alpha, beta and -theta rows of
        # the six-dimensional Hess p times the embedding differential
        fam = _family(0.5, epsilon, seed=3)
        rng = np.random.default_rng(11)
        for beta in (-2.5, 0.4, 1.2):
            orbit = trapping.ShellOrbit(fam, beta, 0.0)
            E = embed_diff(orbit)
            for u in (orbit.u0, [1.1, 0.3, -0.4, beta], [2.0, -1.0, 0.7, beta]):
                H = symbol_grad_hess(fam, embed(orbit, u))[1]
                M = np.vstack([H[4], H[5], -H[1], np.zeros(6)]) @ E
                X = rng.standard_normal((4, 4))
                field = orbit.rhs(0.0, np.concatenate([u, X.ravel()]))[4:]
                ref = M @ X
                assert np.max(np.abs(field.reshape(4, 4) - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_weighted_norm_is_the_embedded_norm(self, epsilon):
        # E^T E = W^2, so ||W Y|| = ||E Y|| for every Y, one at a time or stacked
        fam = _family(0.5, epsilon, seed=3)
        rng = np.random.default_rng(12)
        for beta in (-2.5, 0.4, 1.2):
            orbit = trapping.ShellOrbit(fam, beta, 0.0)
            E, W = embed_diff(orbit), orbit.weight[:, None]
            assert np.allclose(E.T @ E, np.diag(orbit.weight**2), rtol=1e-15, atol=0.0)
            Y = rng.standard_normal((5, 4, 3))
            assert np.linalg.norm(W * Y, 2, axis=(-2, -1)) == pytest.approx(
                np.linalg.norm(E @ Y, 2, axis=(-2, -1)), rel=1e-14
            )

    def test_exact_structure_matches_full_flow(self):
        # independent oracle: the six-dimensional variational flow of the
        # full Kerr model from the embedded start, past one theta-period
        params = KerrParams(1.0, 0.35)
        orbit = trapping.ShellOrbit(trapping.ReducedFamily(params), 1.7, 0.0)
        cocycle = orbit.tangent_cocycle(1.5, tol=1e-12)
        H = symbol_grad_hess(orbit.family, embed(orbit, orbit.u0))[1]
        A6 = np.vstack([H[3:, :], -H[:3, :]])
        (rate_plus, e_plus), (rate_minus, e_minus) = orbit.normal_bundles()
        L = embed_diff(orbit)
        model = models.full_kerr_model(params)
        for t in (0.4, 0.9, 1.5, -0.7, -1.5):
            J6 = tangent_flow(model, embed(orbit, orbit.u0), t, tol=1e-12)
            diff = np.abs(J6 @ L - L @ cocycle(t))
            assert np.max(diff[:, :3]) < 1e-10
            # the beta column moves the saddle, so the normal flow
            # amplifies the rounding of its saddle derivative
            assert np.max(diff[:, 3]) < 1e-10 * np.linalg.norm(expm(t * A6), 2)
            rate, e = (rate_plus, e_plus) if t > 0 else (rate_minus, e_minus)
            bundle = np.zeros(6)
            bundle[[0, 2, 3]] = e  # the (r, phi, xi) slots
            assert math.log(np.linalg.norm(J6 @ bundle)) == pytest.approx(
                rate * abs(t), abs=1e-9
            )

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_saddle_derivative_matches_difference_quotient(self, epsilon):
        fam = _family(0.5, epsilon, seed=3)
        step = 1e-5
        for beta in (-3.0, -1.2, 0.8, 2.5):
            lo, hi = np.asarray(fam.saddle(beta - step)), np.asarray(fam.saddle(beta + step))
            quotient = (hi - lo) / (2.0 * step)
            exact = fam.saddle_derivative(beta)
            assert np.max(np.abs(exact - quotient)) < 1e-7 * max(1.0, abs(quotient[0]))

    def test_long_orbit_conservation(self):
        # the intrinsic flow preserves volume, so det X(t) = 1 out to
        # |t| = 20 through the period structure; along the one integrated
        # period p, beta and Carter stay at their starting values
        params = KerrParams(1.0, 0.2)
        orbit = trapping.ShellOrbit(trapping.ReducedFamily(params), 1.8, 0.0)
        cocycle = orbit.tangent_cocycle(20.0, tol=1e-12)
        t = np.linspace(-20.0, 20.0, 41)
        assert np.max(np.abs(np.linalg.det(cocycle(t)) - 1.0)) < 1e-8
        start = kerr.conserved(PhaseState.from_array(embed(orbit, orbit.u0)), params)
        for s in np.linspace(0.0, cocycle.period, 41):
            u = cocycle.one_period(s)[:4]
            now = kerr.conserved(PhaseState.from_array(embed(orbit, u)), params)
            assert abs(now.p - start.p) < 1e-10
            assert now.beta == start.beta
            assert abs(now.carter - start.carter) < 1e-10


class TestQuarterPeriod:
    """The period, monodromy and (u, X) on [0, P] rebuilt from a quarter
    period by the reflection and reversal symmetries, against one whole
    period integrated directly."""

    @pytest.mark.parametrize("spin, epsilon", [(0.5, 0.0), (0.9, 0.0), (0.5, 0.01)])
    def test_matches_full_period(self, spin, epsilon):
        fam = _family(spin, epsilon)
        lo, hi = trapping.equatorial_beta_range(0.0, fam)
        for beta in (0.8 * lo, 0.3 * lo, 0.5 * hi):
            orbit = trapping.ShellOrbit(fam, beta, 0.0)
            cocycle = orbit.tangent_cocycle(CLI.horizon, tol=1e-12)
            period, monodromy, dense = full_period_cocycle(orbit, CLI.horizon, tol=1e-12)
            assert cocycle.period == pytest.approx(period, rel=1e-11)
            assert np.max(np.abs(cocycle.shear + np.eye(4) - monodromy)) < 1e-8
            # 97 points, 24 in each quarter, cover all four quarters
            s = np.linspace(0.0, period, 97)
            rebuilt, direct = cocycle.one_period(s), dense(s)
            assert np.max(np.abs(rebuilt[:4] - direct[:4])) < 1e-8
            assert np.max(np.abs(rebuilt[4:] - direct[4:])) < 1e-8
            assert np.max(np.abs(cocycle(s) - np.moveaxis(
                direct[4:].reshape(4, 4, -1), -1, 0))) < 1e-8

    def test_horizon_bounds_the_period(self):
        orbit = trapping.ShellOrbit(_family(0.5, 0.0), 1.2, 0.0)
        period = orbit.tangent_cocycle(CLI.horizon, TOL).period
        with pytest.raises(InvalidHorizon):
            orbit.tangent_cocycle(0.99 * period, TOL)
        # a bound this close clips the step that holds the turn, which moves
        # the period in its last bits only
        assert orbit.tangent_cocycle(1.01 * period, TOL).period == pytest.approx(
            period, rel=1e-12
        )

    @pytest.mark.parametrize(
        "spin, epsilon, beta", [(0.5, 0.0, -2.0), (0.9, 0.0, 1.5), (0.5, 0.01, -2.0)]
    )
    def test_envelope_sup(self, spin, epsilon, beta):
        # sigma(s) = ||L X(s) Y|| for both envelope directions Y
        orbit = trapping.ShellOrbit(_family(spin, epsilon), beta, 0.0)
        cocycle = orbit.tangent_cocycle(CLI.horizon, TOL)
        L, F, P = embed_diff(orbit), orbit.tangential_frame(), cocycle.period
        for Y in (F, cocycle.shear @ F):

            def sigma(s):
                return np.linalg.norm(L @ cocycle(s) @ Y, 2, axis=(-2, -1))

            sup = trapping._envelope_sup(sigma, P)
            grid = np.linspace(0.0, P, trapping.ENVELOPE_SAMPLES)
            values = sigma(grid)
            assert sup >= np.max(values)
            assert sup >= np.max(sigma(np.linspace(0.0, P, 100001))) * (1.0 - 1e-12)
            # the sup lies in the bracket of the grid argmax, where 1e5
            # points resolve it to far below 1e-12
            i = int(np.argmax(values))
            bracket = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 100001)
            assert sup == pytest.approx(np.max(sigma(bracket)), rel=1e-12)

    def test_envelope_sup_ends_on_long_periods(self):
        # past P ~ 1e7 the float spacing of s exceeds ENVELOPE_XTOL (at
        # M = 1e-8 the period is about 6e8), yet the refinement must end
        period = 6e8
        sup = trapping._envelope_sup(lambda s: np.cos(2.0 * np.pi * s / period - 1.0), period)
        assert sup == pytest.approx(1.0, abs=1e-12)


class TestCertify:
    def test_static_certificate(self):
        cert = trapping.certify(0.0, _family(0.0, 0.0), horizon=6.0, r_max=R_MAX, tol=TOL)
        assert cert.passed
        assert cert.reasons == []
        assert cert.theta_rate == pytest.approx(MU0, rel=1e-12)
        assert len(cert.ratio_checks) == R_MAX
        assert all(c.passed for c in cert.ratio_checks)
        assert all(c.theta0 > 0 for c in cert.ratio_checks)
        assert cert.tangential_degree == 0
        for s in cert.beta_samples:
            assert s.rate_plus == pytest.approx(MU0, rel=1e-12)
            assert s.rate_minus == pytest.approx(MU0, rel=1e-12)
            assert s.invariance_angle <= trapping.INVARIANCE_ANGLE_MAX

    @pytest.mark.parametrize("spin", [0.5, 0.9, 0.95, 0.99])
    def test_rates_are_the_normal_exponent(self, spin):
        cert = trapping.certify(0.0, _family(spin, 0.0), horizon=5.0, r_max=R_MAX, tol=TOL)
        assert cert.passed, cert.reasons
        for s in cert.beta_samples:
            assert s.rate_plus == pytest.approx(s.chart.normal_exponent, rel=1e-12)
            assert s.rate_minus == pytest.approx(s.chart.normal_exponent, rel=1e-12)

    @pytest.mark.parametrize("spin, degree", [(0.0, 0), (0.5, 1), (0.9, 1)])
    def test_tangential_degree_matches_dense_envelope(self, spin, degree):
        params = KerrParams(1.0, spin)
        fam = trapping.ReducedFamily(params)
        cert = trapping.certify(0.0, fam, horizon=5.0, r_max=R_MAX, tol=TOL)
        assert cert.tangential_degree == degree
        for s in cert.beta_samples:
            assert s.tangential_degree == degree
            orbit = trapping.ShellOrbit(fam, s.chart.beta, 0.0)
            cocycle = orbit.tangent_cocycle(5.0, TOL)
            L, F, P = embed_diff(orbit), orbit.tangential_frame(), cocycle.period

            def sigma(t):
                return np.linalg.norm(L @ cocycle(t) @ F, 2, axis=(-2, -1))

            # the per-period maximum grows like m^degree
            def period_max(m):
                return np.max(sigma((m + np.linspace(0.0, 1.0, 601)) * P))

            growth = math.log2(period_max(20000) / period_max(10000))
            assert growth == pytest.approx(degree, abs=1e-3)
            # the certified envelope bounds a dense grid of 30 periods
            a, b = s.envelope
            t = np.linspace(0.0, 30.0 * P, 18001)
            assert np.all(sigma(t) <= (a + b * t) * (1.0 + 1e-9))
            assert np.all(sigma(-t) <= (a + b * (t + P)) * (1.0 + 1e-9))

    @pytest.mark.parametrize("mass", [1e-4, 1e3])
    def test_mass_scaling(self, mass):
        # rates and betas scale like M and periods like 1/M, so the beta
        # bracket and its root tolerance must scale with M too
        def scaled(m):
            fam = trapping.ReducedFamily(KerrParams(m, m / 2.0))
            cert = trapping.certify(0.0, fam, horizon=50.0 / m, r_max=R_MAX, tol=TOL)
            return (
                cert.theta_rate / m,
                np.asarray([s.period * m for s in cert.beta_samples]),
                np.asarray([s.chart.beta / m for s in cert.beta_samples]),
            )

        for got, want in zip(scaled(mass), scaled(1.0)):
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("mass", [1e-8, 1e-6, 1e-5, 1e-4, 1.0, 1e2, 1e4])
    def test_tangential_degree_is_mass_free(self, mass):
        # the zero test of N^k F is dimensionless, so a = M/2 reads degree 1
        # at every mass (the raw ||L N^k F|| read 2 below M = 1e-5 and 0 on a
        # sample at M = 1e4)
        fam = trapping.ReducedFamily(KerrParams(mass, mass / 2.0))
        cert = trapping.certify(0.0, fam, horizon=50.0 / mass, r_max=R_MAX, tol=TOL)
        assert [s.tangential_degree for s in cert.beta_samples] == [1] * trapping.N_BETA
        assert cert.passed, cert.reasons

    def test_ratio_constant_is_the_sup(self):
        t = np.linspace(0.0, 20.0, 400001)
        for r, a, b, k in ((1, 5.0, 0.0, 1.0), (2, 5.0, 0.1, 3.0), (4, 8.0, 6.0, 0.6)):
            dense = np.max((a + b * t) ** r * np.exp(-k * t))
            assert trapping._ratio_sup(r, a, b, k) == pytest.approx(dense, rel=1e-9)

    def test_certificate_does_not_depend_on_horizon(self):
        docs = [
            trapping.certificate_to_dict(
                trapping.certify(0.0, _family(0.5, 0.0), horizon=horizon, r_max=R_MAX, tol=TOL)
            )
            for horizon in (1.0, 50.0)
        ]
        assert docs[0] == docs[1]

    def test_bad_horizon(self):
        # 0.1 is shorter than the theta-period
        for horizon in (0.0, 0.1):
            with pytest.raises(InvalidHorizon):
                trapping.certify(
                    0.0, _family(0.0, 0.0), horizon=horizon, r_max=R_MAX, tol=TOL
                )

    def test_certificate_dict_schema(self):
        cert = trapping.certify(0.0, _family(0.0, 0.0), horizon=4.0, r_max=R_MAX, tol=TOL)
        d = trapping.certificate_to_dict(cert)
        assert set(d) == {
            "lambda",
            "beta_samples",
            "theta_rate",
            "ratio_checks",
            "tangential_degree",
            "passed",
            "reasons",
        }
        sample = d["beta_samples"][0]
        assert {
            "beta",
            "trapped_radius",
            "lin_matrix",
            "normal_exponent",
            "rate_plus",
            "rate_minus",
            "period",
            "tangential_degree",
            "envelope",
            "invariance_angle",
        } <= set(sample)
        check = d["ratio_checks"][0]
        assert {"r", "theta0", "C", "passed"} <= set(check)


class TestInvarianceAngle:
    def test_small_angles_resolved(self):
        ref = np.zeros(6)
        ref[0] = 1.0
        for angle in (1e-12, 1e-6):
            w = np.zeros(6)
            w[0], w[3] = math.cos(angle), math.sin(angle)
            assert trapping._line_angle(ref, w) == pytest.approx(angle, rel=1e-12)
            assert trapping._line_angle(ref, -w) == pytest.approx(angle, rel=1e-12)


class TestPerturbation:
    def test_epsilon_bound(self):
        with pytest.raises(DomainError):
            trapping.perturb_and_recertify(
                KerrParams(), 0.0, 0.2, seed=1, horizon=CLI.horizon, r_max=R_MAX, tol=TOL
            )

    def test_small_perturbation_certificate(self):
        rep = trapping.perturb_and_recertify(
            KerrParams(), 0.0, 0.005, seed=3, horizon=5.0, r_max=R_MAX, tol=TOL
        )
        assert rep.certificate.passed
        assert rep.displacement <= 5.0 * rep.epsilon
        assert rep.exponent_shift <= 0.05
        assert rep.displacement_factor == pytest.approx(
            rep.displacement / rep.epsilon
        )

    @pytest.mark.parametrize("mass", [0.1, 10.0])
    def test_mass_scaling(self, mass):
        # the bump scales with the symbol, and the displacement is measured
        # in (r/M, xi), so neither reported ratio depends on M
        def ratios(m):
            rep = trapping.perturb_and_recertify(
                KerrParams(m, m / 2.0), 0.0, 0.01, seed=1, horizon=20.0 / m,
                r_max=R_MAX, tol=TOL,
            )
            assert rep.certificate.passed
            return rep.exponent_shift, rep.displacement_factor

        assert ratios(mass) == pytest.approx(ratios(1.0), rel=1e-10)

    def test_one_beta_search(self, monkeypatch):
        # the saddles perturb compares are the certified ones, so the run
        # searches for the beta range once
        searches, compared = [], set()
        search, saddle = trapping.equatorial_beta_range, trapping.ReducedFamily.saddle

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        def recorded(family, beta):
            if family.bump is None:
                compared.add(beta)
            return saddle(family, beta)

        monkeypatch.setattr(trapping, "equatorial_beta_range", counted)
        monkeypatch.setattr(trapping.ReducedFamily, "saddle", recorded)
        rep = trapping.perturb_and_recertify(
            KerrParams(1.0, 0.5), 0.0, 0.01, seed=1, horizon=20.0, r_max=R_MAX, tol=TOL
        )
        assert len(searches) == 1
        assert compared == {s.chart.beta for s in rep.certificate.beta_samples}

    def test_zero_perturbation_is_identity(self):
        rep = trapping.perturb_and_recertify(
            KerrParams(), 0.0, 0.0, seed=9, horizon=4.0, r_max=R_MAX, tol=TOL
        )
        assert rep.displacement == pytest.approx(0.0, abs=1e-10)
        assert rep.exponent_shift == pytest.approx(0.0, abs=1e-10)
