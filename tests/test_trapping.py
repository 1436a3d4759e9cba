"""Trapped-set location, linearization, and certification tests."""

import math

import numpy as np
import pytest
from oracles import (
    embed,
    embed_diff,
    full_period_cocycle,
    integrated_quarter,
    normal_bundles,
    periodic_cocycle,
    shell_frame,
    shell_rhs,
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
from nhtrap.shell import ShellOrbit

SQRT27 = math.sqrt(27.0)
MU0 = 6.0 * math.sqrt(3.0)
# the CLI's default horizon, the one config value certify and perturb take
CLI = RunConfig(command="trap-certify")
R_MAX = trapping.R_MAX


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
        # the closed-form prograde equatorial orbit lies on the shell, with
        # normal rate 2 sqrt(3) r*; scaled by Delta*/r*^4 it is the barrier's
        # exponent 2 sqrt(3) Delta*/r*^3
        rate = 2.0 * math.sqrt(3.0)
        for mass in (1.0, 2.0):
            p = KerrParams(mass, spin * mass)
            r_star, beta_star = kerr.prograde_orbit(p)
            assert trapping.trapped_radius(beta_star, p) == pytest.approx(
                r_star, abs=1e-12 * mass
            )
            chart = trapping.linearization(beta_star, p)
            assert chart.normal_exponent == pytest.approx(rate * r_star, rel=1e-13)
            exponent = kerr.barrier("kerr_equatorial", p).exponent
            assert exponent == pytest.approx(
                rate * kerr.delta(p, r_star) / r_star**3, rel=1e-13
            )

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
        orbit = ShellOrbit(fam, 1.5, 0.0)
        assert symbol_value(fam, embed(orbit, orbit.u0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orbit_outside_range_rejected(self):
        fam = trapping.ReducedFamily(KerrParams())
        with pytest.raises(DomainError):
            ShellOrbit(fam, 5.5, 0.0)  # beyond sqrt(27)

    def test_chart_is_formed_once_per_beta(self, monkeypatch):
        # the saddle derivative and the shell orbit of each certified beta
        # share one chart, and perturb's base family forms one more
        made, chart = [], trapping.TrappedOrbitChart

        def counted(**fields):
            made.append(fields["beta"])
            return chart(**fields)

        monkeypatch.setattr(trapping, "TrappedOrbitChart", counted)
        rep = trapping.perturb_and_recertify(KerrParams(1.0, 0.5), 0.0, 0.01, seed=1, horizon=20.0)
        betas = [s.chart.beta for s in rep.certificate.beta_samples]
        assert sorted(made) == sorted(2 * betas)

    def test_pinned_radial_pair_is_invariant(self):
        # on the trapped set the (r, xi) components of the field vanish
        fam = trapping.ReducedFamily(KerrParams(1.0, 0.3))
        orbit = ShellOrbit(fam, 2.0, 0.0)
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
        # the closed-form field along the first quarter, the start included,
        # is the 6D gradient at the embedded closed-form state, also with a bump
        fam = _family(0.5, 0.01, seed=3)
        for beta in (-2.5, 1.2):
            orbit = ShellOrbit(fam, beta, 0.0)
            u, field, _ = orbit.flow(np.linspace(0.0, orbit.quarter_time, 9))
            for ui, fi in zip(u.T, field.T):
                g = symbol_grad_hess(fam, embed(orbit, ui))[0]
                ref = np.asarray([g[4], g[5], -g[1], 0.0])
                assert np.max(np.abs(fi - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_normal_block_is_the_reference_block(self, epsilon):
        # the (r, phi, xi) block of the six-dimensional J Hess p at the start
        # point has eigenvalues lambda, 0 and -lambda, with lambda the
        # chart's exponent read off the reduced symbol (fact 2)
        fam = _family(0.5, epsilon, seed=3)
        block = [0, 2, 3]
        for beta in (-2.5, 1.2):
            orbit = ShellOrbit(fam, beta, 0.0)
            H = symbol_grad_hess(fam, embed(orbit, orbit.u0))[1]
            A6 = np.vstack([H[3:, :], -H[:3, :]])
            lam = orbit.chart.normal_exponent
            eigvals = np.linalg.eigvals(A6[np.ix_(block, block)])
            assert np.max(np.abs(eigvals.imag)) <= 1e-13 * lam
            assert np.sort(eigvals.real) == pytest.approx([-lam, 0.0, lam], rel=1e-13,
                                                          abs=1e-13 * lam)
            # the other rows vanish on the block, which makes it invariant
            rest = [1, 4, 5]
            assert not np.any(A6[np.ix_(rest, block)])

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_rhs_is_the_embedded_reference(self, epsilon):
        # the intrinsic rows of the oracle's shell field are the alpha, beta
        # and -theta rows of the six-dimensional Hess p times the embedding
        # differential
        fam = _family(0.5, epsilon, seed=3)
        rng = np.random.default_rng(11)
        for beta in (-2.5, 0.4, 1.2):
            orbit = ShellOrbit(fam, beta, 0.0)
            E = embed_diff(orbit)
            for u in (orbit.u0, [1.1, 0.3, -0.4, beta], [2.0, -1.0, 0.7, beta]):
                H = symbol_grad_hess(fam, embed(orbit, u))[1]
                M = np.vstack([H[4], H[5], -H[1], np.zeros(6)]) @ E
                X = rng.standard_normal((4, 4))
                field = shell_rhs(orbit)(0.0, np.concatenate([u, X.ravel()]))[4:]
                ref = M @ X
                assert np.max(np.abs(field.reshape(4, 4) - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_weighted_norm_is_the_embedded_norm(self, epsilon):
        # E^T E = W^2, so ||W Y|| = ||E Y|| for every Y, one at a time or stacked
        fam = _family(0.5, epsilon, seed=3)
        rng = np.random.default_rng(12)
        for beta in (-2.5, 0.4, 1.2):
            orbit = ShellOrbit(fam, beta, 0.0)
            E, W = embed_diff(orbit), orbit.weight[:, None]
            assert np.allclose(E.T @ E, np.diag(orbit.weight**2), rtol=1e-15, atol=0.0)
            Y = rng.standard_normal((5, 4, 3))
            assert np.linalg.norm(W * Y, 2, axis=(-2, -1)) == pytest.approx(
                np.linalg.norm(E @ Y, 2, axis=(-2, -1)), rel=1e-14
            )

    def test_exact_structure_matches_full_flow(self):
        # independent oracle: the six-dimensional variational flow of the
        # full Kerr model from the embedded start, past one theta-period,
        # against the intrinsic cocycle of one direct period continued by fact 3
        params = KerrParams(1.0, 0.35)
        orbit = ShellOrbit(trapping.ReducedFamily(params), 1.7, 0.0)
        _, cocycle = periodic_cocycle(orbit, 1.5, tol=1e-12)
        H = symbol_grad_hess(orbit.family, embed(orbit, orbit.u0))[1]
        A6 = np.vstack([H[3:, :], -H[:3, :]])
        rate, bundles = orbit.chart.normal_exponent, normal_bundles(orbit)
        L = embed_diff(orbit)
        model = models.full_kerr_model(params)
        for t in (0.4, 0.9, 1.5, -0.7, -1.5):
            J6 = tangent_flow(model, embed(orbit, orbit.u0), t, tol=1e-12)
            diff = np.abs(J6 @ L - L @ cocycle(t))
            assert np.max(diff[:, :3]) < 1e-10
            # the beta column moves the saddle, so the normal flow
            # amplifies the rounding of its saddle derivative
            assert np.max(diff[:, 3]) < 1e-10 * np.linalg.norm(expm(t * A6), 2)
            bundle = np.zeros(6)
            bundle[[0, 2, 3]] = bundles[0 if t > 0 else 1]  # the (r, phi, xi) slots
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
        # |t| = 20 through the period structure; along the closed-form
        # quarter p, beta and Carter stay at their starting values
        params = KerrParams(1.0, 0.2)
        orbit = ShellOrbit(trapping.ReducedFamily(params), 1.8, 0.0)
        _, oracle = periodic_cocycle(orbit, 20.0, tol=1e-12)
        t = np.linspace(-20.0, 20.0, 41)
        assert np.max(np.abs(np.linalg.det(oracle(t)) - 1.0)) < 1e-8
        start = kerr.conserved(PhaseState.from_array(embed(orbit, orbit.u0)), params)
        for u in orbit.flow(np.linspace(0.0, orbit.quarter_time, 41))[0].T:
            now = kerr.conserved(PhaseState.from_array(embed(orbit, u)), params)
            assert abs(now.p - start.p) < 1e-12
            assert now.beta == start.beta
            assert abs(now.carter - start.carter) < 1e-12


class TestQuarterPeriod:
    """The period, monodromy and X on [0, P] rebuilt from the closed-form
    quarter period by the reflection and reversal symmetries, against one
    whole period integrated directly."""

    # D_j of fact 4: X(s) = D_j X(sigma) B_j on quarter j
    FLIPS = (np.ones(4), np.asarray([1.0, -1.0, -1.0, 1.0]),
             np.asarray([-1.0, 1.0, -1.0, 1.0]), np.asarray([-1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("spin, epsilon", [(0.5, 0.0), (0.9, 0.0), (0.5, 0.01)])
    def test_matches_full_period(self, spin, epsilon):
        fam = _family(spin, epsilon)
        lo, hi = trapping.equatorial_beta_range(0.0, fam)
        for beta in (0.8 * lo, 0.3 * lo, 0.5 * hi):
            orbit = ShellOrbit(fam, beta, 0.0)
            period, monodromy, dense = full_period_cocycle(orbit, CLI.horizon, tol=1e-12)
            assert orbit.period == pytest.approx(period, rel=1e-11)
            # the monodromy is I + N, with N v = N e_phi = 0 and the twist N b
            _, v0, b0 = (col[:, 0] for col in orbit.flow([0.0]))
            P, Phi = orbit.twist
            N, e_phi = monodromy - np.eye(4), np.asarray([0.0, 1.0, 0.0, 0.0])
            assert np.max(np.abs(N @ np.column_stack([v0, e_phi]))) < 1e-8
            assert np.max(np.abs(N @ b0 - (-P * v0 + Phi * e_phi))) < 1e-8
            # the first quarter is the direct u; on quarter j the stacks are
            # D_j W X(s) F at s = sigma, 2 t_q - sigma, 2 t_q + sigma or 4 t_q - sigma
            t_q, sigma = orbit.quarter_time, np.linspace(0.0, orbit.quarter_time, 25)
            assert np.max(np.abs(orbit.flow(sigma)[0] - dense(sigma)[:4])) < 1e-8
            stacks = orbit.frame_stacks(sigma)
            W = orbit.weight[:, None]
            F = stacks[0, 0] / W
            assert np.allclose(F.T @ F, np.eye(3), rtol=0.0, atol=1e-14)
            times = (sigma, 2.0 * t_q - sigma, 2.0 * t_q + sigma, 4.0 * t_q - sigma)
            for j, (D, s) in enumerate(zip(self.FLIPS, times)):
                direct = np.moveaxis(dense(s)[4:].reshape(4, 4, -1), -1, 0)
                assert np.max(np.abs(stacks[:, j] - D[:, None] * W * direct @ F)) < 1e-8

    def test_horizon_bounds_the_period(self):
        # certify raises InvalidHorizon when a theta-period exceeds the
        # horizon, and a horizon past every period changes no number
        fam = _family(0.5, 0.0)
        cert = trapping.certify(0.0, fam, horizon=CLI.horizon)
        longest = max(s.period for s in cert.beta_samples)
        with pytest.raises(InvalidHorizon, match="too short"):
            trapping.certify(0.0, fam, horizon=0.99 * longest)
        near = trapping.certify(0.0, fam, horizon=1.01 * longest)
        assert trapping.certificate_to_dict(near) == trapping.certificate_to_dict(cert)

    @pytest.mark.parametrize(
        "spin, epsilon, beta",
        [(0.0, 0.0, -2.0), (0.5, 0.0, -2.0), (0.9, 0.0, 1.5), (0.5, 0.01, -2.0)],
    )
    def test_envelope_sup(self, spin, epsilon, beta):
        # the envelope (a, b) is the sup over [0, P] of ||L X(s) F|| and of
        # ||L X(s) N F|| / P, that is over [0, t_q] of the largest stack norm
        # of `frame_stacks` and of `slope_norms` (fact 4)
        fam = _family(spin, epsilon)
        orbit = ShellOrbit(fam, beta, 0.0)
        sample = trapping._beta_sample(fam, beta, 0.0, CLI.horizon)
        t_q, (a, b) = orbit.quarter_time, sample.envelope

        def frame_norm(sigma):
            return np.linalg.norm(orbit.frame_stacks(sigma), 2, axis=(-2, -1)).max(axis=-1)

        for f, value in ((frame_norm, a), (orbit.slope_norms, b * orbit.period)):
            sup = trapping._envelope_sup(f, t_q)
            assert value == pytest.approx(sup, rel=1e-14, abs=0.0)
            grid = np.linspace(0.0, t_q, trapping.ENVELOPE_SAMPLES)
            values = f(grid)
            assert sup >= np.max(values)
            assert sup >= np.max(f(np.linspace(0.0, t_q, 100001))) * (1.0 - 1e-12)
            # the sup lies in the bracket of the grid argmax, where 1e5
            # points resolve it to far below 1e-12
            i = int(np.argmax(values))
            bracket = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 100001)
            assert sup == pytest.approx(np.max(f(bracket)), rel=1e-12)
        # and both are the sups of the directly integrated period
        period, monodromy, _ = full_period_cocycle(orbit, CLI.horizon, tol=1e-12)
        _, direct = periodic_cocycle(orbit, CLI.horizon, tol=1e-12)
        L, F = embed_diff(orbit), shell_frame(orbit)
        s = np.linspace(0.0, period, 100001)
        X = direct(s)
        assert a == pytest.approx(np.max(np.linalg.norm(L @ X @ F, 2, axis=(-2, -1))), rel=1e-8)
        NF = (monodromy - np.eye(4)) @ F
        slope = np.max(np.linalg.norm(L @ X @ NF, 2, axis=(-2, -1))) / period
        assert b == pytest.approx(slope, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("spin", [0.0, 0.5, 0.9])
    def test_gram_norm_is_the_two_norm(self, spin):
        # on the stacks W X(s) F that the envelope forms on its grid, the
        # root of the top Gram eigenvalue is the SVD's 2-norm, and the
        # certified a is the search run on SVD norms
        fam = _family(spin, 0.0)
        lo, hi = trapping.equatorial_beta_range(0.0, fam)
        for beta in trapping._beta_grid(lo, hi)[[0, 3]]:
            orbit = ShellOrbit(fam, float(beta), 0.0)
            A = orbit.frame_stacks(np.linspace(0.0, orbit.quarter_time, trapping.ENVELOPE_SAMPLES))
            assert A.shape == (trapping.ENVELOPE_SAMPLES, 4, 4, 3)
            gram = np.swapaxes(A, -2, -1) @ A
            np.testing.assert_allclose(
                np.sqrt(np.linalg.eigvalsh(gram)[..., -1]),
                np.linalg.norm(A, 2, axis=(-2, -1)), rtol=1e-14, atol=0.0,
            )
            svd_sup = trapping._envelope_sup(
                lambda s: np.linalg.norm(orbit.frame_stacks(s), 2, axis=(-2, -1)).max(axis=-1),
                orbit.quarter_time,
            )
            a = trapping._beta_sample(fam, float(beta), 0.0, CLI.horizon).envelope[0]
            assert a == pytest.approx(svd_sup, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mass", [1e-50, 1e50])
    def test_quarter_is_integrated_in_units_of_mass(self, mass):
        # in the units of M the orbit at a = M/2, beta = 1.2 M is the M = 1
        # orbit: the same M t_q, twist, shear and closed-form flow, where in
        # time units nothing would fit one tolerance (a period near 1e50 at
        # M = 1e-50, and d(theta)/d(alpha) near 1e-50 at M = 1e50)
        def orbit(m):
            return ShellOrbit(trapping.ReducedFamily(KerrParams(m, m / 2.0)), 1.2 * m, 0.0)

        got, want = orbit(mass), orbit(1.0)
        assert got.quarter_time == pytest.approx(want.quarter_time, rel=1e-13)
        assert got.twist == pytest.approx(want.twist, rel=1e-12)
        assert got.shear == pytest.approx(want.shear, rel=1e-12)
        sigma = np.linspace(0.0, want.quarter_time, 9)
        for g, w in zip(got.flow(sigma), want.flow(sigma)):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_envelope_sup_ends_on_long_periods(self):
        # past P ~ 1e7 the float spacing of s exceeds ENVELOPE_XTOL (at
        # M = 1e-8 the period is about 6e8), yet the refinement must end
        period = 6e8
        sup = trapping._envelope_sup(lambda s: np.cos(2.0 * np.pi * s / period - 1.0), period)
        assert sup == pytest.approx(1.0, abs=1e-12)


class TestClosedForm:
    """The closed-form shell orbit against the integrated quarter period."""

    @pytest.mark.parametrize("mass", [1e-50, 1.0, 1e50])
    @pytest.mark.parametrize("spin", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_turn_matches_integrated_quarter(self, mass, spin, epsilon):
        # t_q and phi(t_q) in the units of M, at three betas of the sample grid
        bump = models.BumpPattern(3, mass, epsilon) if epsilon else None
        fam = trapping.ReducedFamily(KerrParams(mass, spin * mass), bump=bump)
        lo, hi = trapping.equatorial_beta_range(0.0, fam)
        for beta in trapping._beta_grid(lo, hi)[[0, 2, 5]]:
            orbit = ShellOrbit(fam, float(beta), 0.0)
            t_q, dense = integrated_quarter(orbit, tol=1e-12)
            sigma = np.linspace(0.0, t_q, 9)
            assert orbit.quarter_time == pytest.approx(t_q, rel=1e-10)
            phi = orbit.flow(sigma)[0][1]
            assert phi[-1] == pytest.approx(dense(t_q)[1], rel=1e-10)
            assert phi == pytest.approx(dense(sigma)[1], rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("spin, epsilon", [(0.5, 0.0), (0.9, 0.0), (0.5, 0.01)])
    def test_twist_is_the_beta_derivative(self, spin, epsilon):
        # the complex step's (P', Phi') against central differences of the
        # closed form along the lambda shell, and d_beta u against the
        # integrated X(sigma) b
        fam = _family(spin, epsilon)
        for beta in (-2.0, 1.3):
            orbit, step = ShellOrbit(fam, beta, 0.0), 1e-5
            lo, hi = ShellOrbit(fam, beta - step, 0.0), ShellOrbit(fam, beta + step, 0.0)
            P_diff = 4.0 * (hi.quarter_time - lo.quarter_time) / (2.0 * step)
            phi_q = [o.flow([o.quarter_time])[0][1, 0] for o in (lo, hi)]
            Phi_diff = 4.0 * (phi_q[1] - phi_q[0]) / (2.0 * step)
            assert orbit.twist == pytest.approx((P_diff, Phi_diff), rel=1e-6)
            t_q, dense = integrated_quarter(orbit, tol=1e-12)
            sigma = np.linspace(0.0, t_q, 17)
            X = np.moveaxis(dense(sigma)[4:].reshape(4, 4, -1), -1, 0)
            w = orbit.flow(sigma)[2]
            assert np.max(np.abs(X @ w[:, 0] - w.T)) < 1e-9 * np.max(np.abs(w))

    @pytest.mark.parametrize("mass", [1e-50, 1.0, 1e50])
    def test_degree_reads_the_twist(self, mass):
        # a = 0 has no twist (its shear rounds below 2.3e-14, bumped or not),
        # and a = 1e-8 M shears by 2e-9 or more, so SHEAR_ROUNDING reads
        # degree 0 and 1 at every mass; the integrated test needed a > 5e-5 M
        for bump in (None, models.BumpPattern(1, mass, 0.05)):
            for spin, degree in ((0.0, 0), (1e-8, 1)):
                fam = trapping.ReducedFamily(KerrParams(mass, spin * mass), bump=bump)
                cert = trapping.certify(0.0, fam, horizon=50.0 / mass)
                degrees = [s.tangential_degree for s in cert.beta_samples]
                assert degrees == [degree] * trapping.N_BETA

    def test_no_integration(self, monkeypatch):
        # certify and perturb run no ODE solve
        from nhtrap import ode

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr(ode, "solve_ivp", forbidden)
        monkeypatch.setattr(trapping, "solve_ivp", forbidden)
        cert = trapping.certify(0.0, _family(0.9, 0.0), horizon=20.0)
        assert cert.tangential_degree == 1
        rep = trapping.perturb_and_recertify(KerrParams(1.0, 0.5), 0.0, 0.01, seed=1, horizon=20.0)
        assert rep.certificate.tangential_degree == 1


class TestCertify:
    def test_static_certificate(self):
        cert = trapping.certify(0.0, _family(0.0, 0.0), horizon=6.0)
        assert cert.theta_rate == pytest.approx(MU0, rel=1e-12)
        assert len(cert.ratio_constants) == R_MAX
        assert cert.theta0 > 0
        assert cert.tangential_degree == 0
        for s in trapping.certificate_to_dict(cert)["beta_samples"]:
            assert s["normal_exponent"] == pytest.approx(MU0, rel=1e-12)
            assert s["rate_plus"] == s["rate_minus"] == s["normal_exponent"]

    @pytest.mark.parametrize("spin", [0.5, 0.9, 0.95, 0.99])
    def test_rates_are_the_normal_exponent(self, spin):
        cert = trapping.certify(0.0, _family(spin, 0.0), horizon=5.0)
        for s in trapping.certificate_to_dict(cert)["beta_samples"]:
            assert s["rate_plus"] == s["rate_minus"] == s["normal_exponent"]

    @pytest.mark.parametrize("spin, degree", [(0.0, 0), (0.5, 1), (0.9, 1)])
    def test_tangential_degree_matches_dense_envelope(self, spin, degree):
        params = KerrParams(1.0, spin)
        fam = trapping.ReducedFamily(params)
        cert = trapping.certify(0.0, fam, horizon=5.0)
        assert cert.tangential_degree == degree
        for s in cert.beta_samples:
            assert s.tangential_degree == degree
            orbit = ShellOrbit(fam, s.chart.beta, 0.0)
            # at a = 0 the oracle's shear is integration noise, which it
            # keeps well inside the envelope's slack only at this tol
            P, cocycle = periodic_cocycle(orbit, 5.0, tol=1e-12)
            L, F = embed_diff(orbit), shell_frame(orbit)

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
            cert = trapping.certify(0.0, fam, horizon=50.0 / m)
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
        cert = trapping.certify(0.0, fam, horizon=50.0 / mass)
        assert [s.tangential_degree for s in cert.beta_samples] == [1] * trapping.N_BETA

    def test_ratio_constant_is_the_sup(self):
        t = np.linspace(0.0, 20.0, 400001)
        for r, a, b, k in ((1, 5.0, 0.0, 1.0), (2, 5.0, 0.1, 3.0), (4, 8.0, 6.0, 0.6)):
            dense = np.max((a + b * t) ** r * np.exp(-k * t))
            assert trapping._ratio_sup(r, a, b, k) == pytest.approx(dense, rel=1e-9)
        with pytest.raises(DomainError, match="overflows a float at r = 400"):
            trapping._ratio_sup(400, 1e3, 1.0, 1.0)

    def test_certificate_does_not_depend_on_horizon(self):
        docs = [
            trapping.certificate_to_dict(
                trapping.certify(0.0, _family(0.5, 0.0), horizon=horizon)
            )
            for horizon in (1.0, 50.0)
        ]
        assert docs[0] == docs[1]

    def test_bad_horizon(self):
        # 0.1 is shorter than the theta-period
        for horizon in (0.0, 0.1):
            with pytest.raises(InvalidHorizon):
                trapping.certify(0.0, _family(0.0, 0.0), horizon=horizon)

    def test_certificate_dict_schema(self):
        cert = trapping.certify(0.0, _family(0.0, 0.0), horizon=4.0)
        d = trapping.certificate_to_dict(cert)
        assert set(d) == {
            "lambda",
            "beta_samples",
            "theta_rate",
            "theta0",
            "ratio_checks",
            "tangential_degree",
            "passed",
            "reasons",
        }
        # kept for the benchmark's checks; no certificate fails without raising
        assert d["passed"] is True and d["reasons"] == []
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
        } <= set(sample)
        assert "invariance_angle" not in sample

    @pytest.mark.parametrize("spin", [0.0, 0.9])
    def test_ratio_rows_carry_only_C(self, spin):
        # theta0 and the normal slopes -theta_rate do not depend on r, so
        # the certificate holds theta0 once and a row is (r, C)
        cert = trapping.certify(0.0, _family(spin, 0.0), horizon=20.0)
        d = trapping.certificate_to_dict(cert)
        assert d["theta0"] == trapping.THETA0_FRACTION * d["theta_rate"]
        assert [set(row) for row in d["ratio_checks"]] == [{"r", "C"}] * R_MAX
        assert [row["r"] for row in d["ratio_checks"]] == list(range(1, R_MAX + 1))


class TestPerturbation:
    def test_epsilon_bound(self):
        with pytest.raises(DomainError):
            trapping.perturb_and_recertify(KerrParams(), 0.0, 0.2, seed=1, horizon=CLI.horizon)

    def test_small_perturbation_certificate(self):
        rep = trapping.perturb_and_recertify(KerrParams(), 0.0, 0.005, seed=3, horizon=5.0)
        assert rep.certificate.tangential_degree == 0
        assert rep.displacement <= 5.0 * 0.005
        assert rep.exponent_shift <= 0.05
        assert rep.displacement_factor == pytest.approx(rep.displacement / 0.005)

    @pytest.mark.parametrize("mass", [0.1, 10.0])
    def test_mass_scaling(self, mass):
        # the bump scales with the symbol, and the displacement is measured
        # in (r/M, xi), so neither reported ratio depends on M
        def ratios(m):
            rep = trapping.perturb_and_recertify(
                KerrParams(m, m / 2.0), 0.0, 0.01, seed=1, horizon=20.0 / m
            )
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
        rep = trapping.perturb_and_recertify(KerrParams(1.0, 0.5), 0.0, 0.01, seed=1, horizon=20.0)
        assert len(searches) == 1
        assert compared == {s.chart.beta for s in rep.certificate.beta_samples}

    def test_zero_perturbation_is_identity(self):
        rep = trapping.perturb_and_recertify(KerrParams(), 0.0, 0.0, seed=9, horizon=4.0)
        assert rep.displacement == pytest.approx(0.0, abs=1e-10)
        assert rep.exponent_shift == pytest.approx(0.0, abs=1e-10)
