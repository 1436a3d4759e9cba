"""Trapped-set location, linearization, and certification tests."""

import math

import numpy as np
import pytest
from oracles import tangent_flow
from scipy.linalg import expm

from nhtrap import kerr, models, trapping
from nhtrap.errors import (
    DomainError,
    InvalidHorizon,
    NoBracket,
)
from nhtrap.kerr import KerrParams, PhaseState

SQRT27 = math.sqrt(27.0)
MU0 = 6.0 * math.sqrt(3.0)


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
        for a, beta in cases:
            p = KerrParams(1.0, a)
            r0 = trapping.trapped_radius(beta, p)
            _, v1, v2, _ = radial_potential_derivs(p, beta, r0)
            assert abs(v1) < 1e-10
            assert v2 < 0.0

    def test_corotating_counterrotating_split(self):
        p = KerrParams(1.0, 0.5)
        r_plus = trapping.trapped_radius(4.0, p)
        r_minus = trapping.trapped_radius(-4.0, p)
        assert r_plus > 3.0 > r_minus

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            trapping.trapped_radius(0.0, KerrParams(), r_hi=2.5)


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
        lo, hi = trapping.equatorial_beta_range(0.0, KerrParams())
        assert hi == pytest.approx(SQRT27, abs=1e-10)
        assert lo == pytest.approx(-SQRT27, abs=1e-10)
        lo5, hi5 = trapping.equatorial_beta_range(5.0, KerrParams())
        assert hi5 == pytest.approx(math.sqrt(32.0), abs=1e-10)

    def test_spin_breaks_symmetry(self):
        lo, hi = trapping.equatorial_beta_range(0.0, KerrParams(1.0, 0.4))
        assert abs(hi) != pytest.approx(abs(lo), abs=1e-3)

    def test_orbit_on_shell(self):
        fam = trapping.ReducedFamily(KerrParams(1.0, 0.2))
        orbit = trapping.ShellOrbit(fam, 1.5, 0.0)
        assert fam.value6(orbit.embed(orbit.u0)) == pytest.approx(
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
            g = fam.grad6(orbit.embed(u))
            assert abs(g[3]) < 1e-10  # r-dot = dp/dxi
            # xi-dot = -dp/dr varies with theta only through terms that
            # vanish at the saddle radius
            u_eq = u.copy()
            u_eq[0] = np.pi / 2
            g_eq = fam.grad6(orbit.embed(u_eq))
            assert abs(g_eq[0]) < 1e-9

    def test_exact_structure_matches_full_flow(self):
        # independent oracle: the six-dimensional variational flow of the
        # full Kerr model from the embedded start, past one theta-period
        params = KerrParams(1.0, 0.35)
        orbit = trapping.ShellOrbit(trapping.ReducedFamily(params), 1.7, 0.0)
        cocycle = orbit.tangent_cocycle(1.5, tol=1e-12)
        A6 = orbit.blocks(orbit.u0)[1]
        (rate_plus, e_plus), (rate_minus, e_minus) = orbit.normal_bundles()
        L = orbit.embed_diff
        model = models.full_kerr_model(params)
        for t in (0.4, 0.9, 1.5, -0.7, -1.5):
            J6 = tangent_flow(model, orbit.embed(orbit.u0), t, tol=1e-12)
            diff = np.abs(J6 @ L - L @ cocycle(t))
            assert np.max(diff[:, :3]) < 1e-10
            # the beta column moves the saddle, so the normal flow
            # amplifies the rounding of its saddle derivative
            assert np.max(diff[:, 3]) < 1e-10 * np.linalg.norm(expm(t * A6), 2)
            rate, bundle = (rate_plus, e_plus) if t > 0 else (rate_minus, e_minus)
            assert math.log(np.linalg.norm(J6 @ bundle)) == pytest.approx(
                rate * abs(t), abs=1e-9
            )

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_saddle_derivative_matches_difference_quotient(self, epsilon):
        bump = models.BumpPattern(3, (3.0, 0.0), span=0.6)
        fam = trapping.ReducedFamily(KerrParams(1.0, 0.5), bump=bump, epsilon=epsilon)
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
        start = kerr.conserved(PhaseState.from_array(orbit.embed(orbit.u0)), params)
        for s in np.linspace(0.0, cocycle.period, 41):
            u = cocycle.one_period(s)[:4]
            now = kerr.conserved(PhaseState.from_array(orbit.embed(u)), params)
            assert abs(now.p - start.p) < 1e-10
            assert now.beta == start.beta
            assert abs(now.carter - start.carter) < 1e-10


class TestCertify:
    def test_static_certificate(self):
        cert = trapping.certify(0.0, KerrParams(), horizon=6.0, n_beta=3)
        assert cert.passed
        assert cert.reasons == []
        assert cert.theta_rate == pytest.approx(MU0, rel=1e-12)
        assert len(cert.ratio_checks) == trapping.RNORM_DEFAULT
        assert all(c.passed for c in cert.ratio_checks)
        assert all(c.theta0 > 0 for c in cert.ratio_checks)
        assert cert.tangential_degree == 0
        for s in cert.beta_samples:
            assert s.rate_plus == pytest.approx(MU0, rel=1e-12)
            assert s.rate_minus == pytest.approx(MU0, rel=1e-12)
            assert s.invariance_angle <= trapping.INVARIANCE_ANGLE_MAX

    @pytest.mark.parametrize("spin", [0.5, 0.9, 0.95, 0.99])
    def test_rates_are_the_normal_exponent(self, spin):
        cert = trapping.certify(0.0, KerrParams(1.0, spin), horizon=5.0, n_beta=3)
        assert cert.passed, cert.reasons
        for s in cert.beta_samples:
            assert s.rate_plus == pytest.approx(s.chart.normal_exponent, rel=1e-12)
            assert s.rate_minus == pytest.approx(s.chart.normal_exponent, rel=1e-12)

    @pytest.mark.parametrize("spin, degree", [(0.0, 0), (0.5, 1), (0.9, 1)])
    def test_tangential_degree_matches_dense_envelope(self, spin, degree):
        params = KerrParams(1.0, spin)
        cert = trapping.certify(0.0, params, horizon=5.0, n_beta=3)
        assert cert.tangential_degree == degree
        fam = trapping.ReducedFamily(params)
        for s in cert.beta_samples:
            assert s.tangential_degree == degree
            orbit = trapping.ShellOrbit(fam, s.chart.beta, 0.0)
            cocycle = orbit.tangent_cocycle(5.0)
            L, F, P = orbit.embed_diff, orbit.tangential_frame(), cocycle.period

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

    def test_ratio_constant_is_the_sup(self):
        t = np.linspace(0.0, 20.0, 400001)
        for r, a, b, k in ((1, 5.0, 0.0, 1.0), (2, 5.0, 0.1, 3.0), (4, 8.0, 6.0, 0.6)):
            dense = np.max((a + b * t) ** r * np.exp(-k * t))
            assert trapping._ratio_sup(r, a, b, k) == pytest.approx(dense, rel=1e-9)

    def test_certificate_does_not_depend_on_horizon(self):
        params = KerrParams(1.0, 0.5)
        docs = [
            trapping.certificate_to_dict(
                trapping.certify(0.0, params, horizon=horizon, n_beta=2)
            )
            for horizon in (1.0, 50.0)
        ]
        assert docs[0] == docs[1]

    def test_bad_horizon(self):
        # 0.1 is shorter than the theta-period
        for horizon in (0.0, 0.1):
            with pytest.raises(InvalidHorizon):
                trapping.certify(0.0, KerrParams(), horizon=horizon)

    def test_certificate_dict_schema(self):
        cert = trapping.certify(0.0, KerrParams(), horizon=4.0, n_beta=2)
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
            trapping.perturb_and_recertify(KerrParams(), 0.0, 0.2, seed=1)

    def test_small_perturbation_certificate(self):
        rep = trapping.perturb_and_recertify(
            KerrParams(), 0.0, 0.005, seed=3, horizon=5.0, n_beta=3
        )
        assert rep.certificate.passed
        assert rep.displacement <= 5.0 * rep.epsilon
        assert rep.exponent_shift <= 0.05
        assert rep.displacement_factor == pytest.approx(
            rep.displacement / rep.epsilon
        )

    def test_zero_perturbation_is_identity(self):
        rep = trapping.perturb_and_recertify(
            KerrParams(), 0.0, 0.0, seed=9, horizon=4.0, n_beta=2
        )
        assert rep.displacement == pytest.approx(0.0, abs=1e-10)
        assert rep.exponent_shift == pytest.approx(0.0, abs=1e-10)
