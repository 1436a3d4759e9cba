"""Model-wrapper tests: closed forms, stencil oracles, perturbation bounds."""

import numpy as np
import pytest
from oracles import bump_loop, toy_barrier_model

from nhtrap import kerr, models, trapping
from nhtrap.kerr import KerrParams


def fd_gradient(f, y, h=1e-6):
    out = np.zeros(len(y))
    for i in range(len(y)):
        e = np.zeros(len(y))
        e[i] = h
        out[i] = (f(y + e) - f(y - e)) / (2.0 * h)
    return out


def check_model_consistency(model, points, tol=2e-5):
    for y in points:
        g = model.gradient(y)
        fd = fd_gradient(model.evaluate, y)
        scale = 1.0 + np.max(np.abs(g))
        assert np.max(np.abs(g - fd)) < tol * scale
        H = model.hessian(y)
        assert np.max(np.abs(H - H.T)) < 1e-10 * (1.0 + np.max(np.abs(H)))
        h = 1e-6
        for i in range(len(y)):
            e = np.zeros(len(y))
            e[i] = h
            col = (model.gradient(y + e) - model.gradient(y - e)) / (2 * h)
            assert np.max(np.abs(col - H[:, i])) < tol * (
                1.0 + np.max(np.abs(H))
            )


class TestToyModel:
    def test_closed_forms(self):
        m = toy_barrier_model()
        y = np.asarray([1.5, -0.7])
        assert m.evaluate(y) == pytest.approx((-0.7) ** 2 - 1.5**2, abs=1e-14)
        assert np.allclose(m.gradient(y), [-3.0, -1.4], atol=1e-14)
        assert np.allclose(m.hessian(y), [[-2.0, 0.0], [0.0, 2.0]], atol=1e-14)
        assert np.allclose(m.hamilton_rhs(y), [-1.4, 3.0], atol=1e-14)


class TestRadialPotential:
    def test_static_frozen_values(self):
        p = KerrParams()
        v, v1, v2, v3 = kerr.radial_potential_derivs(p, 0.0, 3.0)
        assert v == pytest.approx(-27.0, abs=1e-12)
        assert v1 == pytest.approx(0.0, abs=1e-12)
        assert v2 == pytest.approx(-18.0, abs=1e-12)
        assert kerr.radial_terms(p, 0.0, 4.0)[0] == pytest.approx(
            -32.0, abs=1e-12
        )

    def test_mass_scaling(self):
        p = KerrParams(mass=2.0)
        assert kerr.radial_terms(p, 0.0, 8.0)[0] == pytest.approx(
            -32.0 * 4.0, abs=1e-10
        )
        v, v1, v2, _ = kerr.radial_potential_derivs(p, 0.0, 6.0)
        assert v == pytest.approx(-27.0 * 4.0, abs=1e-10)
        assert v1 == pytest.approx(0.0, abs=1e-11)

    def test_derivative_chain_stencils(self):
        rng = np.random.default_rng(5)
        for spin in (0.0, 0.4, 0.8):
            p = KerrParams(1.0, spin)
            rs = rng.uniform(2.4, 7.0, 12)
            betas = rng.uniform(-5.0, 5.0, 12)
            h = 1e-5
            for r, b in zip(rs, betas):
                v0, v1, v2, v3 = kerr.radial_potential_derivs(p, b, r)
                fd1 = (
                    kerr.radial_terms(p, b, r + h)[0]
                    - kerr.radial_terms(p, b, r - h)[0]
                ) / (2 * h)
                fd2 = (
                    kerr.radial_potential_derivs(p, b, r + h)[1]
                    - kerr.radial_potential_derivs(p, b, r - h)[1]
                ) / (2 * h)
                fd3 = (
                    kerr.radial_potential_derivs(p, b, r + h)[2]
                    - kerr.radial_potential_derivs(p, b, r - h)[2]
                ) / (2 * h)
                scale = 1.0 + abs(v1) + abs(v2) + abs(v3)
                assert abs(fd1 - v1) < 1e-5 * scale
                assert abs(fd2 - v2) < 1e-5 * scale
                assert abs(fd3 - v3) < 1e-4 * scale


class TestReducedModel:
    def test_consistency(self):
        rng = np.random.default_rng(17)
        for spin, beta in ((0.0, 0.0), (0.3, 2.0), (0.6, -3.0)):
            m = models.reduced_kerr_model(KerrParams(1.0, spin), beta)
            pts = np.column_stack(
                [rng.uniform(2.5, 6.0, 8), rng.uniform(-1.0, 1.0, 8)]
            )
            check_model_consistency(m, pts)


class TestThirdDerivatives:
    """The closed-form third-derivative tensors and the batched calls."""

    def test_toy_third_is_zero(self):
        m = toy_barrier_model()
        assert np.array_equal(m.third(np.asarray([1.5, -0.7])), np.zeros((2, 2, 2)))
        assert np.array_equal(m.third(np.ones((2, 4, 3))), np.zeros((2, 2, 2, 4, 3)))

    @pytest.mark.parametrize("spin", [0.0, 0.5, 0.9])
    def test_reduced_kerr_matches_sympy(self, spin):
        # the reduced symbol at three betas, and the scaled kerr_equatorial
        # barrier (Delta^2/r^4) xi^2 + (v_beta + (beta - a)^2) Delta/r^4 at
        # the prograde beta*
        sp = pytest.importorskip("sympy")
        import mpmath

        r, xi, be = sp.symbols("r xi beta", real=True)
        a = sp.nsimplify(spin)
        dl = r**2 - 2 * r + a**2
        v_beta = 2 * a * be - (a**2 * be**2 + 4 * a * r * be + (r**2 + a**2) ** 2) / dl
        reduced = dl * xi**2 + v_beta
        scaled = dl**2 / r**4 * xi**2 + (v_beta + (be - a) ** 2) * dl / r**4
        params = KerrParams(1.0, spin)
        cases = [(reduced, b, models.reduced_kerr_model(params, b)) for b in (0.0, 2.0, -2.0)]
        barrier = kerr.barrier("kerr_equatorial", params)
        cases.append(
            (scaled, kerr.prograde_orbit(params)[1], models.barrier_model(barrier.terms, None))
        )
        rng = np.random.default_rng(29)
        r_lo = kerr.horizon_radius(params) + 0.2
        ys = np.stack(
            [
                rng.uniform(r_lo, 8.0, 5),
                rng.uniform(0.2, 1.5, 5) * rng.choice([-1.0, 1.0], 5),
            ]
        )
        for p, beta, m in cases:
            coords = (r, xi)
            tensor = [
                [[sp.diff(p, ci, cj, ck) for ck in coords] for cj in coords]
                for ci in coords
            ]
            exact = sp.lambdify((r, xi, be), tensor, modules="mpmath")
            got = m.third(ys)
            for n in range(ys.shape[1]):
                with mpmath.workdps(30):
                    ref = np.asarray(
                        exact(*[mpmath.mpf(float(v)) for v in (*ys[:, n], beta)]),
                        dtype=float,
                    )
                assert np.max(np.abs(got[..., n] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "kind, spin",
        [("toy_sech2", 0.0), ("schw_radial", 0.7), ("kerr_equatorial", 0.5),
         ("kerr_equatorial", 0.99)],
    )
    def test_barrier_terms_match_sympy(self, kind, spin):
        # every term of kerr.barrier, (m, m', m'', m''') and (v, ..., v'''),
        # against sympy's derivatives of the quotient form of m and v.  The
        # barrier's cubic in u = r*/r divides by no Delta, so the terms keep
        # their digits next to the horizon too: at a = 0.99 on the domain's
        # inner edge the worst is 6.4e-15 relative
        sp = pytest.importorskip("sympy")
        import mpmath

        x, be = sp.symbols("x beta", real=True)
        params = KerrParams(1.0, spin)
        barrier = kerr.barrier(kind, params)
        if kind == "toy_sech2":
            m_expr, v_expr, beta = sp.Integer(1), sp.sech(x) ** 2 - 1, 0.0
        else:
            a = sp.nsimplify(spin if kind == "kerr_equatorial" else 0.0)
            dl = x**2 - 2 * x + a**2
            n = a**2 * be**2 + 4 * a * x * be + (x**2 + a**2) ** 2
            m_expr = dl**2 / x**4
            v_expr = (2 * a * be - n / dl + (be - a) ** 2) * dl / x**4
            beta = kerr.prograde_orbit(KerrParams(1.0, float(a)))[1]
        exact = sp.lambdify(
            (x, be), [sp.diff(f, x, k) for f in (m_expr, v_expr) for k in range(4)],
            modules="mpmath",
        )
        lo, hi = barrier.domain
        xs = np.linspace(lo, hi, 7)
        got = np.asarray([np.broadcast_to(t, xs.shape) for t in sum(barrier.terms(xs), ())])
        for i, point in enumerate(xs):
            with mpmath.workdps(30):
                ref = np.asarray(exact(mpmath.mpf(point), mpmath.mpf(beta)), dtype=float)
            assert np.all(np.abs(got[:, i] - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize(
        "kind, spin",
        [("toy_sech2", 0.0), ("schw_radial", 0.7), ("kerr_equatorial", 0.5),
         ("kerr_equatorial", 0.99)],
    )
    def test_barrier_terms_complex_step(self, kind, spin):
        # the terms take complex x: Im f(x + i*eps)/eps is f'(x) to rounding
        barrier = kerr.barrier(kind, KerrParams(1.0, spin))
        xs = np.linspace(*barrier.domain, 7)
        eps = 1e-20
        for exact, stepped in zip(barrier.terms(xs), barrier.terms(xs + 1j * eps)):
            for k in range(3):
                slope = np.imag(stepped[k]) / eps
                ref = np.broadcast_to(exact[k + 1], xs.shape)
                assert np.all(np.abs(slope - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_batched_matches_pointwise(self):
        rng = np.random.default_rng(31)
        ys = np.stack([rng.uniform(2.5, 6.0, 7), rng.uniform(-1.0, 1.0, 7)])
        for m in (
            toy_barrier_model(),
            models.reduced_kerr_model(KerrParams(1.0, 0.5), 2.0),
            models.barrier_model(kerr.barrier("kerr_equatorial", KerrParams()).terms, None),
            models.barrier_model(kerr.barrier("toy_sech2", KerrParams()).terms, None),
        ):
            for f in (m.gradient, m.hessian, m.third):
                batched = f(ys)
                for n in range(ys.shape[1]):
                    assert np.array_equal(batched[..., n], f(ys[:, n]))

    def test_third_absent_without_closed_form(self):
        bump = models.BumpPattern(3, 1.0, 0.01)
        bumped = models.reduced_kerr_model(KerrParams(), 0.0, bump=bump)
        assert bumped.third is None
        assert models.full_kerr_model(KerrParams()).third is None


class TestNewtonSaddle:
    @pytest.mark.parametrize("spin", [0.0, 0.5, 0.9])
    def test_reduced_kerr_saddle(self, spin):
        # from the static radius 3M to the spinning saddle at beta = 0
        params = KerrParams(mass=1.0, spin=spin)
        model = models.reduced_kerr_model(params, beta=0.0)
        r_s, xi_s = models.newton_saddle(model.gradient, model.hessian, (3.0, 0.0))
        assert xi_s == 0.0
        assert r_s == pytest.approx(trapping.trapped_radius(0.0, params), abs=1e-13)
        assert np.max(np.abs(model.gradient(np.array([r_s, xi_s])))) < 1e-13

    def test_damping_recovers_from_overshoot(self):
        # p = xi^2 - (x atan x - log(1 + x^2)/2) has grad (-atan x, 2 xi);
        # undamped Newton from x = 2 overshoots to ever larger |x|
        def gradient(y):
            return np.array([-np.arctan(y[0]), 2.0 * y[1]])

        def hessian(y):
            return np.array([[-1.0 / (1.0 + y[0] ** 2), 0.0], [0.0, 2.0]])

        x, xi = models.newton_saddle(gradient, hessian, (2.0, 0.3))
        assert abs(x) < 1e-15 and abs(xi) < 1e-15


class TestFullModel:
    def test_consistency(self):
        rng = np.random.default_rng(23)
        for spin in (0.0, 0.5):
            m = models.full_kerr_model(KerrParams(1.0, spin))
            pts = np.column_stack(
                [
                    rng.uniform(2.6, 6.0, 6),
                    rng.uniform(0.6, np.pi - 0.6, 6),
                    rng.uniform(0, 2 * np.pi, 6),
                    rng.uniform(-1, 1, 6),
                    rng.uniform(-3, 3, 6),
                    rng.uniform(-4, 4, 6),
                ]
            )
            check_model_consistency(m, pts)

    def test_chart_margin_sign(self):
        m = models.full_kerr_model(KerrParams())
        inside = np.asarray([3.0, np.pi / 2, 0.0, 0.0, 0.0, 0.0])
        outside = np.asarray([2.0, np.pi / 2, 0.0, 0.0, 0.0, 0.0])
        assert m.chart_margin(inside) > 0.0
        assert m.chart_margin(outside) <= 0.0


class TestBumpPattern:
    def test_support_and_normalization(self):
        b = models.BumpPattern(4, 1.0, 1.0)
        # bump centers sit within 0.7*span of the center, widths below
        # 0.9*span, so the support ends inside the 1.6*span box
        assert b.value(3.0 + 1.2, 0.0) == 0.0
        assert b.value(3.0 - 1.2, 0.0) == 0.0
        assert b.value(3.0, 1.2) == 0.0
        xs = np.linspace(3.0 - 1.2, 3.0 + 1.2, 161)
        ys = np.linspace(-1.2, 1.2, 161)
        vals = np.abs(b.value(xs[:, None], ys[None, :]))
        assert float(np.max(vals)) <= 1.0 + 1e-12
        assert float(np.max(vals)) > 0.8  # sup-normalized

    @pytest.mark.parametrize("seed", [1, 4, 12])
    def test_polished_peak(self, seed):
        b = models.BumpPattern(seed, 1.0, 1.0)
        x, y = b.peak_point
        assert np.max(np.abs(b.gradient(x, y))) < 1e-12
        assert abs(b.value(x, y)) == pytest.approx(1.0, abs=1e-15)
        xs = np.linspace(3.0 - 1.2, 3.0 + 1.2, 801)
        ys = np.linspace(-1.2, 1.2, 801)
        assert float(np.max(np.abs(b.value(xs[:, None], ys[None, :])))) <= 1.0 + 1e-12

    def test_seed_determinism(self):
        b1 = models.BumpPattern(12, 1.0, 1.0)
        b2 = models.BumpPattern(12, 1.0, 1.0)
        b3 = models.BumpPattern(13, 1.0, 1.0)
        assert b1.value(3.1, 0.05) == b2.value(3.1, 0.05)
        assert b1.value(3.1, 0.05) != b3.value(3.1, 0.05)

    @pytest.mark.parametrize("mass", [0.1, 10.0])
    def test_mass_scaling(self, mass):
        # stretched by M along r only, and size * M^2 times as tall
        unit = models.BumpPattern(5, 1.0, 1.0)
        rng = np.random.default_rng(5)
        r, xi = rng.uniform(1.8, 4.2, 50), rng.uniform(-1.2, 1.2, 50)
        for size in (1.0, 0.01):
            scaled = models.BumpPattern(5, mass, size)
            np.testing.assert_allclose(
                scaled.value(mass * r, xi), size * mass**2 * unit.value(r, xi),
                rtol=1e-12, atol=1e-14 * mass**2,
            )

    @pytest.mark.parametrize("mass", [0.1, 1.0, 100.0])
    def test_one_pass_is_the_per_bump_sum(self, mass):
        # all bumps in one pass, summed in the order of the per-bump loop:
        # within one unit in the last place of it on the normalization grid
        # and at single points (the peak, a grid point, the grid's corner)
        for seed in range(6):
            b = models.BumpPattern(seed, mass, 0.01)
            xs, ys = (
                np.linspace(c - 2 * models.BUMP_SPAN, c + 2 * models.BUMP_SPAN, 201) * k
                for c, k in zip(models.BUMP_CENTER, (mass, 1.0))
            )
            points = [(xs[:, None], ys[None, :]), tuple(b.peak_point),
                      (float(xs[90]), float(ys[110])), (xs[0], ys[200])]
            for x, y in points:
                value, grad, hess = bump_loop(b, x, y)
                got = (b.value(x, y), *b.gradient(x, y), *b.hessian(x, y))
                for one, loop in zip(got, (value, *grad, *hess)):
                    assert np.shape(one) == np.shape(loop)
                    assert np.all(np.abs(one - loop) <= np.spacing(np.abs(loop)))

    def test_gradient_hessian_stencils(self):
        b = models.BumpPattern(8, 1.0, 1.0)
        h = 1e-6
        for x, y in ((3.05, 0.02), (2.9, -0.1), (3.2, 0.15)):
            gx, gy = b.gradient(x, y)
            fx = (b.value(x + h, y) - b.value(x - h, y)) / (2 * h)
            fy = (b.value(x, y + h) - b.value(x, y - h)) / (2 * h)
            assert abs(gx - fx) < 2e-5 * (1 + abs(gx))
            assert abs(gy - fy) < 2e-5 * (1 + abs(gy))
            hxx, hxy, hyy = b.hessian(x, y)
            fxx = (b.gradient(x + h, y)[0] - b.gradient(x - h, y)[0]) / (2 * h)
            fxy = (b.gradient(x, y + h)[0] - b.gradient(x, y - h)[0]) / (2 * h)
            fyy = (b.gradient(x, y + h)[1] - b.gradient(x, y - h)[1]) / (2 * h)
            scale = 1 + abs(hxx) + abs(hyy)
            assert abs(hxx - fxx) < 5e-5 * scale
            assert abs(hxy - fxy) < 5e-5 * scale
            assert abs(hyy - fyy) < 5e-5 * scale


class TestPerturbedModel:
    """Reduced model plus the seeded bump that perturb_and_recertify adds."""

    @staticmethod
    def perturbed(beta, epsilon, seed):
        bump = models.BumpPattern(seed, 1.0, epsilon)
        return models.reduced_kerr_model(KerrParams(), beta, bump=bump)

    def test_reduces_to_base_at_zero(self):
        base = models.reduced_kerr_model(KerrParams(), 1.0)
        pert = self.perturbed(1.0, 0.0, seed=1)
        y = np.asarray([3.1, 0.1])
        assert pert.evaluate(y) == pytest.approx(base.evaluate(y), abs=1e-14)
        assert np.array_equal(pert.gradient(y), base.gradient(y))
        assert np.array_equal(pert.hessian(y), base.hessian(y))

    def test_perturbation_size(self):
        eps = 0.03
        base = models.reduced_kerr_model(KerrParams(), 1.0)
        pert = self.perturbed(1.0, eps, seed=2)
        ys = np.column_stack(
            [np.linspace(2.8, 3.2, 15), np.linspace(-0.2, 0.2, 15)]
        )
        diffs = [abs(pert.evaluate(y) - base.evaluate(y)) for y in ys]
        assert max(diffs) <= eps + 1e-12
        assert max(diffs) > 0.0
