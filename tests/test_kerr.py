"""Geometry/symbol unit tests: frozen values, stencil oracles, invariants."""

import math

import numpy as np
import pytest

from nhtrap import kerr, models
from nhtrap.errors import DomainError
from nhtrap.kerr import ConservedTriple, KerrParams, PhaseState


def fd_gradient(f, y, h=1e-6):
    out = np.zeros(len(y))
    for i in range(len(y)):
        e = np.zeros(len(y))
        e[i] = h
        out[i] = (f(y + e) - f(y - e)) / (2.0 * h)
    return out


def random_states(rng, n, r_lo=2.3, r_hi=8.0):
    r = rng.uniform(r_lo, r_hi, n)
    th = rng.uniform(0.4, np.pi - 0.4, n)
    ph = rng.uniform(0.0, 2 * np.pi, n)
    xi = rng.uniform(-1.5, 1.5, n)
    al = rng.uniform(-4.0, 4.0, n)
    be = rng.uniform(-5.0, 5.0, n)
    return np.column_stack([r, th, ph, xi, al, be])


class TestParams:
    def test_subextremal_required(self):
        with pytest.raises(DomainError):
            KerrParams(1.0, 1.0)
        with pytest.raises(DomainError):
            KerrParams(1.0, -0.1)
        with pytest.raises(DomainError):
            KerrParams(0.0, 0.0)

    def test_horizon(self):
        assert kerr.horizon_radius(KerrParams()) == pytest.approx(2.0, abs=1e-14)
        p = KerrParams(1.0, 0.6)
        assert kerr.horizon_radius(p) == pytest.approx(1.8, abs=1e-14)
        assert kerr.delta(p, kerr.horizon_radius(p)) == pytest.approx(0.0, abs=1e-13)


class TestSymbol:
    def test_frozen_values_static(self):
        p = KerrParams()
        s_crit = PhaseState(3.0, np.pi / 2, 0.0, 0.0, 0.0, math.sqrt(27.0))
        assert kerr.symbol_p(s_crit, p) == pytest.approx(0.0, abs=1e-12)
        s_zero = PhaseState(3.0, np.pi / 2, 0.0, 0.0, 0.0, 0.0)
        assert kerr.symbol_p(s_zero, p) == pytest.approx(-27.0, abs=1e-12)

    def test_inside_horizon_rejected(self):
        p = KerrParams()
        with pytest.raises(DomainError):
            kerr.symbol_p(PhaseState(1.9, 1.0, 0.0, 0.0, 0.0, 0.0), p)

    def test_gradient_matches_stencil(self):
        rng = np.random.default_rng(42)
        for spin in (0.0, 0.3, 0.7):
            p = KerrParams(1.0, spin)
            for y in random_states(rng, 40):
                g = np.asarray(
                    kerr._grad_p(p, y[0], y[1], y[3], y[4], y[5]), dtype=float
                )
                fd = fd_gradient(
                    lambda v: float(kerr.symbol_p(PhaseState(*v), p)),
                    y,
                )
                scale = 1.0 + np.max(np.abs(g))
                assert np.max(np.abs(g - fd)) < 1e-6 * scale

    def test_gradient_broadcasts(self):
        p = KerrParams(1.0, 0.4)
        rng = np.random.default_rng(3)
        ys = random_states(rng, 25)
        g_vec = kerr._grad_p(p, ys[:, 0], ys[:, 1], ys[:, 3], ys[:, 4], ys[:, 5])
        for i in range(25):
            g_i = kerr._grad_p(
                p, ys[i, 0], ys[i, 1], ys[i, 3], ys[i, 4], ys[i, 5]
            )
            for k in range(6):
                assert np.asarray(g_vec[k]).flat[i] == pytest.approx(
                    float(g_i[k]), abs=1e-13, rel=1e-13
                )


class TestHessian:
    def test_symmetry(self):
        rng = np.random.default_rng(7)
        p = KerrParams(1.0, 0.5)
        for y in random_states(rng, 20):
            H = kerr.hessian_p(PhaseState.from_array(y), p)
            assert np.max(np.abs(H - H.T)) == 0.0

    def test_matches_gradient_stencil(self):
        rng = np.random.default_rng(8)
        for spin in (0.0, 0.45):
            p = KerrParams(1.0, spin)
            for y in random_states(rng, 15):
                H = kerr.hessian_p(PhaseState.from_array(y), p)
                h = 1e-6
                for i in range(6):
                    e = np.zeros(6)
                    e[i] = h
                    yp, ym = y + e, y - e
                    gp = np.asarray(
                        kerr._grad_p(p, yp[0], yp[1], yp[3], yp[4], yp[5]),
                        dtype=float,
                    )
                    gm = np.asarray(
                        kerr._grad_p(p, ym[0], ym[1], ym[3], ym[4], ym[5]),
                        dtype=float,
                    )
                    col = (gp - gm) / (2.0 * h)
                    scale = 1.0 + np.max(np.abs(H))
                    assert np.max(np.abs(col - H[:, i])) < 2e-5 * scale

    def test_fused_path_consistent(self):
        rng = np.random.default_rng(9)
        p = KerrParams(1.0, 0.3)
        for y in random_states(rng, 20):
            g_ref = np.asarray(
                kerr._grad_p(p, y[0], y[1], y[3], y[4], y[5]), dtype=float
            )
            H_ref = kerr.hessian_p(PhaseState.from_array(y), p)
            g, H = kerr.grad_hess_raw(p, y[0], y[1], y[3], y[4], y[5])
            assert np.max(np.abs(g - g_ref)) < 1e-12 * (1 + np.max(np.abs(g_ref)))
            assert np.max(np.abs(H - H_ref)) < 1e-12 * (1 + np.max(np.abs(H_ref)))


class TestSympyOracle:
    """Exact derivatives of the docstring formulas, evaluated at 30 digits."""

    @staticmethod
    def symbols():
        sp = pytest.importorskip("sympy")
        names = sp.symbols("r theta phi xi alpha beta M a", real=True)
        r, _, _, _, _, _, m, a = names
        return sp, names, r**2 - 2 * m * r + a**2

    @staticmethod
    def evaluate(sp, args, exprs, rows):
        import mpmath

        f = sp.lambdify(args, exprs, modules="mpmath")
        with mpmath.workdps(30):
            return [
                np.asarray(f(*[mpmath.mpf(float(v)) for v in row]), dtype=float)
                for row in rows
            ]

    def test_gradient_and_hessian(self):
        sp, names, dl = self.symbols()
        r, th, ph, xi, al, be, m, a = names
        s2 = sp.sin(th) ** 2
        p = (
            dl * xi**2
            + al**2
            + (1 / s2 - a**2 / dl) * be**2
            - (4 * m * a * r / dl) * be
            - ((r**2 + a**2) ** 2 / dl - a**2 * s2)
        )
        coords = (r, th, ph, xi, al, be)
        grad = [sp.diff(p, x) for x in coords]
        hess = [[sp.diff(gi, x) for x in coords] for gi in grad]
        rng = np.random.default_rng(12)
        rows = []
        for spin in rng.uniform(0.0, 0.95, 60):
            r_lo = kerr.horizon_radius(KerrParams(1.0, spin)) + 0.1
            rows.append([*random_states(rng, 1, r_lo=r_lo)[0], 1.0, spin])
        g_ref = self.evaluate(sp, names, grad, rows)
        h_ref = self.evaluate(sp, names, hess, rows)
        for y, g_exact, h_exact in zip(rows, g_ref, h_ref):
            g, H = kerr.grad_hess_raw(
                KerrParams(1.0, y[7]), y[0], y[1], y[3], y[4], y[5]
            )
            assert np.max(np.abs(g - g_exact)) <= 1e-12 * np.max(np.abs(g_exact))
            assert np.max(np.abs(H - h_exact)) <= 1e-12 * np.max(np.abs(h_exact))

    def test_radial_potential_derivatives(self):
        sp, names, dl = self.symbols()
        r, be, m, a = names[0], names[5], names[6], names[7]
        v = 2 * a * be - (
            a**2 * be**2 + 4 * m * a * r * be + (r**2 + a**2) ** 2
        ) / dl
        exprs = [v] + [sp.diff(v, r, k) for k in (1, 2, 3)]
        rng = np.random.default_rng(13)
        rows = []
        for spin in rng.uniform(0.0, 0.95, 100):
            r_lo = kerr.horizon_radius(KerrParams(1.0, spin)) + 0.05
            rows.append([rng.uniform(r_lo, 10.0), rng.uniform(-6.0, 6.0), 1.0, spin])
        refs = self.evaluate(sp, (r, be, m, a), exprs, rows)
        for (radius, beta, _, spin), ref in zip(rows, refs):
            got = np.asarray(
                kerr.radial_potential_derivs(KerrParams(1.0, spin), beta, radius)
            )
            # the third derivative decays at large r, below its own terms
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestConserved:
    def test_triple_at_critical_sphere(self):
        p = KerrParams()
        s = PhaseState(3.0, np.pi / 2, 0.0, 0.0, 0.0, math.sqrt(27.0))
        c = kerr.conserved(s, p)
        assert isinstance(c, ConservedTriple)
        assert c.p == pytest.approx(0.0, abs=1e-12)
        assert c.beta == pytest.approx(math.sqrt(27.0))
        assert c.carter == pytest.approx(27.0, abs=1e-12)

    def test_poisson_commutation_with_flow(self):
        # directional derivative of each conserved quantity along H_p
        rng = np.random.default_rng(11)
        h = 1e-6
        for spin in (0.0, 0.2, 0.6):
            p = KerrParams(1.0, spin)
            model = models.full_kerr_model(p)
            for y in random_states(rng, 20):
                field = model.hamilton_rhs(y)

                def along(f, s):
                    st = PhaseState.from_array(y + s * field)
                    return f(st)

                for name, f in (
                    ("p", lambda st: float(kerr.symbol_p(st, p))),
                    ("beta", lambda st: float(st.beta)),
                    (
                        "carter",
                        lambda st: float(kerr.conserved(st, p).carter),
                    ),
                ):
                    d = (along(f, h) - along(f, -h)) / (2.0 * h)
                    scale = 1.0 + float(np.linalg.norm(field)) ** 2
                    assert abs(d) < 1e-6 * scale, (name, spin, d)
