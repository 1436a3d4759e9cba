"""Escape-function tests: defining pairs, cutoffs, commutator floor, order checks."""

import math
import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from oracles import manifold_samples, toy_barrier_model
from scipy.integrate import solve_ivp

from nhtrap import escape as esc
from nhtrap.config import RunConfig
from nhtrap.errors import (
    DomainError,
    GridTooCoarse,
    NewtonDiverged,
    NotHyperbolic,
    Unbounded,
)
from nhtrap.kerr import KerrParams, barrier
from nhtrap.models import HamiltonianModel, barrier_model, reduced_kerr_model, saddle_rate

ROOT3 = math.sqrt(3.0)
# min phi_tilde / htilde at a = 0, h = 1e-2 over the 41-point disc of radius 0.2
KERR_FLOOR_H1EM2 = 31.973346619


@pytest.fixture(scope="module")
def toy():
    return toy_barrier_model()


@pytest.fixture(scope="module")
def toy_pair(toy):
    return esc.build_defining_pair(toy)


@pytest.fixture(scope="module")
def kerr():
    return reduced_kerr_model(KerrParams(mass=1.0, spin=0.0), beta=0.0)


@pytest.fixture(scope="module")
def kerr_pair(kerr):
    return esc.build_defining_pair(kerr, saddle_guess=(3.0, 0.0))


def swapped(pair):
    """The pair with the roles of phi+ and phi- exchanged: every sign
    relation and the bracket flip."""
    return replace(
        pair,
        gamma_plus=pair.gamma_minus,
        gamma_minus=pair.gamma_plus,
        quad_plus=pair.quad_minus,
        quad_minus=pair.quad_plus,
    )


def fd_gradient(f, y, h=1e-6):
    out = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        out[i] = (f(y + e) - f(y - e)) / (2.0 * h)
    return out


class TestBuildDefiningPair:
    def test_toy_exact(self, toy_pair):
        p = toy_pair
        assert np.allclose(p.saddle, [0.0, 0.0], atol=1e-14)
        assert saddle_rate(p.model.hessian(p.saddle), "toy") == pytest.approx(2.0, abs=1e-14)
        assert p.kappa == pytest.approx(1.0, abs=1e-14)
        assert p.gamma_plus == pytest.approx(1.0, abs=1e-14)
        assert p.gamma_minus == pytest.approx(-1.0, abs=1e-14)
        assert p.quad_plus == 0.0
        assert p.quad_minus == 0.0
        assert p.bracket(p.saddle) == pytest.approx(2.0, abs=1e-14)
        y = np.asarray([0.3, -0.4])
        assert p.phi(y, 1) == pytest.approx(-0.4 - 0.3, abs=1e-15)
        assert p.phi(y, -1) == pytest.approx(-0.4 + 0.3, abs=1e-15)

    def test_toy_rates_and_bracket_exact(self, toy_pair):
        pts = [
            np.asarray(q)
            for q in [(0.0, 0.0), (0.3, -0.2), (-0.45, 0.45), (0.2, 0.2001)]
        ]
        for q in pts:
            assert toy_pair.c2(q, 1) == 2.0
            assert toy_pair.c2(q, -1) == 2.0
            assert toy_pair.bracket(q) == 2.0

    def test_kerr_frozen_values(self, kerr_pair):
        p = kerr_pair
        assert p.saddle[0] == pytest.approx(3.0, abs=1e-12)
        assert p.saddle[1] == pytest.approx(0.0, abs=1e-12)
        mu = saddle_rate(p.model.hessian(p.saddle), "kerr")
        assert mu == pytest.approx(6.0 * ROOT3, abs=1e-10)
        assert p.kappa == pytest.approx(ROOT3, abs=1e-12)
        assert p.gamma_plus == pytest.approx(ROOT3, abs=1e-12)
        assert p.gamma_minus == pytest.approx(-ROOT3, abs=1e-12)
        # exact graph curvature at a = 0: quad+- = -+20/(3 sqrt 3)
        assert p.quad_plus == pytest.approx(-20.0 / (3.0 * ROOT3), abs=1e-12)
        assert p.quad_minus == pytest.approx(20.0 / (3.0 * ROOT3), abs=1e-12)
        assert p.bracket(p.saddle) == pytest.approx(2.0 * ROOT3, abs=1e-12)

    def test_phi_gradients_match_stencils(self, toy_pair, kerr_pair):
        rng = np.random.default_rng(7)
        for pair in (toy_pair, kerr_pair):
            for _ in range(6):
                y = pair.saddle + rng.uniform(-0.2, 0.2, 2)
                for side in (1, -1):
                    fd = fd_gradient(lambda q: pair.phi(q, side), y)
                    assert np.max(np.abs(pair.grad_phi(y, side) - fd)) < 2e-9

    def test_rate_relation_residual_quadratic(self, kerr_pair):
        def max_resid(radius):
            worst = 0.0
            for rho in esc.saddle_grid(kerr_pair, radius, 41):
                rp = kerr_pair.hp_phi(rho, 1) + kerr_pair.c2(rho, 1) * kerr_pair.phi(rho, 1)
                rm = kerr_pair.hp_phi(rho, -1) - kerr_pair.c2(rho, -1) * kerr_pair.phi(rho, -1)
                worst = max(worst, abs(rp), abs(rm))
            return worst

        wide = max_resid(0.1)
        assert wide < 0.05
        # halving the disc radius should shrink the worst residual ~4x
        assert max_resid(0.05) < 0.35 * wide

    def test_toy_rate_relation_exact(self, toy_pair):
        for rho in esc.saddle_grid(toy_pair, 0.1, 21):
            assert toy_pair.hp_phi(rho, 1) == pytest.approx(
                -2.0 * toy_pair.phi(rho, 1), abs=1e-15
            )

    def test_not_hyperbolic_at_a_minimum(self):
        bowl = HamiltonianModel(
            dimension=2,
            evaluate=lambda y: y[1] ** 2 + y[0] ** 2,
            gradient=lambda y: np.asarray([2.0 * y[0], 2.0 * y[1]]),
            hessian=lambda y: np.asarray([[2.0, 0.0], [0.0, 2.0]]),
        )
        with pytest.raises(NotHyperbolic):
            esc.build_defining_pair(bowl)

    def test_newton_diverges_without_critical_point(self):
        slope = HamiltonianModel(
            dimension=2,
            evaluate=lambda y: y[1] ** 2 + y[0],
            gradient=lambda y: np.asarray([1.0, 2.0 * y[1]]),
            hessian=lambda y: np.asarray([[0.0, 0.0], [0.0, 2.0]]),
        )
        with pytest.raises(NewtonDiverged):
            esc.build_defining_pair(slope)

    def test_adapted_chart_round_trip(self, toy_pair, kerr_pair):
        # point maps adapted coordinates (a, b) to phase space, and
        # adapted_radius reads hypot(a, b) back from the phase point
        rng = np.random.default_rng(11)
        a, b = rng.uniform(-0.5, 0.5, (2, 20))
        for pair in (toy_pair, kerr_pair):
            rho = pair.point(a, b)
            assert rho.shape == (2, 20)
            np.testing.assert_allclose(pair.adapted_radius(rho), np.hypot(a, b), rtol=0, atol=1e-14)
            np.testing.assert_allclose(pair.kappa * (rho[0] - pair.saddle[0]), a, rtol=0, atol=1e-14)
            np.testing.assert_allclose(rho[1] - pair.saddle[1], b, rtol=0, atol=1e-14)
            assert np.array_equal(pair.point(0.0, 0.0), pair.saddle)

    def test_antisymmetry_under_swap(self, kerr_pair):
        rng = np.random.default_rng(3)
        sw = swapped(kerr_pair)
        for _ in range(8):
            y = kerr_pair.saddle + rng.uniform(-0.3, 0.3, 2)
            assert sw.bracket(y) == -kerr_pair.bracket(y)


def assert_batched_matches_pointwise(f, grid):
    """f on the (2, n) batch of an (n, 2) grid equals f point by point, up
    to rounding on the scale of its values."""
    pointwise = np.stack([np.asarray(f(q)) for q in grid], axis=-1)
    scale = np.max(np.abs(pointwise))
    np.testing.assert_allclose(f(grid.T), pointwise, rtol=0.0, atol=1e-13 * scale)


def stencil_gradient(f, y, h=1e-4):
    """Five-point central differences of a scalar field at one point."""
    out = np.zeros(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        out[k] = (f(y - 2 * e) - 8 * f(y - e) + 8 * f(y + e) - f(y + 2 * e)) / (
            12 * h
        )
    return out


class TestClosedFormRateGradients:
    """The closed-form gradients of c^2 and of the hatted functions
    against five-point stencils, on toy and Kerr grids."""

    @pytest.fixture(scope="class")
    def pairs(self, toy_pair, kerr_pair):
        spinning = reduced_kerr_model(KerrParams(mass=1.0, spin=0.5), beta=0.0)
        return [
            toy_pair,
            kerr_pair,
            esc.build_defining_pair(spinning, saddle_guess=(3.0, 0.0)),
        ]

    def test_rate_gradient(self, pairs):
        for pair in pairs:
            grid = esc.saddle_grid(pair, 0.2, 9)
            for side in (+1, -1):
                _, dc2 = pair.c2(grid.T, side, with_grad=True)
                for q, got in zip(grid, dc2.T):
                    fd = stencil_gradient(lambda y: pair.c2(y, side), q)
                    assert np.max(np.abs(got - fd)) < 1e-9 * (1.0 + np.max(np.abs(fd)))

    def test_hatted_gradient(self, pairs):
        for pair in pairs:
            spec = esc.make_escape_spec(pair, h=1e-2)
            grid = esc.saddle_grid(pair, 0.2, 9)
            for side in (+1, -1):
                _, grads = esc._hatted(spec, grid.T, side)
                for q, got in zip(grid, grads.T):
                    fd = stencil_gradient(
                        lambda y: esc._hatted(spec, y, side)[0], q
                    )
                    assert np.max(np.abs(got - fd)) < 1e-9 * (1.0 + np.max(np.abs(fd)))


class TestManifoldsAndVerify:
    def test_toy_manifolds_are_exact_lines(self, toy_pair):
        for side in (+1, -1):
            pts = manifold_samples(toy_pair, side)
            assert max(abs(toy_pair.phi(q, side)) for q in pts) < 1e-12

    def test_kerr_manifold_residuals(self, kerr_pair):
        for side in (+1, -1):
            pts = manifold_samples(kerr_pair, side)
            assert max(abs(kerr_pair.phi(q, side)) for q in pts) < 1e-8

    def test_too_many_points_requested(self, toy_pair):
        with pytest.raises(GridTooCoarse):
            manifold_samples(toy_pair, +1, n_points=100_000)

    def test_verify_toy(self, toy_pair):
        violations, min_bracket = esc.verify_defG_relations(
            toy_pair, esc.saddle_grid(toy_pair, 0.3, 31)
        )
        assert violations == []
        assert min_bracket == pytest.approx(2.0, abs=1e-14)

    def test_verify_kerr_bracket_floor(self, kerr_pair):
        violations, min_bracket = esc.verify_defG_relations(
            kerr_pair, esc.saddle_grid(kerr_pair, 0.05, 41)
        )
        assert violations == []
        assert min_bracket >= 0.9 * 2.0 * ROOT3

    def test_verify_flags_sign_flip(self, toy_pair):
        violations, min_bracket = esc.verify_defG_relations(
            swapped(toy_pair), esc.saddle_grid(toy_pair, 0.3, 21)
        )
        assert min_bracket < 0.0
        assert violations
        assert {v["side"] for v in violations} == {"plus", "minus"}

    def test_verify_batched_matches_pointwise(self, toy_pair, kerr_pair):
        # violations come point by point, plus before minus
        for pair in (swapped(toy_pair), swapped(kerr_pair)):
            grid = esc.saddle_grid(pair, 0.3, 21)
            violations, min_bracket = esc.verify_defG_relations(pair, grid)
            pieces = [
                esc.verify_defG_relations(pair, grid[i : i + 1])
                for i in range(len(grid))
            ]
            assert violations == [v for piece, _ in pieces for v in piece]
            assert violations
            assert min_bracket == min(bracket for _, bracket in pieces)

    def test_flow_monotonicity_of_phi_squares(self, kerr, kerr_pair):
        # forward flow drains phi+^2 and feeds phi-^2 wherever the rates
        # are positive; check the time derivative sign off the graphs
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(40):
            y = kerr_pair.saddle + rng.uniform(-0.15, 0.15, 2)
            fp = kerr_pair.phi(y, 1)
            fm = kerr_pair.phi(y, -1)
            if abs(fp) < 1e-3 or abs(fm) < 1e-3:
                continue
            assert 2.0 * fp * kerr_pair.hp_phi(y, 1) < 0.0
            assert 2.0 * fm * kerr_pair.hp_phi(y, -1) > 0.0
            checked += 1
        assert checked > 20

    def test_flow_monotonicity_integrated(self, toy, toy_pair):
        y0 = np.asarray([0.08, 0.2])
        sol = solve_ivp(
            lambda t, y: toy.hamilton_rhs(y),
            (0.0, 0.3),
            y0,
            method="DOP853",
            rtol=1e-11,
            atol=1e-13,
        )
        traj = sol.y.T
        fp2 = [toy_pair.phi(q, 1) ** 2 for q in traj]
        fm2 = [toy_pair.phi(q, -1) ** 2 for q in traj]
        assert fp2[-1] < fp2[0]
        assert fm2[-1] > fm2[0]


class TestCutoffsAndSpec:
    def test_cutoff_plateaus_and_monotone(self, kerr_pair):
        def cut(rho):
            return esc._cutoff(kerr_pair, rho, (0.2, 0.5))

        inside = np.asarray([kerr_pair.saddle[0] + 0.05 / ROOT3, 0.05])
        outside = np.asarray([kerr_pair.saddle[0], 0.6])
        assert cut(inside) == 1.0
        assert cut(outside) == 0.0
        radii = np.linspace(0.2, 0.5, 30)
        vals = [cut(np.asarray([kerr_pair.saddle[0], r])) for r in radii]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_constants(self):
        # what the spec once checked at run time: htilde in (0, 1), each
        # radius pair ordered, and the chi ramp inside the chi1 plateau, so
        # the gradient of chi lives where chi1 is identically 1
        assert 0.0 < esc.HTILDE < 1.0
        for inner, outer in (esc.CHI_RADII, esc.CHI1_RADII, esc.G1_RADII):
            assert 0.0 < inner < outer
        assert esc.CHI_RADII[1] <= esc.CHI1_RADII[0]

    def test_spec_guards(self, toy_pair):
        g1 = esc.build_G1(toy_pair)
        spec = esc.EscapeSpec(toy_pair, 1e-2, g1)
        assert spec.eta == 1e-2 / esc.HTILDE
        with pytest.raises(DomainError):
            esc.EscapeSpec(toy_pair, 0.5, g1)
        with pytest.raises(DomainError):
            esc.EscapeSpec(toy_pair, 0.0, g1)


class TestG1:
    def test_toy_report(self, toy_pair):
        g1 = esc.build_G1(toy_pair)
        report = g1.report
        assert set(report) == {"g1_floor", "passed"}
        assert report["passed"]
        assert report["g1_floor"] >= 1.0 - 1e-12
        # the raw band floor is g1_floor / scale
        assert report["g1_floor"] / g1.scale >= 0.5
        # beyond the ramp the pairing is bare: H_p(x xi) = 2(x^2 + xi^2)
        y = np.asarray([0.8, 0.7])
        assert g1.hp(y) == pytest.approx(
            g1.scale * 2.0 * (y[0] ** 2 + y[1] ** 2), rel=1e-12
        )

    def test_kerr_report(self, kerr_pair):
        g1 = esc.build_G1(kerr_pair)
        report = g1.report
        assert report["passed"]
        assert g1.scale == 1.0
        assert report["g1_floor"] == pytest.approx(1.0934, abs=2e-3)

    def test_gradient_stencil(self, toy_pair, kerr_pair):
        rng = np.random.default_rng(23)
        for pair in (toy_pair, kerr_pair):
            g1 = esc.build_G1(pair)
            for _ in range(5):
                y = pair.saddle + rng.uniform(-0.6, 0.6, 2)
                fd = fd_gradient(g1, y)
                assert np.max(np.abs(g1.gradient(y) - fd)) < 1e-7

    def test_batched_matches_pointwise(self, toy_pair, kerr_pair):
        for pair in (toy_pair, kerr_pair):
            g1 = esc.build_G1(pair)
            grid = esc.saddle_grid(pair, 1.0, 21)
            for f in (g1, g1.gradient, g1.hp):
                assert_batched_matches_pointwise(f, grid)

    @pytest.mark.parametrize(
        "kind, spin", [("toy_sech2", 0.0), ("kerr_equatorial", 0.5), ("kerr_equatorial", 0.99)]
    )
    def test_what_holds_by_construction(self, kind, spin):
        # build_G1 checks neither: G1 is exactly 0 on the core, where
        # smoothstep5 clips to 0, and scale = max(1, 1/floor_raw) lifts the
        # band floor to 1; both on escape-check's symbols and G1 grid
        symbol = barrier(kind, KerrParams(1.0, spin))
        pair = esc.build_defining_pair(barrier_model(symbol.terms, None), (symbol.top, 0.0))
        g1 = esc.build_G1(pair)
        band = 2.0 * esc.G1_RADII[1]
        xs = np.linspace(-band, band, esc.G1_GRID_N)
        rho = pair.point(*(m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")))
        core = pair.adapted_radius(rho) <= esc.G1_RADII[0]
        assert core.sum() >= 100
        assert np.all(g1(rho[:, core]) == 0.0)
        assert g1.report["g1_floor"] >= 1.0 - 1e-12

    def test_verdict_fails_where_hp_dips(self, toy_pair, monkeypatch):
        # the verdict's one condition: H_p G1 >= -HP_G1_NEGATIVE_TOL on the
        # whole disc, here broken on the core alone, away from the band
        hp = esc.G1Function.hp

        def dipping(self, rho):
            core = self.pair.adapted_radius(rho) <= esc.G1_RADII[0]
            return hp(self, rho) - 2.0 * esc.HP_G1_NEGATIVE_TOL * core

        monkeypatch.setattr(esc.G1Function, "hp", dipping)
        report = esc.build_G1(toy_pair).report
        assert not report["passed"]
        assert report["g1_floor"] >= 1.0 - 1e-12


class TestEscapeFunction:
    def test_vanishes_at_saddle(self, toy_pair, kerr_pair):
        for pair in (toy_pair, kerr_pair):
            spec = esc.make_escape_spec(pair, h=1e-2)
            assert abs(esc.escape_function(spec, pair.saddle)) < 1e-14

    def test_toy_log_quotient_value(self, toy_pair):
        spec = esc.make_escape_spec(toy_pair, h=1e-2)
        # on the unstable graph at (0.1, 0.1): phi+ = 0, phi- = 0.2
        assert esc.escape_function(spec, np.asarray([0.1, 0.1])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_log_of_h_bound(self, kerr_pair):
        for h in (1e-2, 1e-3):
            spec = esc.make_escape_spec(kerr_pair, h=h)
            grid = esc.saddle_grid(kerr_pair, 1.0, 41)
            sup_g1 = max(
                abs(esc._cutoff(kerr_pair, q, esc.CHI1_RADII) * spec.G1(q)) for q in grid
            )
            bound = math.log(esc.HTILDE / h) + esc.C1_CONST * math.log(
                1.0 / h
            ) * sup_g1
            G = partial(esc.escape_function, spec)
            assert max(abs(G(q)) for q in grid) <= bound + 1e-9

    def test_odd_under_swap_in_the_core(self, kerr_pair):
        spec = esc.make_escape_spec(kerr_pair, h=1e-2)
        G = partial(esc.escape_function, spec)
        G_sw = partial(esc.escape_function, replace(spec, pair=swapped(kerr_pair)))
        for q in esc.saddle_grid(kerr_pair, 0.19, 15):
            assert G_sw(q) == pytest.approx(-G(q), abs=1e-13)

    def test_batched_matches_pointwise(self, toy_pair, kerr_pair):
        for pair in (toy_pair, kerr_pair):
            spec = esc.make_escape_spec(pair, h=1e-2)
            assert_batched_matches_pointwise(
                partial(esc.escape_function, spec), esc.saddle_grid(pair, 1.0, 21)
            )


class TestCommutatorBound:
    def test_saddle_value_toy(self, toy_pair):
        spec = esc.make_escape_spec(toy_pair, h=1e-2)
        assert esc.saddle_commutator_value(toy_pair) == pytest.approx(
            4.0, abs=1e-10
        )
        # the hatted route must collapse to the same product at the saddle
        assert esc.phi_tilde(spec, toy_pair.saddle) / esc.HTILDE \
            == pytest.approx(4.0, abs=1e-10)

    def test_saddle_value_kerr(self, kerr_pair):
        spec = esc.make_escape_spec(kerr_pair, h=1e-2)
        assert esc.saddle_commutator_value(kerr_pair) == pytest.approx(
            36.0, abs=1e-8
        )
        assert esc.phi_tilde(spec, kerr_pair.saddle) / esc.HTILDE \
            == pytest.approx(36.0, abs=1e-10)

    def test_toy_floor_and_stability(self, toy_pair):
        grid = esc.saddle_grid(toy_pair, 0.3, 41)
        vals = []
        for h in (1e-2, 1e-3, 1e-4):
            spec = esc.make_escape_spec(toy_pair, h=h)
            vals.append(
                esc.commutator_lower_bound(spec, grid)
            )
        assert vals[0] >= 1.0
        for v in vals:
            assert v == pytest.approx(4.0, abs=1e-9)

    def test_kerr_floor_and_stability(self, kerr_pair):
        grid = esc.saddle_grid(kerr_pair, 0.2, 41)
        vals = []
        for h in (1e-2, 1e-3, 1e-4):
            spec = esc.make_escape_spec(kerr_pair, h=h)
            vals.append(
                esc.commutator_lower_bound(spec, grid)
            )
        assert all(v > 0.0 for v in vals)
        mean = sum(vals) / len(vals)
        assert max(abs(v - mean) / mean for v in vals) < 0.10
        assert vals[0] == pytest.approx(KERR_FLOOR_H1EM2, rel=1e-9)
        assert vals[2] == pytest.approx(36.0, abs=1e-9)

    def test_grid_validation(self, toy_pair):
        spec = esc.make_escape_spec(toy_pair, h=1e-2)
        with pytest.raises(DomainError):
            esc.commutator_lower_bound(spec, np.zeros((0, 2)))

    def test_phi_tilde_batched_matches_pointwise(self, toy_pair, kerr_pair):
        for pair in (toy_pair, kerr_pair):
            spec = esc.make_escape_spec(pair, h=1e-2)
            assert_batched_matches_pointwise(
                lambda y: esc.phi_tilde(spec, y),
                esc.saddle_grid(pair, 0.2, 21),
            )

    def test_saddle_grid_shape(self, kerr_pair):
        grid = esc.saddle_grid(kerr_pair, 0.2, 21)
        assert np.allclose(grid[0], kerr_pair.saddle)
        radii = [kerr_pair.adapted_radius(q) for q in grid]
        assert max(radii) <= 0.2 + 1e-12
        # same points, in the same order, as the nested loop over offsets
        ax = np.linspace(-0.2, 0.2, 21)
        ref = [kerr_pair.saddle] + [
            kerr_pair.saddle + np.asarray([a / kerr_pair.kappa, b])
            for a in ax
            for b in ax
            if (a, b) != (0.0, 0.0) and math.hypot(a, b) <= 0.2
        ]
        assert np.array_equal(grid, np.asarray(ref))


class TestOrderFunction:
    def test_identically_zero_escape(self):
        # a constant G: order 0 with the tight constant exp(0) = 1
        log_brackets = np.linspace(0.0, 10.0, 50)
        assert esc._smallest_order(np.zeros(50), log_brackets) == (0.0, 0)

    def test_order_is_the_smallest_admissible(self):
        # gaps log 2 + 3 log<t> need N = 3 (N = 2 leaves C = 2e^10), with C = 2
        log_brackets = np.linspace(0.0, 10.0, 50)
        log_c, n_exp = esc._smallest_order(math.log(2.0) + 3.0 * log_brackets, log_brackets)
        assert n_exp == 3
        assert log_c == pytest.approx(math.log(2.0), abs=1e-12)

    def test_samples_match_one_at_a_time_draws(self, kerr_pair):
        # candidates (a, b) come from the stdlib generator, a then b, and
        # those in the disc are kept in draw order
        for seed in (0, 1, 7):
            rng = random.Random(seed)
            ref = []
            while len(ref) < 2 * 300:
                a, b = (rng.uniform(-0.2, 0.2) for _ in range(2))
                if math.hypot(a, b) <= 0.2:
                    ref.append(kerr_pair.saddle + [a / kerr_pair.kappa, b])
            got = esc.sample_disc_pairs(kerr_pair, 0.2, 300, random.Random(seed))
            assert np.array_equal(got, np.reshape(ref, (300, 2, 2)))

    def test_unbounded_flags_defects(self, toy_pair, monkeypatch):
        # gaps far above any power of the bracket admit no order
        log_brackets = np.linspace(0.0, 0.5, 50)
        gaps = 1e6 * log_brackets
        assert esc._smallest_order(gaps, log_brackets) is None
        monkeypatch.setattr(esc, "_order_statistics", lambda *args: (gaps, log_brackets))
        spec = esc.make_escape_spec(toy_pair, h=1e-3)
        with pytest.raises(Unbounded):
            esc.order_function_check(spec, np.zeros((50, 2, 2)))


class TestEscapeReport:
    def test_toy_report_contents(self, toy_pair):
        spec = esc.make_escape_spec(toy_pair, h=1e-2)
        report = esc.escape_report(spec, seed=RunConfig(command="escape-check").seed)
        for key in ("c1", "C", "N", "bracket_min", "g1_floor", "violations"):
            assert key in report
        assert report["c1"] == pytest.approx(4.0, abs=1e-9)
        assert report["violations"] == []
        assert report["saddle_value"] == pytest.approx(4.0, abs=1e-10)

    def test_kerr_report_contents(self, kerr_pair):
        spec = esc.make_escape_spec(kerr_pair, h=1e-2)
        report = esc.escape_report(spec, seed=RunConfig(command="escape-check").seed)
        assert report["c1"] > 0.0
        assert report["bracket_min"] >= 0.9 * 2.0 * ROOT3
        assert report["violations"] == []
        assert report["N"] <= 4
