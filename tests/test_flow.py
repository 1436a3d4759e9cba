"""Flow-integration tests against closed-form and matrix-exponential oracles.

The Jacobians come from `oracles.tangent_flow`, which integrates the
variational equation next to the orbit with `integrate_flow`'s step rule.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import joint_flow, tangent_flow, toy_barrier_model
from scipy.linalg import expm

from nhtrap import flow, models, ode
from nhtrap.errors import ChartExit
from nhtrap.kerr import KerrParams

TOY = toy_barrier_model()


class TestToyClosedForm:
    # p = xi^2 - x^2: along (x, xi) = (c e^{2t}, c e^{2t}) the flow is exact

    def test_diagonal_orbit(self):
        end = flow.integrate_flow(TOY, np.asarray([1.0, 1.0]), 1.0, tol=1e-12)
        assert np.allclose(end, math.e**2, rtol=1e-9)
        assert abs(TOY.evaluate(end)) < 1e-10

    def test_jacobian_hyperbolic_rotation(self):
        for t in (0.3, 1.0, 2.0):
            J = tangent_flow(TOY, np.asarray([0.2, 0.5]), t, tol=1e-12)
            expected = np.asarray(
                [
                    [math.cosh(2 * t), math.sinh(2 * t)],
                    [math.sinh(2 * t), math.cosh(2 * t)],
                ]
            )
            assert np.max(np.abs(J - expected)) < 1e-8 * math.cosh(2 * t)

    def test_negative_time(self):
        end = flow.integrate_flow(TOY, np.asarray([1.0, 1.0]), -0.5, tol=1e-12)
        assert np.allclose(end, math.exp(-1.0), rtol=1e-9)


class TestStructure:
    @staticmethod
    def omega(d):
        O = np.zeros((2 * d, 2 * d))
        O[:d, d:] = np.eye(d)
        O[d:, :d] = -np.eye(d)
        return O

    def test_symplectic_jacobian(self):
        m = models.reduced_kerr_model(KerrParams(1.0, 0.3), 1.5)
        J = tangent_flow(m, np.asarray([3.1, 0.05]), 0.3, tol=1e-12)
        O = self.omega(1)
        assert np.max(np.abs(J.T @ O @ J - O)) < 1e-8
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-8)

    def test_time_reversibility(self):
        m = models.reduced_kerr_model(KerrParams(), 2.0)
        y0 = np.asarray([3.05, 0.02])
        tol = 1e-11
        fwd = flow.integrate_flow(m, y0, 0.4, tol=tol)
        back = flow.integrate_flow(m, fwd, -0.4, tol=tol)
        assert np.max(np.abs(back - y0)) < 1e-8

    def test_cocycle_property(self):
        m = models.reduced_kerr_model(KerrParams(), 0.5)
        y0 = np.asarray([3.02, -0.01])
        t1, t2 = 0.25, 0.2
        end1, J1 = joint_flow(m, y0, t1, tol=1e-12)
        J2 = tangent_flow(m, end1, t2, tol=1e-12)
        J12 = tangent_flow(m, y0, t1 + t2, tol=1e-12)
        assert np.max(np.abs(J2 @ J1 - J12)) < 1e-5 * np.max(
            np.abs(J12)
        )

    def test_small_time_matches_matrix_exponential(self):
        m = models.reduced_kerr_model(KerrParams(), 0.0)
        y0 = np.asarray([3.0, 0.0])  # exact saddle: variational flow is linear
        A = m.variational_matrix(y0)
        for t in (0.01, 0.1, 1.0):
            J = tangent_flow(m, y0, t, tol=1e-12)
            assert np.max(np.abs(J - expm(t * A))) < 1e-6 * np.max(
                np.abs(expm(t * A))
            )

    def test_beta_rate_is_exactly_zero(self):
        # beta' = -p_phi, and the Kerr gradient leaves the phi slot at 0.0,
        # so no step moves beta (flow-integrate writes no drift for it)
        m = models.full_kerr_model(KerrParams(1.0, 0.5))
        survey_start = np.asarray([8.0, 1.2, 0.0, -1.047452885827, 3.923213879343, 4.0])
        assert m.hamilton_rhs(survey_start)[5] == 0.0


class TestChartExitAndValidation:
    def test_toy_chart_exit(self):
        start, time, tol = np.asarray([1.0, 1.0]), 30.0, 1e-10
        rtol = flow.step_tolerance(tol, time)
        for cap in (1e2, 1e6, 1e12):
            # the toy capped at max(|x|, |xi|) = cap
            capped = replace(TOY, chart_margin=lambda y, cap=cap: cap - max(abs(y[0]), abs(y[1])))
            with pytest.raises(ChartExit) as exc:
                flow.integrate_flow(capped, start, time, tol=tol)
            # x(t) = e^{2t} reaches the cap at t = ln(cap) / 2
            assert exc.value.exit_time == pytest.approx(0.5 * math.log(cap), rel=0.0, abs=5e-12)
            # the same run, integrated as integrate_flow does, ends on the cap
            sol = ode.solve_ivp(lambda t, y: capped.hamilton_rhs(y), (0.0, time), start,
                                rtol=rtol, atol=rtol * 1e-2,
                                event=lambda t, y: capped.chart_margin(y))
            assert sol.status == 1
            assert sol.t[-1] == exc.value.exit_time
            assert sol.y[0, -1] == pytest.approx(cap, rel=1e-12)

    def test_kerr_escape_exits_chart(self):
        m = models.full_kerr_model(KerrParams())
        start = np.asarray([4.0, np.pi / 2, 0.0, 0.5, 0.0, 1.0])
        with pytest.raises(ChartExit) as exc:
            flow.integrate_flow(m, start, 50.0, tol=1e-10)
        assert 0.0 < exc.value.exit_time < 50.0

    def test_step_tolerance_floor(self):
        # long horizons tighten the step tolerance down to the integrator's
        # own floor and no further
        assert flow.step_tolerance(1e-10, 100.0) == 5e-13
        assert flow.step_tolerance(1e-13, 100.0) == ode.RTOL_MIN


class TestExponents:
    @staticmethod
    def rate(model, start, t1, t2):
        """Growth rate of ||dphi^t|| between t1 and t2."""
        n1, n2 = (
            np.linalg.norm(tangent_flow(model, start, t, tol=1e-12), 2)
            for t in (t1, t2)
        )
        return math.log(n2 / n1) / (t2 - t1)

    def test_toy_rate(self):
        assert self.rate(TOY, np.asarray([0.0, 0.0]), 2.5, 5.0) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_static_saddle_rate(self):
        # linearized radial flow at the trapped sphere: rate 6*sqrt(3)
        m = models.reduced_kerr_model(KerrParams(), 0.0)
        rate = self.rate(m, np.asarray([3.0, 0.0]), 2.0, 4.0)
        assert rate == pytest.approx(6.0 * math.sqrt(3.0), abs=1e-4)
