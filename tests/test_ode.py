"""The in-house DOP853 against scipy's solve_ivp(method="DOP853") as oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

from nhtrap import flow, models, ode, trapping
from nhtrap.errors import ChartExit, NoBracket, StepFailure
from nhtrap.kerr import KerrParams

# the quick-survey orbit at a = 0.5: it leaves the chart through the outer
# cap r = 200 at t = 1.276 forward and at t = -0.0653 backward
FLOW_START = np.asarray([8.0, 1.2, 0.0, -1.047452885827, 3.923213879343, 4.0])


def shell_problem():
    """(orbit, z0, crossing event) of one beta sample at a = 0.9."""
    params = KerrParams(1.0, 0.9)
    fam = trapping.ReducedFamily(params)
    lo, hi = trapping.equatorial_beta_range(0.0, params, fam)
    orbit = trapping.ShellOrbit(fam, float(trapping._beta_grid(lo, hi, 6)[1]), 0.0)
    theta0 = orbit.u0[0]

    def crossing(t, z):
        return z[0] - theta0

    crossing.direction = 1.0
    crossing.terminal = 2
    return orbit, np.concatenate([orbit.u0, np.eye(4).ravel()]), crossing


def flow_problem():
    """(Hamilton field, start, chart-exit event) of the full Kerr model at
    a = 0.5: what `flow.integrate_flow` integrates."""
    model = models.full_kerr_model(KerrParams(1.0, 0.5))

    def exit_event(t, y):
        return model.chart_margin(y)

    exit_event.terminal = True
    exit_event.direction = -1
    return (lambda t, y: model.hamilton_rhs(y)), FLOW_START, exit_event


def solve_both(fun, t_span, y0, event=None, **kwargs):
    ours = ode.solve_ivp(fun, t_span, y0, event=event, **kwargs)
    theirs = scipy_solve_ivp(fun, t_span, y0, method="DOP853", events=event, **kwargs)
    return ours, theirs


def assert_same_run(ours, theirs):
    assert ours.status == theirs.status
    assert ours.nfev == theirs.nfev
    assert np.array_equal(ours.t, theirs.t)
    end, ref = ours.y[:, -1], theirs.y[:, -1]
    assert np.max(np.abs(end - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestAgainstScipy:
    @pytest.mark.parametrize("horizon", [2.0, -2.0])
    def test_shell_cocycle_steps(self, horizon):
        orbit, z0, _ = shell_problem()
        ours, theirs = solve_both(orbit.rhs, (0.0, horizon), z0, rtol=1e-10, atol=1e-12)
        assert ours.status == 0
        assert_same_run(ours, theirs)

    @pytest.mark.parametrize("time", [1.0, -0.05])
    def test_flow_steps(self, time):
        rhs, z0, _ = flow_problem()
        rtol = flow.step_tolerance(1e-10, time)
        ours, theirs = solve_both(rhs, (0.0, time), z0, rtol=rtol, atol=rtol * 1e-2)
        assert ours.status == 0
        assert_same_run(ours, theirs)

    def test_rtol_floor(self):
        # rtol below 100 eps is raised to it, as scipy does with a warning
        rhs, z0, _ = flow_problem()
        ours = ode.solve_ivp(rhs, (0.0, 0.2), z0, rtol=1e-16, atol=1e-18)
        with pytest.warns(UserWarning):
            theirs = scipy_solve_ivp(rhs, (0.0, 0.2), z0, method="DOP853",
                                     rtol=1e-16, atol=1e-18)
        assert_same_run(ours, theirs)

    def test_dense_output_and_second_crossing(self):
        orbit, z0, crossing = shell_problem()
        ours, theirs = solve_both(orbit.rhs, (0.0, 20.0), z0, rtol=1e-10, atol=1e-12,
                                  event=crossing, dense_output=True)
        assert ours.status == theirs.status == 1
        assert ours.nfev == theirs.nfev
        # the first crossing is the start itself; the second is the period
        assert ours.t_events[0] == 0.0
        period = ours.t_events[-1]
        assert period == pytest.approx(theirs.t_events[0][-1], rel=1e-14, abs=0.0)
        assert ours.t[-1] == period
        s = np.linspace(0.0, period, 256)
        dense, ref = ours.sol(s), theirs.sol(s)
        assert dense.shape == ref.shape == (20, 256)
        assert np.max(np.abs(dense - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(ours.sol(s[100]) - ref[:, 100])) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(ours.y_events[-1] - theirs.y_events[0][-1])) <= 1e-13

    def test_backward_dense_output(self):
        orbit, z0, _ = shell_problem()
        ours, theirs = solve_both(orbit.rhs, (0.0, -2.0), z0, rtol=1e-10, atol=1e-12,
                                  dense_output=True)
        s = np.linspace(-2.0, 0.0, 97)
        assert np.max(np.abs(ours.sol(s) - theirs.sol(s))) <= 1e-13 * np.max(np.abs(theirs.sol(s)))


class TestFlowStatuses:
    @pytest.mark.parametrize("time", [30.0, -1.0])
    def test_chart_exit(self, time):
        rhs, z0, exit_event = flow_problem()
        rtol = flow.step_tolerance(1e-10, time)
        ours, theirs = solve_both(rhs, (0.0, time), z0, rtol=rtol, atol=rtol * 1e-2,
                                  event=exit_event)
        assert ours.status == theirs.status == 1
        assert_same_run(ours, theirs)
        assert ours.t[-1] == pytest.approx(theirs.t_events[0][0], rel=1e-14)
        model = models.full_kerr_model(KerrParams(1.0, 0.5))
        with pytest.raises(ChartExit) as err:
            flow.integrate_flow(model, FLOW_START, time)
        assert err.value.exit_time == ours.t[-1]

    def test_too_small_step(self):
        # the field turns to NaN at x = 0.5, which the diagonal orbit of
        # p = xi^2 - x^2 reaches at t = log(5)/2: steps shrink to nothing
        def gradient(y):
            if y[0] >= 0.5:
                return np.full(2, np.nan)
            return np.asarray([-2.0 * y[0], 2.0 * y[1]])

        model = models.HamiltonianModel(
            dimension=2,
            evaluate=lambda y: y[1] ** 2 - y[0] ** 2,
            gradient=gradient,
            hessian=lambda y: np.diag([-2.0, 2.0]),
        )
        y0 = np.asarray([0.1, 0.1])
        ours, theirs = solve_both(
            lambda t, y: model.hamilton_rhs(y), (0.0, 2.0), y0, rtol=1e-10, atol=1e-12
        )
        assert ours.status == theirs.status == -1
        assert_same_run(ours, theirs)
        assert ours.t[-1] == pytest.approx(math.log(5.0) / 2.0, abs=1e-6)
        with pytest.raises(StepFailure):
            flow.integrate_flow(model, y0, 2.0)


class TestBrentq:
    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0 * x - 5.0, 1.0, 3.0),
            (lambda x: math.cos(x) - x, 3.0, -1.0),
            (lambda x: math.exp(x) - 3.0, 0.0, 2.0),
            (lambda x: 1e-8 * math.atan(x - 0.3), -2.0, 1.0),
        ],
    )
    @pytest.mark.parametrize("xtol", [1e-14, 2e-12, 1e-6])
    def test_bitwise_scipy_roots(self, f, a, b, xtol):
        assert ode.brentq(f, a, b, xtol=xtol) == scipy_brentq(f, a, b, xtol=xtol)

    def test_endpoint_root_and_no_bracket(self):
        assert ode.brentq(lambda x: x, 0.0, 1.0) == 0.0
        with pytest.raises(NoBracket):
            ode.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
