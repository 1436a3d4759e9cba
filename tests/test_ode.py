"""The in-house DOP853 against scipy's solve_ivp(method="DOP853") as oracle.

Runs without an event match scipy's bit for bit.  A run that ends on its
event locates it on the last step retaken to each trial time, where scipy
reads a dense-output interpolant; there the oracles are scipy's own
Runge-Kutta step and the closed-form shell orbit.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import shell_rhs, shell_start
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp.rk import rk_step
from scipy.optimize import brentq as scipy_brentq

from nhtrap import flow, models, ode, trapping
from nhtrap.errors import ChartExit, NoBracket, StepFailure
from nhtrap.kerr import KerrParams
from nhtrap.shell import ShellOrbit

# the quick-survey orbit at a = 0.5: it leaves the chart through the outer
# cap r = 200 at t = 1.276 forward and at t = -0.0653 backward
FLOW_START = np.asarray([8.0, 1.2, 0.0, -1.047452885827, 3.923213879343, 4.0])


def shell_problem():
    """(field, z0, alpha-turn event, orbit) of one beta sample at a = 0.9:
    the shell orbit's 20-component variational system of
    `oracles.shell_rhs`.  The event's attributes are read by scipy only;
    `ode` always stops at the first downward zero."""
    params = KerrParams(1.0, 0.9)
    fam = trapping.ReducedFamily(params)
    lo, hi = trapping.equatorial_beta_range(0.0, fam)
    orbit = ShellOrbit(fam, float(trapping._beta_grid(lo, hi)[1]), 0.0)

    def turn(t, z):
        return z[2]

    turn.direction = -1.0
    turn.terminal = True
    return shell_rhs(orbit), shell_start(orbit), turn, orbit


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


def assert_event_on_retaken_step(ours, theirs, fun, event):
    """Both runs end on the event, and every accepted step before it is
    scipy's bit for bit.  The end state is the last accepted step retaken
    to t[-1] (scipy's `rk_step` with the DOP853 tableau), the event changes
    sign within EVENT_TOL of t[-1], and the retakes cost at most 12 RHS
    calls for each of brentq's trials."""
    assert ours.status == theirs.status == 1
    assert np.array_equal(ours.t[:-1], theirs.t[:-1])
    assert np.array_equal(ours.y[:, :-1], theirs.y[:, :-1])
    assert theirs.nfev < ours.nfev <= theirs.nfev + 12 * (ode.BRENTQ_MAXITER + 1)
    t_old, y_old, t_end = ours.t[-2], ours.y[:, -2], ours.t[-1]

    def retaken(s):
        K = np.empty((DOP853.n_stages + 1, y_old.size))
        f_old = fun(t_old, y_old)
        return rk_step(fun, t_old, y_old, f_old, s - t_old, DOP853.A, DOP853.B, DOP853.C, K)[0]

    assert np.array_equal(ours.y[:, -1], retaken(t_end))
    delta = ode.EVENT_TOL * (1.0 + abs(t_end)) * np.sign(t_end - ours.t[0])
    before, after = t_end - delta, t_end + delta
    assert event(before, retaken(before)) >= 0.0 >= event(after, retaken(after))


class TestAgainstScipy:
    @pytest.mark.parametrize("horizon", [2.0, -2.0])
    def test_shell_cocycle_steps(self, horizon):
        rhs, z0, _, _ = shell_problem()
        ours, theirs = solve_both(rhs, (0.0, horizon), z0, rtol=1e-10, atol=1e-12)
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

    def test_alpha_turn(self):
        rhs, z0, turn, orbit = shell_problem()
        ours, theirs = solve_both(rhs, (0.0, 20.0), z0, rtol=1e-10, atol=1e-12, event=turn)
        assert_event_on_retaken_step(ours, theirs, rhs, turn)
        # alpha starts positive and first falls through 0 a quarter period
        # on, at the closed-form orbit's quarter time
        assert ours.t[-1] == pytest.approx(orbit.quarter_time / orbit.mass, rel=0.0, abs=5e-14)

    def test_rising_event_does_not_stop(self):
        # -alpha rises through 0 where alpha first falls, a quarter period
        # on, and falls again three quarters on: a run over half a period
        # goes on to the end with the steps of a run without an event
        rhs, z0, turn, _ = shell_problem()
        quarter = ode.solve_ivp(rhs, (0.0, 20.0), z0, event=turn).t[-1]
        span = (0.0, 2.0 * quarter)
        plain = ode.solve_ivp(rhs, span, z0, rtol=1e-10, atol=1e-12)
        rising = ode.solve_ivp(rhs, span, z0, rtol=1e-10, atol=1e-12,
                               event=lambda t, z: -z[2])
        assert np.any(plain.y[2] < 0.0)
        assert rising.status == plain.status == 0
        assert rising.nfev == plain.nfev
        assert np.array_equal(rising.t, plain.t)
        assert np.array_equal(rising.y, plain.y)


class TestFlowStatuses:
    @pytest.mark.parametrize("time", [30.0, -1.0])
    def test_chart_exit(self, time):
        rhs, z0, exit_event = flow_problem()
        rtol = flow.step_tolerance(1e-10, time)
        ours, theirs = solve_both(rhs, (0.0, time), z0, rtol=rtol, atol=rtol * 1e-2,
                                  event=exit_event)
        assert_event_on_retaken_step(ours, theirs, rhs, exit_event)
        model = models.full_kerr_model(KerrParams(1.0, 0.5))
        with pytest.raises(ChartExit) as err:
            flow.integrate_flow(model, FLOW_START, time, tol=1e-10)
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
            flow.integrate_flow(model, y0, 2.0, tol=1e-10)

    def test_nan_field_fails_without_hanging(self):
        # a NaN first step size once passed the too-small test forever; a
        # fresh interpreter with a timeout fails the test instead of hanging
        probe = (
            "import numpy as np\n"
            "from nhtrap import ode\n"
            "result = ode.solve_ivp(lambda t, y: np.full(2, np.nan), (0.0, 1.0), [1.0, 0.0])\n"
            "print(result.status)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["-1"]


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
