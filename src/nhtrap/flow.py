"""Hamiltonian flow integration with joint variational transport.

The integrator advances the state together with the full Jacobian dphi^t
(an extra d^2 components), so symplecticity is measurable on every run.
Tolerances feed the adaptive DOP853 of `nhtrap.ode`, whose terminal
chart-exit event stops an orbit at the chart margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartExit, DomainError, InvalidHorizon, StepFailure
from .models import HamiltonianModel
from .ode import solve_ivp

TOL_MIN, TOL_MAX = 1e-13, 1e-6


@dataclass
class FlowResult:
    """Endpoint data of one integrated orbit segment."""

    end_state: np.ndarray
    jacobian: np.ndarray | None
    nfev: int
    time: float


def _check_tol(tol: float) -> None:
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise InvalidHorizon(
            f"tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]"
        )


def step_tolerance(tol: float, time: float) -> float:
    """Per-step tolerance delivering `tol` end to end over `time`.

    Local truncation errors accumulate roughly linearly in the step count,
    so long horizons need proportionally tighter stepping; 1e-14 is the
    float64 floor below which tightening buys nothing.
    """
    return min(tol, max(tol / (2.0 * max(1.0, abs(time))), 1e-14))


def _joint_rhs(model: HamiltonianModel, with_jacobian: bool):
    d = model.dimension

    def rhs(t, z):
        y = z[:d]
        dy = model.hamilton_rhs(y)
        if not with_jacobian:
            return dy
        V = z[d:].reshape(d, d)
        A = model.variational_matrix(y)
        return np.concatenate([dy, (A @ V).ravel()])

    return rhs


def integrate_flow(
    model: HamiltonianModel,
    start: np.ndarray,
    time: float,
    tol: float = 1e-10,
    with_jacobian: bool = True,
) -> FlowResult:
    """Flow `start` for `time` (may be negative), transporting the Jacobian.

    Raises DomainError when `start` is not inside the model's chart,
    ChartExit (with exit time and the partial result attached) when the
    orbit hits the chart margin, StepFailure when the adaptive integrator
    gives up.
    """
    _check_tol(tol)
    start = np.asarray(start, dtype=float)
    if model.chart_margin is not None and not model.chart_margin(start) > 0.0:
        raise DomainError(f"start state {start.tolist()} is outside the chart")
    d = model.dimension
    z0 = start
    if with_jacobian:
        z0 = np.concatenate([start, np.eye(d).ravel()])

    def exit_event(t, z):
        return model.chart_margin(z[:d])

    exit_event.terminal = True
    exit_event.direction = -1

    rtol = step_tolerance(tol, time)
    sol = solve_ivp(
        _joint_rhs(model, with_jacobian),
        (0.0, time),
        z0,
        rtol=rtol,
        atol=rtol * 1e-2,
        event=exit_event if model.chart_margin is not None else None,
    )
    if sol.status == -1:
        raise StepFailure(f"integrator failed at t={sol.t[-1]}: {sol.message}")

    reached = float(sol.t[-1])
    end = sol.y[:d, -1].copy()
    jac = sol.y[d:, -1].reshape(d, d).copy() if with_jacobian else None
    result = FlowResult(
        end_state=end,
        jacobian=jac,
        nfev=int(sol.nfev),
        time=reached,
    )
    if sol.status == 1:  # chart event fired
        raise ChartExit(
            f"orbit left the chart at t={reached}", exit_time=reached,
            partial=result,
        )
    return result


def tangent_flow(
    model: HamiltonianModel, start: np.ndarray, time: float, tol: float = 1e-10
) -> np.ndarray:
    """Jacobian dphi^time along the orbit through `start`."""
    return integrate_flow(model, start, time, tol, with_jacobian=True).jacobian
