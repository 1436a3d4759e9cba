"""Hamiltonian flow integration of one orbit segment.

`integrate_flow` advances a state along the Hamilton field of a model
with the adaptive DOP853 of `nhtrap.ode`, whose event stops an orbit where
the chart margin first falls to 0.  Only the end state is transported;
the linearized flow of the photon shell comes from `trapping`'s exact
cocycle, not from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartExit, DomainError, StepFailure
from .models import HamiltonianModel
from .ode import RTOL_MIN, solve_ivp


@dataclass
class FlowResult:
    """Endpoint data of one integrated orbit segment."""

    end_state: np.ndarray
    nfev: int


def step_tolerance(tol: float, time: float) -> float:
    """Per-step tolerance tol / (2 max(1, |time|)), at least `ode.RTOL_MIN`.

    It does not deliver `tol` end to end.  On the quick-survey orbit
    (a = 0.5, r = 8, beta = 4), one run over [0, 1] at its rtol 5e-11
    drifts 2.67e-8 in p and in the Carter constant at its own accepted
    steps (1,286 RHS calls), and 2.83e-7 at flow-integrate's 201 sample
    times read off scipy's DOP853 dense output (1,535).
    """
    return min(tol, max(tol / (2.0 * max(1.0, abs(time))), RTOL_MIN))


def integrate_flow(
    model: HamiltonianModel,
    start: np.ndarray,
    time: float,
    tol: float,
) -> FlowResult:
    """Flow `start` for `time` (may be negative) along the Hamilton field.

    `tol` sets the stepping (see `step_tolerance`); the run configuration
    keeps ``tol.flow`` in its accepted range.  The restarts, not `tol`,
    set the accuracy: flow-integrate's 200 segments over that orbit drift
    8.1e-13 in p and 9.9e-13 in Carter (2,860 RHS calls).  Raises
    DomainError when `start` is not inside the model's chart,
    ChartExit (with the exit time) when the orbit hits the chart margin,
    StepFailure when the adaptive integrator gives up.
    """
    start = np.asarray(start, dtype=float)
    if model.chart_margin is not None and not model.chart_margin(start) > 0.0:
        raise DomainError(f"start state {start.tolist()} is outside the chart")

    def exit_event(t, y):
        return model.chart_margin(y)

    rtol = step_tolerance(tol, time)
    sol = solve_ivp(
        lambda t, y: model.hamilton_rhs(y),
        (0.0, time),
        start,
        rtol=rtol,
        atol=rtol * 1e-2,
        event=exit_event if model.chart_margin is not None else None,
    )
    if sol.status == -1:
        raise StepFailure(f"integrator failed at t={sol.t[-1]}: {sol.message}")

    if sol.status == 1:  # chart event fired
        reached = float(sol.t[-1])
        raise ChartExit(f"orbit left the chart at t={reached}", exit_time=reached)
    return FlowResult(end_state=sol.y[:, -1].copy(), nfev=int(sol.nfev))
