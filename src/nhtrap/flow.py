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
    time: float


def step_tolerance(tol: float, time: float) -> float:
    """Per-step tolerance delivering `tol` end to end over `time`.

    Local truncation errors accumulate roughly linearly in the step count,
    so long horizons need proportionally tighter stepping; `ode.RTOL_MIN`
    (100 eps) is the floor below which the integrator tightens no further.
    """
    return min(tol, max(tol / (2.0 * max(1.0, abs(time))), RTOL_MIN))


def integrate_flow(
    model: HamiltonianModel,
    start: np.ndarray,
    time: float,
    tol: float,
) -> FlowResult:
    """Flow `start` for `time` (may be negative) along the Hamilton field.

    `tol` is the end-to-end tolerance (see `step_tolerance`); the run
    configuration keeps ``tol.flow`` in its accepted range.  Raises
    DomainError when `start` is not inside the model's chart,
    ChartExit (with exit time and the partial result attached) when the
    orbit hits the chart margin, StepFailure when the adaptive integrator
    gives up.
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

    reached = float(sol.t[-1])
    result = FlowResult(end_state=sol.y[:, -1].copy(), nfev=int(sol.nfev), time=reached)
    if sol.status == 1:  # chart event fired
        raise ChartExit(
            f"orbit left the chart at t={reached}", exit_time=reached,
            partial=result,
        )
    return result
