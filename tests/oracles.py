"""Reference computations the tests compare the package against.

Each oracle takes the slow, direct route to a quantity the package
computes another way: a dense eigensolve of the whole CAP matrix, the
Jacobian of the flow by integrating the variational equation next to the
orbit, and points on an invariant graph by following the flow out of the
saddle.  None of them is reached from the CLI.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from nhtrap import capspec, flow
from nhtrap.errors import GridTooCoarse
from nhtrap.ode import solve_ivp


def dense_eigenvalues(matrix, window: float = capspec.DEFAULT_WINDOW, floor=None):
    """`capspec.eigenvalues` by a dense O(n^3) eigensolve of the whole matrix.

    The same box (|Re z| < window, Im z above the floor or the numerical
    range), the same order and the same residuals and condition numbers;
    meant for small n.
    """
    zs, vecs = sla.eig(matrix.toarray())
    bottom = capspec._range_bottom(matrix) - capspec.DISSIPATIVITY_TOL
    if floor is not None:
        bottom = max(bottom, floor)
    keep = (np.abs(zs.real) < window) & (zs.imag > bottom)
    zs, vecs = zs[keep], vecs[:, keep]
    order = np.lexsort((zs.real, -zs.imag))
    zs, vecs = zs[order], vecs[:, order]
    return zs, capspec._certify(matrix, zs, vecs), capspec._conditions(vecs)


def joint_flow(model, start, time: float, tol: float = 1e-10):
    """(end state, Jacobian dphi^time) by integrating (y, V) together, with
    the variational equation V' = (J Hess p)(y) V and V flattened after y.

    Steps are controlled as in `flow.integrate_flow`: rtol from
    `flow.step_tolerance` and atol a hundredth of it.
    """
    d = model.dimension

    def rhs(t, z):
        y, V = z[:d], z[d:].reshape(d, d)
        return np.concatenate([model.hamilton_rhs(y), (model.variational_matrix(y) @ V).ravel()])

    z0 = np.concatenate([np.asarray(start, dtype=float), np.eye(d).ravel()])
    rtol = flow.step_tolerance(tol, time)
    sol = solve_ivp(rhs, (0.0, time), z0, rtol=rtol, atol=rtol * 1e-2)
    assert sol.status == 0, sol.message
    end = sol.y[:, -1]
    return end[:d].copy(), end[d:].reshape(d, d).copy()


def tangent_flow(model, start, time: float, tol: float = 1e-10) -> np.ndarray:
    """Jacobian dphi^time along the orbit through `start`."""
    return joint_flow(model, start, time, tol)[1]


def manifold_samples(
    pair,
    side: int,
    s_max: float = 5e-4,
    seed_size: float = 1e-7,
    n_points: int = 24,
) -> np.ndarray:
    """Points on the true invariant graph, by integrating the Hamilton flow
    from an eigenvector seed.  side=+1 follows the unstable graph (where
    phi_plus vanishes), side=-1 the stable one, grown backward in time."""
    gamma = pair.gamma_plus if side > 0 else pair.gamma_minus
    direction = np.asarray([1.0, gamma])
    direction = direction / np.linalg.norm(direction)
    y0 = pair.saddle + seed_size * direction
    span = 1.5 * math.log(2.0 * s_max / seed_size) / pair.mu
    tf = span if side > 0 else -span

    def outside(t, y):
        return pair.adapted_radius(y) - 2.0 * s_max

    outside.terminal = True
    sol = solve_ivp(
        lambda t, y: pair.model.hamilton_rhs(y),
        (0.0, tf),
        y0,
        rtol=1e-12,
        atol=1e-16,
        dense_output=True,
        event=outside,
    )
    t_end = sol.t[-1]
    ts = np.linspace(0.0, t_end, 400)
    pts = sol.sol(ts).T
    radii = pair.adapted_radius(pts.T)
    keep = (radii > 10 * seed_size) & (radii <= s_max)
    pts = pts[keep]
    if len(pts) < n_points:
        raise GridTooCoarse("too few manifold samples inside the window")
    idx = np.linspace(0, len(pts) - 1, n_points).astype(int)
    return pts[idx]
