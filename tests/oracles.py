"""Reference computations the tests compare the package against.

Each oracle takes the slow, direct route to a quantity the package
computes another way: a dense eigensolve of the whole CAP matrix, the
Jacobian of the flow by integrating the variational equation next to the
orbit, a shell orbit's tangential cocycle over one whole theta-period
(by scipy's DOP853), points on an invariant graph by following the flow
out of the saddle, and the six-dimensional symbol of a (bumped) reduced
family at a shell point and the embedding differential of a shell orbit,
which the package reads off the reduced (r, xi) symbol instead.  The
normal form xi^2 - x^2 of a barrier top is kept here too, as the exact
reference escape's constructions are checked on.  None of them is
reached from the CLI.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp as scipy_solve_ivp

from nhtrap import capspec, flow, kerr
from nhtrap.errors import GridTooCoarse
from nhtrap.kerr import PhaseState
from nhtrap.models import HamiltonianModel
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


def full_period_cocycle(orbit, horizon: float, tol: float):
    """(period, monodromy X(P), dense s -> (u, X) on [0, P]) of a shell
    orbit by integrating one whole theta-period directly with scipy's
    DOP853: the first upward return of theta to its start, with no use of
    the quarter symmetries."""
    theta0 = orbit.u0[0]

    def crossing(t, z):
        return z[0] - theta0

    crossing.direction = 1.0
    crossing.terminal = 2  # the first root is the start itself, t = 0
    z0 = np.concatenate([orbit.u0, np.eye(4).ravel()])
    sol = scipy_solve_ivp(orbit.rhs, (0.0, horizon), z0, method="DOP853", rtol=tol,
                          atol=tol * 1e-2, events=crossing, dense_output=True)
    assert sol.status == 1, sol.message
    return float(sol.t_events[0][-1]), sol.y_events[0][-1][4:].reshape(4, 4), sol.sol


def embed(orbit, u) -> np.ndarray:
    """The six-dimensional point (r_s, theta, phi, xi_s, alpha, beta) of the
    intrinsic u = (theta, phi, alpha, beta) on a shell orbit."""
    r_s, xi_s = orbit.family.saddle(orbit.beta)
    return np.asarray([r_s, u[0], u[1], xi_s, u[2], u[3]], dtype=float)


def embed_diff(orbit) -> np.ndarray:
    """The 6x4 differential of u -> `embed(orbit, u)`: unit columns for
    theta, phi and alpha, and (r_s', 0, 0, xi_s', 0, 1) for beta."""
    E = np.zeros((6, 4))
    E[[1, 2, 4, 5], [0, 1, 2, 3]] = 1.0
    E[[0, 3], 3] = orbit.family.saddle_derivative(orbit.beta)
    return E


def symbol_value(family, y6) -> float:
    """The family's symbol at y6: the Kerr symbol plus its (r, xi) bump."""
    value = float(kerr.symbol_p(PhaseState.from_array(y6), family.params))
    if family.bump is not None:
        value += float(family.bump.value(y6[0], y6[3]))
    return value


def symbol_grad_hess(family, y6):
    """Gradient (6,) and Hessian (6, 6) of the family's symbol at y6:
    `kerr._grad_hess` plus the bump embedded in the (r, xi) slots."""
    g, H = kerr._grad_hess(family.params, y6[0], y6[1], y6[3], y6[4], y6[5])
    if family.bump is not None:
        bx, bxi = family.bump.gradient(y6[0], y6[3])
        hxx, hxy, hyy = family.bump.hessian(y6[0], y6[3])
        g[0], g[3] = g[0] + bx, g[3] + bxi
        H[0, 0], H[3, 3] = H[0, 0] + hxx, H[3, 3] + hyy
        H[0, 3] = H[3, 0] = H[0, 3] + hxy
    return g, H


def manifold_samples(
    pair,
    side: int,
    s_max: float = 5e-4,
    seed_size: float = 1e-7,
    n_points: int = 24,
) -> np.ndarray:
    """Points on the true invariant graph, by integrating the Hamilton flow
    from an eigenvector seed.  side=+1 follows the unstable graph (where
    phi+ vanishes), side=-1 the stable one, grown backward in time."""
    gamma = pair.gamma_plus if side > 0 else pair.gamma_minus
    direction = np.asarray([1.0, gamma])
    direction = direction / np.linalg.norm(direction)
    y0 = pair.saddle + seed_size * direction
    span = 1.5 * math.log(2.0 * s_max / seed_size) / pair.mu
    tf = span if side > 0 else -span

    def inside(t, y):
        return 2.0 * s_max - pair.adapted_radius(y)

    sol = solve_ivp(
        lambda t, y: pair.model.hamilton_rhs(y),
        (0.0, tf),
        y0,
        rtol=1e-12,
        atol=1e-16,
        dense_output=True,
        event=inside,
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


def toy_barrier_model() -> HamiltonianModel:
    """p = xi^2 - x^2: the exact normal form of a 1D hyperbolic barrier."""

    def evaluate(y):
        return y[1] ** 2 - y[0] ** 2

    def gradient(y):
        return np.asarray([-2.0 * y[0], 2.0 * y[1]])

    def hessian(y):
        zero = np.zeros(np.shape(y[0]))
        return np.asarray([[zero - 2.0, zero], [zero, zero + 2.0]])

    def third(y):
        return np.zeros((2, 2, 2) + np.shape(y[0]))

    return HamiltonianModel(
        dimension=2,
        evaluate=evaluate,
        gradient=gradient,
        hessian=hessian,
        third=third,
    )
