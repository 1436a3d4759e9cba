"""Reference computations the tests compare the package against.

Each oracle takes the slow, direct route to a quantity the package
computes another way: a dense eigensolve of the whole CAP matrix, the
Jacobian of the flow by integrating the variational equation next to the
orbit, a shell orbit's field with its tangential cocycle by integrating
the 20-component variational system with scipy's DOP853 (over its first
quarter theta-period, over one whole period, and at any real time from
that period and its monodromy), where the package holds the orbit in
closed form, points on an invariant graph by following the flow
out of the saddle, a perturbing bump pattern summed one bump at a
time, and the six-dimensional symbol of a (bumped) reduced
family at a shell point, the normal bundles of a shell orbit as
eigenvectors of its six-dimensional J Hess p, and the embedding
differential of a shell orbit, which the package reads off the reduced
(r, xi) symbol instead.  The
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
from nhtrap.models import HamiltonianModel, saddle_rate
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


def shell_rhs(orbit):
    """Field of (u, intrinsic 4x4 Jacobian X) on a shell orbit, in the units
    of M: z = (D^-1 u, D^-1 X D), d/dtau = (1/M) d/dt, D = diag(1, 1, M, M).

    The intrinsic variational matrix is (H_alpha, H_beta, -H_theta, 0) E
    with E the embedding differential: beta is conserved, so only its
    first three rows are formed, and the last row of X' is zero.  Those
    rows of Hess p hold p_aa = 2, (p_br, p_bt, p_bb) and (p_tt, p_tb)
    only, and E's beta column weighs p_br by r_s', so the three rows are

        [[0, 0, 2, 0], [p_tb, 0, 0, c], [-p_tt, 0, 0, -p_tb]],

    with c = v_rb r_s' + v_bb + p_bb.  In the units of M they become
    [[0, 0, 2, 0], [p_tb/M, 0, 0, c], [-p_tt/M^2, 0, 0, -p_tb/M]] and the
    velocity (p_alpha/M, p_beta/M, -p_theta/M^2, 0).
    """
    fam, m = orbit.family, orbit.mass
    v_b, v_rb, v_bb = kerr.radial_terms(fam.params, orbit.beta, fam.saddle(orbit.beta)[0])[4:]
    dr = fam.saddle_derivative(orbit.beta)[0]

    def rhs(t, z):
        theta, _, alpha, beta = z[:4]
        X = z[4:].reshape(4, 4)
        p_t, p_a, p_b, p_tt, p_tb, p_bb = kerr.angular_derivs(
            fam.params, theta, alpha * m, beta * m
        )
        c = v_rb * dr + (v_bb + p_bb)
        rows = np.asarray([[0.0, 0.0, 2.0, 0.0], [p_tb / m, 0.0, 0.0, c],
                           [-p_tt / m**2, 0.0, 0.0, -p_tb / m], np.zeros(4)])
        velocity = [p_a / m, (v_b + p_b) / m, -p_t / m**2, 0.0]
        return np.concatenate([velocity, (rows @ X).ravel()])

    return rhs


def shell_start(orbit) -> np.ndarray:
    """The start (D^-1 u0, I) of `shell_rhs`."""
    units = np.asarray([1.0, 1.0, orbit.mass, orbit.mass])
    return np.concatenate([orbit.u0 / units, np.eye(4).ravel()])


def integrated_quarter(orbit, tol: float):
    """(M t_q, dense sigma -> (D^-1 u, D^-1 X D)) of a shell orbit, by
    integrating `shell_rhs` with scipy's DOP853 until alpha first falls
    through 0, where theta turns: the package's route before its closed form."""

    def turn(t, z):
        return z[2]

    turn.direction = -1.0
    turn.terminal = True
    sol = scipy_solve_ivp(shell_rhs(orbit), (0.0, 100.0), shell_start(orbit), method="DOP853",
                          rtol=tol, atol=tol * 1e-2, events=turn, dense_output=True)
    assert sol.status == 1, sol.message
    return float(sol.t_events[0][0]), sol.sol


def shell_frame(orbit) -> np.ndarray:
    """Orthonormal intrinsic 4x3 frame of the shell tangent at the start of
    a shell orbit at M = 1: the start velocity of `shell_rhs`, e_phi and the
    beta direction (0, 0, -p_beta/p_alpha, 1) along the lambda shell."""
    v = shell_rhs(orbit)(0.0, shell_start(orbit))[:4]
    basis = np.column_stack([v, [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -v[1] / v[0], 1.0]])
    return np.linalg.qr(basis)[0]


def full_period_cocycle(orbit, horizon: float, tol: float):
    """(period, monodromy X(P), dense s -> (u, X) on [0, P]) of a shell
    orbit at M = 1 by integrating one whole theta-period of `shell_rhs`
    directly with scipy's DOP853: the first upward return of theta to its
    start, with no use of the quarter symmetries."""
    theta0 = orbit.u0[0]

    def crossing(t, z):
        return z[0] - theta0

    crossing.direction = 1.0
    crossing.terminal = 2  # the first root is the start itself, t = 0
    sol = scipy_solve_ivp(shell_rhs(orbit), (0.0, horizon), shell_start(orbit),
                          method="DOP853", rtol=tol, atol=tol * 1e-2, events=crossing,
                          dense_output=True)
    assert sol.status == 1, sol.message
    return float(sol.t_events[0][-1]), sol.y_events[0][-1][4:].reshape(4, 4), sol.sol


def periodic_cocycle(orbit, horizon: float, tol: float):
    """(P, t -> X(t)) of a shell orbit for any real t, or a stack of X for
    an array of times: `full_period_cocycle` continued by fact 3 of
    `trapping`, X(s + mP) = X(s) (I + mN) with N = X(P) - I."""
    period, monodromy, dense = full_period_cocycle(orbit, horizon, tol)
    shear = monodromy - np.eye(4)

    def cocycle(t):
        m, s = np.divmod(t, period)
        X = np.moveaxis(dense(s)[4:].reshape(4, 4, *np.shape(s)), (0, 1), (-2, -1))
        return X @ (np.eye(4) + np.multiply.outer(m, shear))

    return period, cocycle


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


def normal_bundles(orbit) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (e_+, e_-) in (r, phi, xi) of a shell orbit's unstable
    and stable normal bundles: the eigenvectors of the top and bottom real
    eigenvalues of the (r, phi, xi) block of the six-dimensional J Hess p
    at the orbit's start, by a general 3x3 eigensolve."""
    block = [0, 2, 3]
    H = symbol_grad_hess(orbit.family, embed(orbit, orbit.u0))[1]
    A6 = np.vstack([H[3:, :], -H[:3, :]])
    eigvals, eigvecs = np.linalg.eig(A6[np.ix_(block, block)])
    out = []
    for i in (np.argmax(eigvals.real), np.argmin(eigvals.real)):
        e = eigvecs[:, i].real
        out.append(e / np.linalg.norm(e))
    return out[0], out[1]


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


def bump_loop(bump, x, y):
    """(value, gradient, Hessian) of a `models.BumpPattern` at (x, y), one
    bump at a time: the per-bump sum the one-pass evaluation replaces."""
    value = gx = gy = hxx = hxy = hyy = 0.0
    for (cx, cy), (wx, wy), a in zip(bump.centers, bump.widths, bump.amps):
        bx, dbx, d2bx = bump._profile((x - cx) / wx)
        by, dby, d2by = bump._profile((y - cy) / wy)
        value = value + a * bx * by
        gx = gx + a * dbx * by / wx
        gy = gy + a * bx * dby / wy
        hxx = hxx + a * d2bx * by / wx**2
        hxy = hxy + a * dbx * dby / (wx * wy)
        hyy = hyy + a * bx * d2by / wy**2
    return value, (gx, gy), (hxx, hxy, hyy)


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
    mu = saddle_rate(pair.model.hessian(pair.saddle), "the saddle")
    span = 1.5 * math.log(2.0 * s_max / seed_size) / mu
    tf = span if side > 0 else -span

    def inside(t, y):
        return 2.0 * s_max - pair.adapted_radius(y)

    inside.terminal = True
    inside.direction = -1.0
    sol = scipy_solve_ivp(
        lambda t, y: pair.model.hamilton_rhs(y),
        (0.0, tf),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-16,
        dense_output=True,
        events=inside,
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
