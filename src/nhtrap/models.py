"""Hamiltonian model instances shared by the flow, certification, and spectral code.

A model packages a smooth symbol on R^{2n} (positions first, momenta second)
with its analytic gradient and Hessian.  The full Kerr model, the one that
flow-integrate flows, also carries its chart as a margin function: positive
inside, nonpositive at exit.  A model keeps no conserved set: flow-integrate
takes p from the model and the Carter constant from `kerr`.

The two-dimensional models are barrier symbols p = m(x)*xi^2 + v(x),
built by `barrier_model` from closed-form terms: the kinds of
`kerr.barrier` that escape-check certifies, and the reduced Kerr model
(the radial half of p at fixed beta, which trapping evaluates on the
photon shell).  Each has a hyperbolic saddle, whose rate sqrt(-det H) is
`saddle_rate`: escape builds its defining pair there and trapping its
normal chart.  Unbumped, they carry `third`, the symmetric 2x2x2 tensor
T_ijk = d^3 p / dy_i dy_j dy_k.  Their `gradient`, `hessian` and `third`
take y of shape (2, *batch) and return (2, *batch), (2, 2, *batch) and
(2, 2, 2, *batch), so a whole grid is one call; a single point of shape
(2,) gives plain vectors and matrices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import kerr
from .errors import NewtonDiverged, NotHyperbolic
# perfbench/tracer.py wraps ``models.radial_potential_derivs``
from .kerr import KerrParams, PhaseState, radial_potential_derivs  # noqa: F401

CHART_CAP_KERR_R = 200.0
SADDLE_STEP_TOL = 1e-13
SADDLE_MAX_ITER = 60
N_BUMPS = 3  # bumps in each BumpPattern
# the (r, xi) box of every BumpPattern at M = 1
BUMP_CENTER = (3.0, 0.0)
BUMP_SPAN = 0.6


@dataclass
class HamiltonianModel:
    """Symbol + derivatives (+ chart), on a 2- or 6-dimensional phase space."""

    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray] | None = None
    chart_margin: Callable[[np.ndarray], float] | None = None

    def hamilton_rhs(self, y: np.ndarray) -> np.ndarray:
        """Symplectic gradient: x' = dp/dxi, xi' = -dp/dx."""
        g = self.gradient(y)
        d = self.dimension // 2
        return np.concatenate([g[d:], -g[:d]])

    def variational_matrix(self, y: np.ndarray) -> np.ndarray:
        """Jacobian of the Hamilton field: J @ Hess(p)."""
        H = self.hessian(y)
        d = self.dimension // 2
        return np.vstack([H[d:, :], -H[:d, :]])


def saddle_rate(H, where) -> float:
    """Expansion rate sqrt(-det H) of the Hamilton field J H at a 2D saddle
    with symmetric Hessian H; NotHyperbolic, naming `where`, unless det H < 0."""
    det = H[0, 0] * H[1, 1] - H[0, 1] * H[0, 1]
    if not det < 0.0:
        raise NotHyperbolic(f"hessian determinant {det:.3e} >= 0 at {where}")
    return math.sqrt(-det)


def newton_saddle(gradient, hessian, guess) -> np.ndarray:
    """Critical point near ``guess`` of a 2D symbol with this gradient and Hessian.

    Newton on the gradient, each step halved until |grad p| decreases.
    The search ends with the first step shorter than SADDLE_STEP_TOL *
    max(1, |y|), taken in full: near the root |grad p| is rounding noise,
    which no damping can reduce.
    """
    y = np.asarray(guess, dtype=float)
    for _ in range(SADDLE_MAX_ITER):
        g = gradient(y)
        try:
            step = np.linalg.solve(hessian(y), -g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular Hessian at {y}") from exc
        if not np.all(np.isfinite(step)):
            raise NewtonDiverged(f"Newton step lost finiteness at {y}")
        if np.linalg.norm(step) < SADDLE_STEP_TOL * max(1.0, np.linalg.norm(y)):
            return y + step
        g_norm, lam = np.linalg.norm(g), 1.0
        while np.linalg.norm(gradient(y + lam * step)) >= g_norm:
            lam *= 0.5
            if lam < 1e-6:
                raise NewtonDiverged(f"damping stalled at {y}")
        y = y + lam * step
    raise NewtonDiverged(f"saddle search stalled near {y}")


class BumpPattern:
    """Deterministic sum of smooth compactly-supported bumps on the (r, xi) plane.

    Centers, widths, amplitudes and signs are drawn once, in that order
    and row by row, from the stdlib ``random.Random(seed)`` (the stdlib
    module is loaded anyway, numpy.random is not) and frozen; sup|pattern|
    is scaled to size * M^2 on its support, so `size` is the
    perturbation's epsilon.  The box of BUMP_CENTER and BUMP_SPAN is
    stretched by M along r only: under (M, a, r, alpha, beta) ->
    s (M, a, r, alpha, beta), xi fixed, the Kerr symbol scales by s^2, and
    so does the pattern.  Values and the first two derivative tensors are
    analytic (the classic exp(1 - 1/(1-u^2)) profile), so perturbed symbols
    keep exact gradients/Hessians.
    """

    def __init__(self, seed: int, mass: float, size: float):
        rng = random.Random(seed)

        def uniform(lo, hi, *shape):
            draws = [rng.uniform(lo, hi) for _ in range(math.prod(shape))]
            return np.reshape(draws, shape)

        stretch = np.asarray([mass, 1.0])
        center = np.asarray(BUMP_CENTER)
        self.centers = (center + BUMP_SPAN * uniform(-0.7, 0.7, N_BUMPS, 2)) * stretch
        self.widths = BUMP_SPAN * uniform(0.5, 0.9, N_BUMPS, 2) * stretch
        amps = uniform(0.5, 1.0, N_BUMPS) * np.asarray(
            [rng.choice((-1.0, 1.0)) for _ in range(N_BUMPS)]
        )
        # normalize: sup over a probe grid of the raw sum, polished off-grid
        self.amps = amps
        xs, ys = (
            np.linspace(c - 2 * BUMP_SPAN, c + 2 * BUMP_SPAN, 201) * k
            for c, k in zip(center, stretch)
        )
        grid = np.abs(self.value(xs[:, None], ys[None, :]))
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        self.peak_point = np.asarray([xs[i], ys[j]])
        try:
            # the grid argmax sits within a step of a smooth extremum
            self.peak_point = newton_saddle(
                lambda z: np.asarray(self.gradient(*z)),
                self._hessian_matrix,
                self.peak_point,
            )
        except NewtonDiverged:
            pass
        peak = max(float(grid[i, j]), abs(float(self.value(*self.peak_point))))
        # the probe grid holds every centre, so the peak is positive
        self.amps = amps / peak * (size * mass**2)

    def _hessian_matrix(self, z) -> np.ndarray:
        """The 2x2 Hessian at the point z, for `newton_saddle`."""
        hxx, hxy, hyy = self.hessian(*z)
        return np.asarray([[hxx, hxy], [hxy, hyy]])

    @staticmethod
    def _profile(u):
        """exp(1 - 1/(1-u^2)) on |u|<1, 0 outside; returns (b, b', b'')."""
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) < 1.0
        safe = np.where(inside, u, 0.0)
        q = 1.0 - safe * safe
        b = np.where(inside, np.exp(1.0 - 1.0 / q), 0.0)
        db = b * (-2.0 * safe / q**2)
        d2b = b * (
            (2.0 * safe / q**2) ** 2 - 2.0 / q**2 - 8.0 * safe * safe / q**3
        )
        return b, np.where(inside, db, 0.0), np.where(inside, d2b, 0.0)

    def value(self, x, y):
        total = 0.0
        for (cx, cy), (wx, wy), a in zip(self.centers, self.widths, self.amps):
            bx, _, _ = self._profile((x - cx) / wx)
            by, _, _ = self._profile((y - cy) / wy)
            total = total + a * bx * by
        return total

    def gradient(self, x, y):
        gx = 0.0
        gy = 0.0
        for (cx, cy), (wx, wy), a in zip(self.centers, self.widths, self.amps):
            bx, dbx, _ = self._profile((x - cx) / wx)
            by, dby, _ = self._profile((y - cy) / wy)
            gx = gx + a * dbx * by / wx
            gy = gy + a * bx * dby / wy
        return gx, gy

    def hessian(self, x, y):
        hxx = hxy = hyy = 0.0
        for (cx, cy), (wx, wy), a in zip(self.centers, self.widths, self.amps):
            bx, dbx, d2bx = self._profile((x - cx) / wx)
            by, dby, d2by = self._profile((y - cy) / wy)
            hxx = hxx + a * d2bx * by / wx**2
            hxy = hxy + a * dbx * dby / (wx * wy)
            hyy = hyy + a * bx * d2by / wy**2
        return hxx, hxy, hyy


def barrier_model(terms, bump: BumpPattern | None) -> HamiltonianModel:
    """p = m(x)*xi^2 + v(x) on the (x, xi) plane, plus an optional bump.

    `terms(x)` = ((m, m', m'', m'''), (v, v', v'', v''')), as `kerr.barrier`
    and `kerr.radial_symbol` give them.  The bump, of size epsilon, models
    symbol perturbations; the bumped model carries no `third`.
    """
    bumped = bump is not None

    def evaluate(y):
        x, xi = y[0], y[1]
        (m, *_), (v, *_) = terms(x)
        val = m * xi**2 + v
        if bumped:
            val = val + bump.value(x, xi)
        return val

    def gradient(y):
        x, xi = y[0], y[1]
        (m, m1, _, _), (_, v1, _, _) = terms(x)
        g = np.asarray([m1 * xi**2 + v1, 2.0 * m * xi])
        return g + np.asarray(bump.gradient(x, xi)) if bumped else g

    def hessian(y):
        x, xi = y[0], y[1]
        (m, m1, m2, _), (_, _, v2, _) = terms(x)
        h_xxi = 2.0 * m1 * xi
        H = np.asarray([[m2 * xi**2 + v2, h_xxi], [h_xxi, 2.0 * m]])
        if bumped:
            hxx, hxy, hyy = bump.hessian(x, xi)
            H = H + np.asarray([[hxx, hxy], [hxy, hyy]])
        return H

    def third(y):
        x, xi = y[0], y[1]
        (_, m1, m2, m3), (_, _, _, v3) = terms(x)
        T = np.zeros((2, 2, 2) + np.shape(x + xi))
        T[0, 0, 0] = m3 * xi**2 + v3
        T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = 2.0 * m2 * xi
        T[0, 1, 1] = T[1, 0, 1] = T[1, 1, 0] = 2.0 * m1
        return T

    return HamiltonianModel(
        dimension=2,
        evaluate=evaluate,
        gradient=gradient,
        hessian=hessian,
        third=None if bumped else third,
    )


def reduced_kerr_model(
    params: KerrParams, beta: float, bump: BumpPattern | None = None
) -> HamiltonianModel:
    """Autonomous (r, xi) subsystem at fixed beta: p = Delta*xi^2 + v_beta(r).

    The full flow's (r, xi) block closes on itself, and the reduced conserved
    quantity (carter - p of the full system) equals -p here.
    """
    return barrier_model(partial(kerr.radial_symbol, params, beta), bump)


def full_kerr_model(params: KerrParams) -> HamiltonianModel:
    """Six-dimensional exterior model of p on the (r, theta) chart."""
    rp = kerr.horizon_radius(params)

    def evaluate(y):
        return float(kerr.symbol_p(PhaseState.from_array(y), params))

    def gradient(y):
        g = kerr._grad_p(params, y[0], y[1], y[3], y[4], y[5])
        return np.asarray(g, dtype=float)

    def hessian(y):
        return kerr.hessian_p(PhaseState.from_array(y), params)

    def margin(y):
        return min(
            y[0] - (rp + kerr.DEFAULT_R_MARGIN),
            CHART_CAP_KERR_R - y[0],
            y[1] - kerr.DEFAULT_THETA_MARGIN,
            np.pi - kerr.DEFAULT_THETA_MARGIN - y[1],
        )

    return HamiltonianModel(
        dimension=6,
        evaluate=evaluate,
        gradient=gradient,
        hessian=hessian,
        chart_margin=margin,
    )
