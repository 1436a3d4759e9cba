"""Hamiltonian model instances shared by the flow, certification, and spectral code.

A model packages a smooth symbol on R^{2n} (positions first, momenta second)
with analytic gradient/Hessian and the conserved quantities the integrator
monitors.  Charts are encoded as a margin function: positive inside,
nonpositive at exit.

The two-dimensional models also carry `third`, the symmetric 2x2x2 tensor
T_ijk = d^3 p / dy_i dy_j dy_k of third derivatives, where it is known in
closed form (the toy and the unbumped reduced Kerr model); otherwise it is
None.  Their `gradient`, `hessian` and `third` take y of shape (2, *batch)
and return (2, *batch), (2, 2, *batch) and (2, 2, 2, *batch), so a whole
grid is one call; a single point of shape (2,) gives plain vectors and
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kerr
from .errors import NewtonDiverged
from .kerr import KerrParams, PhaseState, radial_potential, radial_potential_derivs

CHART_CAP_TOY = 1e6
CHART_CAP_KERR_R = 200.0
SADDLE_STEP_TOL = 1e-13
SADDLE_MAX_ITER = 60


@dataclass
class HamiltonianModel:
    """Symbol + derivatives + conserved set, on a 2- or 6-dimensional phase space."""

    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray] | None = None
    conserved_list: dict[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict
    )
    chart_margin: Callable[[np.ndarray], float] | None = None
    name: str = "model"

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


def newton_saddle(model: HamiltonianModel, guess) -> np.ndarray:
    """Critical point of a two-dimensional symbol near ``guess``.

    Newton on the gradient, each step halved until |grad p| decreases.
    The search ends with the first step shorter than SADDLE_STEP_TOL *
    max(1, |y|), taken in full: near the root |grad p| is rounding noise,
    which no damping can reduce.
    """
    y = np.asarray(guess, dtype=float)
    for _ in range(SADDLE_MAX_ITER):
        g = model.gradient(y)
        try:
            step = np.linalg.solve(model.hessian(y), -g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular Hessian at {y}") from exc
        if not np.all(np.isfinite(step)):
            raise NewtonDiverged(f"Newton step lost finiteness at {y}")
        if np.linalg.norm(step) < SADDLE_STEP_TOL * max(1.0, np.linalg.norm(y)):
            return y + step
        g_norm, lam = np.linalg.norm(g), 1.0
        while np.linalg.norm(model.gradient(y + lam * step)) >= g_norm:
            lam *= 0.5
            if lam < 1e-6:
                raise NewtonDiverged(f"damping stalled at {y}")
        y = y + lam * step
    raise NewtonDiverged(f"saddle search stalled near {y}")


class BumpPattern:
    """Deterministic sum of smooth compactly-supported bumps on the (x, xi) plane.

    Centers, widths, and signed amplitudes are drawn once from the seed and
    frozen; sup|pattern| is scaled to 1 on its support.  Values and the
    first two derivative tensors are analytic (the classic exp(1 - 1/(1-u^2))
    profile), so perturbed symbols keep exact gradients/Hessians.
    """

    def __init__(self, seed: int, center: tuple[float, float], span: float,
                 n_bumps: int = 3):
        rng = np.random.default_rng(seed)
        self.centers = center + span * rng.uniform(-0.7, 0.7, size=(n_bumps, 2))
        self.widths = span * rng.uniform(0.5, 0.9, size=(n_bumps, 2))
        amps = rng.uniform(0.5, 1.0, size=n_bumps) * rng.choice(
            [-1.0, 1.0], size=n_bumps
        )
        # normalize: sup over a probe grid of the raw sum, polished off-grid
        self.amps = amps
        xs = np.linspace(center[0] - 2 * span, center[0] + 2 * span, 201)
        ys = np.linspace(center[1] - 2 * span, center[1] + 2 * span, 201)
        grid = np.abs(self.value(xs[:, None], ys[None, :]))
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        self.peak_point = np.asarray([xs[i], ys[j]])
        try:
            # the grid argmax sits within a step of a smooth extremum
            self.peak_point = newton_saddle(self._critical_model(), self.peak_point)
        except NewtonDiverged:
            pass
        peak = max(float(grid[i, j]), abs(float(self.value(*self.peak_point))))
        if peak > 0:
            self.amps = amps / peak

    def _critical_model(self) -> HamiltonianModel:
        """The pattern as a two-dimensional symbol, for `newton_saddle`."""

        def hessian(z):
            hxx, hxy, hyy = self.hessian(*z)
            return np.asarray([[hxx, hxy], [hxy, hyy]])

        return HamiltonianModel(
            dimension=2,
            evaluate=lambda z: self.value(*z),
            gradient=lambda z: np.asarray(self.gradient(*z)),
            hessian=hessian,
            name="bump_pattern",
        )

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


def toy_barrier_model() -> HamiltonianModel:
    """p = xi^2 - x^2: the 1D hyperbolic barrier normal form."""

    def evaluate(y):
        return y[1] ** 2 - y[0] ** 2

    def gradient(y):
        return np.asarray([-2.0 * y[0], 2.0 * y[1]])

    def hessian(y):
        zero = np.zeros(np.shape(y[0]))
        return np.asarray([[zero - 2.0, zero], [zero, zero + 2.0]])

    def third(y):
        return np.zeros((2, 2, 2) + np.shape(y[0]))

    def margin(y):
        return CHART_CAP_TOY - max(abs(y[0]), abs(y[1]))

    return HamiltonianModel(
        dimension=2,
        evaluate=evaluate,
        gradient=gradient,
        hessian=hessian,
        third=third,
        conserved_list={"energy": evaluate},
        chart_margin=margin,
        name="toy_barrier",
    )


def reduced_kerr_model(
    params: KerrParams,
    beta: float,
    bump: BumpPattern | None = None,
    epsilon: float = 0.0,
) -> HamiltonianModel:
    """Autonomous (r, xi) subsystem at fixed beta: p = Delta*xi^2 + v_beta(r).

    The full flow's (r, xi) block closes on itself, and the reduced conserved
    quantity (carter - p of the full system) equals -p here.  An optional
    bump perturbation epsilon*dp(r, xi) models symbol perturbations; the
    bumped model carries no `third`.
    """
    rp = kerr.horizon_radius(params)
    bumped = bump is not None and epsilon != 0.0

    def evaluate(y):
        r, xi = y[0], y[1]
        val = kerr.delta(params, r) * xi**2 + radial_potential(params, beta, r)
        if bumped:
            val = val + epsilon * bump.value(r, xi)
        return val

    def gradient(y):
        r, xi = y[0], y[1]
        dl = kerr.delta(params, r)
        dl1 = 2.0 * (r - params.mass)
        _, v1, _, _ = radial_potential_derivs(params, beta, r)
        gr = dl1 * xi**2 + v1
        gxi = 2.0 * dl * xi
        if bumped:
            bx, bxi = bump.gradient(r, xi)
            gr = gr + epsilon * bx
            gxi = gxi + epsilon * bxi
        return np.asarray([gr, gxi])

    def hessian(y):
        r, xi = y[0], y[1]
        dl = kerr.delta(params, r)
        dl1 = 2.0 * (r - params.mass)
        _, _, v2, _ = radial_potential_derivs(params, beta, r)
        H = np.asarray(
            [[2.0 * xi**2 + v2, 2.0 * dl1 * xi], [2.0 * dl1 * xi, 2.0 * dl]]
        )
        if bumped:
            hxx, hxy, hyy = bump.hessian(r, xi)
            H = H + epsilon * np.asarray([[hxx, hxy], [hxy, hyy]])
        return H

    def third(y):
        # p_rrr = v_rrr, p_rrxi = 2 Delta'' xi, p_rxixi = 2 Delta', p_xixixi = 0
        r, xi = y[0], y[1]
        _, _, _, v3 = radial_potential_derivs(params, beta, r)
        T = np.zeros((2, 2, 2) + np.shape(r + xi))
        T[0, 0, 0] = v3
        T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = 4.0 * xi
        T[0, 1, 1] = T[1, 0, 1] = T[1, 1, 0] = 4.0 * (r - params.mass)
        return T

    def margin(y):
        return min(y[0] - (rp + kerr.DEFAULT_R_MARGIN), CHART_CAP_KERR_R - y[0])

    return HamiltonianModel(
        dimension=2,
        evaluate=evaluate,
        gradient=gradient,
        hessian=hessian,
        third=None if bumped else third,
        conserved_list={"energy": evaluate},
        chart_margin=margin,
        name=f"reduced_kerr(beta={beta:g})",
    )


def full_kerr_model(params: KerrParams) -> HamiltonianModel:
    """Six-dimensional exterior model carrying (p, beta, carter)."""
    rp = kerr.horizon_radius(params)

    def evaluate(y):
        return float(kerr.symbol_p(PhaseState.from_array(y), params))

    def gradient(y):
        g = kerr._grad_p(params, y[0], y[1], y[3], y[4], y[5])
        return np.asarray(g, dtype=float)

    def hessian(y):
        return kerr.hessian_p(PhaseState.from_array(y), params)

    def carter(y):
        return float(kerr.carter(params, y[1], y[4], y[5]))

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
        conserved_list={
            "p": evaluate,
            "beta": lambda y: float(y[5]),
            "carter": carter,
        },
        chart_margin=margin,
        name=f"full_kerr(M={params.mass:g},a={params.spin:g})",
    )
