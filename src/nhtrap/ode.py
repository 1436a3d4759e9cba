"""Adaptive Dormand-Prince 8(5,3) integration with a stop event.

One explicit Runge-Kutta integrator serves the orbit segments of `flow`.
It follows the DOP853 code of Hairer, Norsett and Wanner step for step,
as scipy's ``solve_ivp`` does with its DOP853 method: the same tableau,
the same initial-step rule, the E3/E5 error norm, and step factors bounded
by SAFETY, MIN_FACTOR and MAX_FACTOR.  It takes the same steps, makes the
same number of field evaluations and returns the same numbers, without
importing scipy; an event changes only the end of a run.

One event function g(t, y) may end a run at its first downward zero, in
the first step over which g falls from >= 0 to <= 0: scipy's contract
for one event with ``direction = -1`` and ``terminal = True``.  The zero
is located by `brentq` on g(s, y(s)), where y(s) is that step retaken
from its start to each trial time s, the method's own eighth-order
solution there; scipy reads y(s) off a dense-output interpolant instead.

The tableau is transcribed from scipy's ``dop853_coefficients.py`` (BSD
licence), which transcribes the Fortran DOP853 of E. Hairer and G. Wanner,
"Solving Ordinary Differential Equations I: Nonstiff Problems", Sec. II.10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NoBracket

EPS = np.finfo(float).eps
RTOL_MIN = 100 * EPS  # tighter relative tolerances are raised to this
EVENT_TOL = 4 * EPS  # xtol and rtol of the event-time root
BRENTQ_MAXITER = 100  # iterations before brentq gives up, as in scipy

SAFETY = 0.9
MIN_FACTOR = 0.2  # smallest step-size decrease
MAX_FACTOR = 10.0  # largest step-size increase
ERROR_EXPONENT = -1.0 / 8.0  # the error estimator is of order 7

MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}

# -- tableau -----------------------------------------------------------------

N_STAGES = 12

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
])

A = np.zeros((N_STAGES + 1, N_STAGES + 1))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, :2] = [1.97250569845378994544595329183e-2,
            5.91751709536136983633785987549e-2]

A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                8.87627564304205475450678981324e-2]

A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                   -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]

A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                   1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]

A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                      1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2,
                      -1.7578125e-2]

A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                         1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1,
                         -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]

A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                            -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1,
                            2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1,
                            -4.34898841810699588477366255144e1]

A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                               -2.48811461997166764192642586468,
                               -5.90290826836842996371446475743e-1,
                               2.12300514481811942347288949897e1,
                               1.52792336328824235832596922938e1,
                               -3.32882109689848629194453265587e1,
                               -2.03312017085086261358222928593e-2]

A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                   5.18637242884406370830023853209,
                                   1.09143734899672957818500254654,
                                   -8.14978701074692612513997267357,
                                   -1.85200656599969598641566180701e1,
                                   2.27394870993505042818970056734e1,
                                   2.49360555267965238987089396762,
                                   -3.0467644718982195003823669022]

A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                       -1.05344954667372501984066689879e1,
                                       -2.00087205822486249909675718444,
                                       -1.79589318631187989172765950534e1,
                                       2.79488845294199600508499808837e1,
                                       -2.85899827713502369474065508674,
                                       -8.87285693353062954433549289258,
                                       1.23605671757943030647266201528e1,
                                       6.43392746015763530355970484046e-1]

# row 12 holds the weights B of the eighth-order solution
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                     4.45031289275240888144113950566,
                                     1.89151789931450038304281599044,
                                     -5.8012039600105847814672114227,
                                     3.1116436695781989440891606237e-1,
                                     -1.52160949662516078556178806805e-1,
                                     2.01365400804030348374776537501e-1,
                                     4.47106157277725905176885569043e-2]

B = A[N_STAGES, :N_STAGES]

# error weights: E5 of the fifth-order and E3 of the third-order estimate
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                  -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1]

# -- scalar roots --------------------------------------------------------------


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = EVENT_TOL) -> float:
    """Root of f in the bracket [a, b] by Brent's method.

    Inverse quadratic interpolation, falling back to bisection whenever a
    step would leave the bracket or shrink it too slowly.  The iterate x
    ends within xtol + rtol*|x| of a sign change of f.  The step rules are
    those of scipy's ``brentq``, so the roots agree to the last bit.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise NoBracket(f"f has one sign at both ends of [{a:.17g}, {b:.17g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise ConvergenceFailure(f"no root within {BRENTQ_MAXITER} iterations on [{a:g}, {b:g}]")


# -- the integrator ----------------------------------------------------------------


@dataclass
class OdeResult:
    t: np.ndarray  # accepted step times, ending at the event time if it fired
    y: np.ndarray  # (n, len(t)) states at those times
    nfev: int
    status: int  # 0 end reached, 1 event zero reached, -1 step too small
    message: str


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class _Stepper:
    """Adaptive DOP853 state: one accepted step per `step` call."""

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float,
                 rtol: float, atol: float):
        self.nfev = 0
        self._fun = fun
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.direction = np.sign(t_bound - t0)
        self.K = np.empty((N_STAGES + 1, y0.size))
        self.f = self.fun(t0, y0)
        self.h_abs = self._initial_step()

    def fun(self, t, y):
        self.nfev += 1
        return self._fun(t, y)

    def _initial_step(self) -> float:
        """Hairer-Norsett-Wanner initial step for an order-7 error estimate."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun(t0 + h0 * self.direction, y0 + h0 * self.direction * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval)

    def _error_norm(self, h, scale) -> float:
        err5 = np.dot(self.K.T, E5) / scale
        err3 = np.dot(self.K.T, E3) / scale
        err5_2 = np.linalg.norm(err5) ** 2
        err3_2 = np.linalg.norm(err3) ** 2
        if err5_2 == 0 and err3_2 == 0:
            return 0.0
        return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))

    def _rk_step(self, t, y, f, h):
        """The eighth-order solution at t + h from y = y(t) and f = y'(t)."""
        K = self.K
        K[0] = f
        for s in range(1, N_STAGES):
            dy = np.dot(K[:s].T, A[s, :s]) * h
            K[s] = self.fun(t + C[s] * h, y + dy)
        return y + h * np.dot(K[:N_STAGES].T, B)

    def step(self) -> bool:
        """Take one accepted step; False when the step size underflows."""
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails too
                return False
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new = self._rk_step(t, y, self.f, h)
            self.K[N_STAGES] = f_new = self.fun(t + h, y_new)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error = self._error_norm(h, scale)
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(
                    MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT
                )
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs, f_new
        return True

    @property
    def finished(self) -> bool:
        return self.direction * (self.t - self.t_bound) >= 0


def solve_ivp(fun, t_span, y0, rtol: float = 1e-3, atol: float = 1e-6,
              event=None) -> OdeResult:
    """Integrate y' = fun(t, y) over t_span = (t0, tf); tf < t0 runs backward.

    ``rtol`` below RTOL_MIN is raised to it; ``atol`` is a scalar.  Every
    call of ``fun``, those of the event's retaken steps included, counts
    in ``nfev``.  ``event`` is an optional function g(t, y); the run ends at
    its first downward zero with status 1, and then ``t[-1]`` is the zero.
    A rise through 0 does nothing.
    """
    t0, tf = map(float, t_span)
    if t0 == tf:
        raise ValueError("t_span must have nonzero length")
    y0 = np.asarray(y0, dtype=float)
    stepper = _Stepper(fun, t0, y0, tf, max(rtol, RTOL_MIN), atol)
    ts, ys = [t0], [y0]
    if event is not None:
        g = event(t0, y0)

    status = None
    while status is None:
        t_old, y_old, f_old = stepper.t, stepper.y, stepper.f
        if not stepper.step():
            status = -1
            break
        if stepper.finished:
            status = 0
        t, y = stepper.t, stepper.y
        if event is not None:
            g_new = event(t, y)
            if g_new <= 0 <= g:
                def retaken(s):
                    return stepper._rk_step(t_old, y_old, f_old, s - t_old)

                t = brentq(lambda s: event(s, retaken(s)), t_old, t,
                           xtol=EVENT_TOL, rtol=EVENT_TOL)
                y = retaken(t)
                status = 1
            g = g_new
        ts.append(t)
        ys.append(y)

    return OdeResult(
        t=np.asarray(ts),
        y=np.vstack(ys).T,
        nfev=stepper.nfev,
        status=status,
        message=MESSAGES[status],
    )
