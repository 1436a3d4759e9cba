"""Adaptive Dormand-Prince 8(5,3) integration, dense output and events.

One explicit Runge-Kutta integrator serves the shell cocycle (`trapping`)
and the orbit segments of `flow`.  It follows the DOP853 code of Hairer,
Norsett and Wanner step for step, as scipy's ``solve_ivp`` does with its
DOP853 method: the same tableau, the same initial-step rule, the E3/E5
error norm, and step factors bounded by SAFETY, MIN_FACTOR and
MAX_FACTOR.  It takes the same steps, makes the same number of field
evaluations and returns the same numbers, without importing scipy.

Events follow the same contract: an event function g(t, y) may carry
``direction`` (only crossings of that sign count) and ``terminal`` (True,
or the count of crossings that ends the integration).  Crossing times are
located by `brentq` on the step's dense output.

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
N_STAGES_EXTENDED = 16  # three more stages feed the dense output

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
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
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

A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
                                      2.53500210216624811088794765333e-1,
                                      -2.46239037470802489917441475441e-1,
                                      -1.24191423263816360469010140626e-1,
                                      1.5329179827876569731206322685e-1,
                                      8.20105229563468988491666602057e-3,
                                      7.56789766054569976138603589584e-3,
                                      -8.298e-3]

A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
                                       2.83009096723667755288322961402e-2,
                                       5.35419883074385676223797384372e-2,
                                       -5.49237485713909884646569340306e-2,
                                       -1.08347328697249322858509316994e-4,
                                       3.82571090835658412954920192323e-4,
                                       -3.40465008687404560802977114492e-4,
                                       1.41312443674632500278074618366e-1]

A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
                                      -4.69762141536116384314449447206,
                                      7.68342119606259904184240953878,
                                      4.06898981839711007970213554331,
                                      3.56727187455281109270669543021e-1,
                                      -1.39902416515901462129418009734e-3,
                                      2.9475147891527723389556272149,
                                      -9.15095847217987001081870187138]

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

# dense output: the last four of the seven interpolant coefficients
D = np.zeros((4, N_STAGES_EXTENDED))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]


# -- scalar roots --------------------------------------------------------------


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = EVENT_TOL,
           maxiter: int = 100) -> float:
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
    for _ in range(maxiter):
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
    raise ConvergenceFailure(f"no root within {maxiter} iterations on [{a:g}, {b:g}]")


# -- dense output ----------------------------------------------------------------


class DenseSolution:
    """Piecewise interpolant y(t) over the accepted steps, one per step.

    ``steps`` holds (t_old, h, y_old, F) per step: the degree-7 DOP853
    interpolant y_old + x(F0 + (1-x)(F1 + x(F2 + ...))), x = (t - t_old)/h.
    Step k serves [ts[k], ts[k+1]]; a time on a boundary belongs to the
    earlier step, and times outside ts extrapolate the nearest step.
    """

    def __init__(self, ts, steps):
        self.ts = np.asarray(ts, dtype=float)
        t_old, h, y_old, coeffs = zip(*steps)
        self.t_old, self.h = np.asarray(t_old), np.asarray(h)
        self.y_old = np.asarray(y_old)  # (steps, n)
        self.coeffs = np.asarray(coeffs)  # (steps, 7, n)

    def __call__(self, t):
        """y(t) of shape (n,) for a scalar t, (n, len(t)) for an array."""
        t = np.asarray(t, dtype=float)
        last = len(self.h) - 1
        if self.ts[-1] >= self.ts[0]:
            seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, last)
        else:
            seg = last - np.clip(
                np.searchsorted(self.ts[::-1], t, side="right") - 1, 0, last
            )
        x = ((t - self.t_old[seg]) / self.h[seg])[..., None]
        F = self.coeffs[seg]
        y = np.zeros_like(self.y_old[seg])
        for i in range(F.shape[-2]):
            y += F[..., -1 - i, :]
            y *= x if i % 2 == 0 else 1.0 - x
        y += self.y_old[seg]
        return y.T


# -- the integrator ----------------------------------------------------------------


@dataclass
class OdeResult:
    t: np.ndarray  # accepted step times, ending at the terminal event if one fired
    y: np.ndarray  # (n, len(t)) states at those times
    sol: DenseSolution | None  # with dense_output only
    t_events: np.ndarray  # event times, empty without an event
    y_events: np.ndarray  # (len(t_events), n) states at those times
    nfev: int
    status: int  # 0 end reached, 1 terminal event, -1 step too small
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
        self.K = np.empty((N_STAGES_EXTENDED, y0.size))
        self.f = self.fun(t0, y0)
        self.h_abs = self._initial_step()
        self.t_old = self.y_old = self.h_previous = None

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
        K = self.K[:N_STAGES + 1]
        err5 = np.dot(K.T, E5) / scale
        err3 = np.dot(K.T, E3) / scale
        err5_2 = np.linalg.norm(err5) ** 2
        err3_2 = np.linalg.norm(err3) ** 2
        if err5_2 == 0 and err3_2 == 0:
            return 0.0
        return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))

    def _rk_step(self, h):
        t, y, K = self.t, self.y, self.K
        K[0] = self.f
        for s in range(1, N_STAGES):
            dy = np.dot(K[:s].T, A[s, :s]) * h
            K[s] = self.fun(t + C[s] * h, y + dy)
        y_new = y + h * np.dot(K[:N_STAGES].T, B)
        K[N_STAGES] = f_new = self.fun(t + h, y_new)
        return y_new, f_new

    def step(self) -> bool:
        """Take one accepted step; False when the step size underflows."""
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = self._rk_step(h)
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
        self.h_previous, self.t_old, self.y_old = h, t, y
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs, f_new
        return True

    @property
    def finished(self) -> bool:
        return self.direction * (self.t - self.t_bound) >= 0

    def dense_step(self):
        """(t_old, h, y_old, F) of the last accepted step, F of shape (7, n)."""
        K, h = self.K, self.h_previous
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            dy = np.dot(K[:s].T, A[s, :s]) * h
            K[s] = self.fun(self.t_old + C[s] * h, self.y_old + dy)
        F = np.empty((7, self.y.size))
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(D, K)
        return self.t_old, self.t - self.t_old, self.y_old, F


def solve_ivp(fun, t_span, y0, rtol: float = 1e-3, atol: float = 1e-6,
              event=None, dense_output: bool = False) -> OdeResult:
    """Integrate y' = fun(t, y) over t_span = (t0, tf); tf < t0 runs backward.

    ``rtol`` below RTOL_MIN is raised to it; ``atol`` is a scalar.  Every
    call of ``fun``, those of the dense output included, counts in
    ``nfev``.  ``event`` is one event function g(t, y) with the optional
    ``direction`` and ``terminal`` attributes.  With ``dense_output`` the
    result's ``sol`` interpolates the whole run.
    """
    t0, tf = map(float, t_span)
    if t0 == tf:
        raise ValueError("t_span must have nonzero length")
    y0 = np.asarray(y0, dtype=float)
    stepper = _Stepper(fun, t0, y0, tf, max(rtol, RTOL_MIN), atol)
    ts, ys, steps = [t0], [y0], []
    t_events, y_events = [], []
    if event is not None:
        direction = getattr(event, "direction", 0)
        terminal = getattr(event, "terminal", None)
        if not (terminal is None or (int(terminal) == terminal and terminal >= 0)):
            raise ValueError("an event's `terminal` must be a boolean or a positive integer")
        max_events = int(terminal) if terminal else np.inf
        g = event(t0, y0)

    status = None
    while status is None:
        if not stepper.step():
            status = -1
            break
        if stepper.finished:
            status = 0
        t_old, t, y = stepper.t_old, stepper.t, stepper.y
        step = stepper.dense_step() if dense_output else None
        if dense_output:
            steps.append(step)
        if event is not None:
            g_new = event(t, y)
            up, down = g <= 0 <= g_new, g_new <= 0 <= g
            if up and direction >= 0 or down and direction <= 0:
                sol = DenseSolution([t_old, t], [step or stepper.dense_step()])
                root = brentq(lambda s: event(s, sol(s)), t_old, t,
                              xtol=EVENT_TOL, rtol=EVENT_TOL)
                t_events.append(root)
                y_events.append(sol(root))
                if len(t_events) >= max_events:
                    status = 1
                    t, y = root, y_events[-1]
            g = g_new
        if dense_output and len(ts) > 1 and ts[-1] == t:
            steps.pop()
        else:
            ts.append(t)
            ys.append(y)

    return OdeResult(
        t=np.asarray(ts),
        y=np.vstack(ys).T,
        sol=DenseSolution(ts, steps) if dense_output and steps else None,
        t_events=np.asarray(t_events),
        y_events=np.asarray(y_events),
        nfev=stepper.nfev,
        status=status,
        message=MESSAGES[status],
    )
