"""High-pass generalized integrator (HGI) filter pair.

The HGI turns the sensed grid voltage into a quadrature pair: a band-pass
in-phase channel and a high-pass quadrature channel,

    G_alpha(s) =  k * s * w0 / (s^2 + k*w0*s + w0^2)
    G_beta(s)  = -k * s^2    / (s^2 + k*w0*s + w0^2)

Both have zero dc gain, which is what rejects input dc offsets.  This
module provides the continuous-domain frequency response, a forward-Euler
discrete realization, closed-form step-response settling times and the
search for the gain k with the fastest settling.

Settling is read off the closed-form step response on the grid t = i*dt
over 12 slow-pole time constants, but only on short windows of it: one at
each channel's peak and one at its last exit from the settling band.
Closed-form lobe times place the windows and a bisection finds the band
crossing; every value compared against the band is evaluated on the grid
itself, so the settle instants are the same grid points as on the whole
grid, which is evaluated only at the repeated root k = 2 and on a grid too
coarse to sample the alpha peak.  One array pass does this for a whole
table of gains (``design_settling_times``): the gains are split into
underdamped and overdamped ones, each round evaluates the windows of all
of them as one array, and the bisection steps every row at once, each
along the midpoints a scalar bisection would take.  ``settling_times`` is
its one-gain call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import EXACT, SampleError, bind_pass
from .signal_model import NOMINAL_OMEGA0

#: Per-sample arithmetic budget of the forward-Euler HGI update.
HGI_MULS_PER_STEP = 4
HGI_ADDS_PER_STEP = 6

#: Budget of the basic SOGI variant (low-pass quadrature channel).
BASIC_SOGI_MULS_PER_STEP = 3
BASIC_SOGI_ADDS_PER_STEP = 4

#: Forward-Euler stability guard: require omega0 * Ts below this.
EULER_GUARD = 0.1

#: Horizon after which an unsettled response is reported as unstable.
SETTLING_HORIZON = 1.0

#: Settling band, relative to the peak step response.
SETTLING_TOLERANCE = 0.02

#: Time step of the closed-form step response that settling is measured
#: on, and so of the settling table both design procedures rank k on.
DESIGN_SETTLING_DT = 2e-6

#: Grid points on each side of a response peak or band crossing that
#: ``settling_times`` evaluates.
SETTLING_WINDOW = 8

#: Relative margin between an analytic lobe top and the evaluated
#: response values it bounds, which carry rounding.
_TOP_MARGIN = 1e-9


@dataclass(frozen=True)
class HgiParams:
    """Gain and nominal center frequency of the HGI filter pair."""

    k: float
    omega0: float = NOMINAL_OMEGA0

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError("k must be finite and > 0")
        if not 0 < self.omega0 < math.inf:
            raise ValueError("omega0 must be finite and > 0")


def quadrature_gains(k, omega0, omega):
    """Complex gains (G_alpha, G_beta) for gains ``k`` at angular
    frequencies ``omega`` (rad/s); all arguments broadcast."""
    s = 1j * np.asarray(omega, dtype=float)
    den = s * s + k * omega0 * s + omega0 * omega0
    return k * s * omega0 / den, -k * s * s / den


def freq_response(params: HgiParams, omega) -> tuple[complex, complex]:
    """Complex gains (G_alpha, G_beta) at angular frequency ``omega``.

    Accepts a scalar or an array of frequencies in rad/s.
    """
    g_alpha, g_beta = quadrature_gains(params.k, params.omega0, omega)
    if np.isscalar(omega):
        return complex(g_alpha), complex(g_beta)
    return g_alpha, g_beta


def check_euler(params: HgiParams, sample_period: float) -> None:
    """Raise ``ValueError`` unless forward Euler at ``sample_period`` is
    stable for the filter pair: omega0 * Ts below ``EULER_GUARD``."""
    if not sample_period > 0:
        raise ValueError("sample_period must be > 0")
    if params.omega0 * sample_period >= EULER_GUARD:
        raise ValueError("sample rate too low for Euler stability")


class QuadratureFilter:
    """Forward-Euler discrete realization shared by the filter pairs.

    State x1 is the band-pass output v_alpha, x2 the second integrator
    state.  ``arith`` is an arithmetic policy (see ``hgipll.arith``);
    by default the filter runs in exact float64, through the hook-free
    form of ``process`` (``arith.float64_pass``).  Subclasses define only
    ``process``, the pass over a whole input sequence; ``step`` is its
    one-sample call.
    """

    def __init__(self, params: HgiParams, sample_period: float, arith=None):
        check_euler(params, sample_period)
        q = arith if arith is not None else EXACT
        bind_pass(self, q)
        self._signal = q.signal
        self._k = q.coeff(params.k)
        self._c1 = q.coeff(params.k * params.omega0 * sample_period)
        self._c2 = q.coeff(params.omega0 * sample_period)
        self._x1 = 0.0
        self._x2 = 0.0

    def step(self, v_g):
        """Advance one sample; returns (v_alpha, v_beta)."""
        v_alpha, v_beta = [0.0], [0.0]
        self.process([v_g], v_alpha, v_beta)
        return v_alpha[0], v_beta[0]


class HgiFilter(QuadratureFilter):
    """The HGI pair: band-pass alpha channel, high-pass beta channel.

    x2 is scaled so that the update needs 4 multiplications and 6
    additions (the input summer feeds the alpha update and the beta output
    path separately, as in the counted hardware dataflow).
    """

    def process(self, v_g, v_alpha, v_beta):
        """Advance over every sample of ``v_g``, writing sample i's outputs
        to ``v_alpha[i]`` and ``v_beta[i]``.  A sample whose arithmetic
        raises raises ``SampleError``; the state then stays as it was
        before the pass."""
        q, k, c1, c2 = self._signal, self._k, self._c1, self._c2
        x1, x2 = self._x1, self._x2
        try:
            for i, v in enumerate(v_g):
                u = v - x1                 # alpha-path input summer
                r = v - x1                 # beta-path input summer
                v_beta[i] = q(x2 - k * r)
                v_alpha[i] = x1
                x1, x2 = q(x1 + c1 * u - c2 * x2), q(x2 + c2 * x1)
        except (ValueError, OverflowError) as exc:
            raise SampleError(i) from exc
        self._x1, self._x2 = x1, x2


class BasicSogiFilter(QuadratureFilter):
    """Basic SOGI: same band-pass channel, low-pass quadrature channel.

    G_beta,basic(s) = k*w0^2 / (s^2 + k*w0*s + w0^2).  It does not block
    dc, which is exactly the weakness the HGI removes; kept as the
    comparison baseline.  3 multiplications and 4 additions per sample.
    """

    def process(self, v_g, v_alpha, v_beta):
        """As ``HgiFilter.process``, with v_beta the state x2."""
        q, c1, c2 = self._signal, self._c1, self._c2
        x1, x2 = self._x1, self._x2
        try:
            for i, v in enumerate(v_g):
                u = v - x1
                v_alpha[i] = x1
                v_beta[i] = x2
                x1, x2 = q(x1 + c1 * u - c2 * x2), q(x2 + c2 * x1)
        except (ValueError, OverflowError) as exc:
            raise SampleError(i) from exc
        self._x1, self._x2 = x1, x2


def _poles(k, w0):
    """sigma = k*w0/2 and sqrt(|disc|) of the poles of s^2 + k*w0*s + w0^2
    for each gain in ``k``, and masks of the gains at the repeated root
    and of the underdamped ones."""
    # float_power rounds k*w0 squared as the scalar pow does, which
    # differs from (k*w0)*(k*w0) in the last bit for about 0.1 % of gains
    disc = np.float_power(k * w0, 2) - 4 * w0 * w0
    root = np.sqrt(np.abs(disc))
    repeated = root < 1e-9 * w0
    return k * w0 / 2, root, repeated, ~repeated & (disc < 0)


def _repeated_root(sigma, root, t):
    e = np.exp(-sigma * t)
    return t * e, e * (1 - sigma * t)


def _complex_pair(sigma, root, t):
    wd = root / 2
    e = np.exp(-sigma * t)
    sin, cos = np.sin(wd * t), np.cos(wd * t)
    return e * sin / wd, e * (cos - sigma / wd * sin)


def _real_pair(sigma, root, t):
    r1, r2 = -sigma + root / 2, -sigma - root / 2
    e1, e2 = np.exp(r1 * t), np.exp(r2 * t)
    return (e1 - e2) / (r1 - r2), (r1 * e1 - r2 * e2) / (r1 - r2)


def _responses(k: np.ndarray, w0: float, t: np.ndarray):
    """Unit-step responses (y_alpha, y_beta) of each gain in the 1-D array
    ``k`` at the times in the same row of the 2-D array ``t``: the form
    behind ``step_responses`` and every value the settling table compares
    against its band."""
    sigma, root, repeated, under = _poles(k, w0)
    h2, h2p = np.empty_like(t), np.empty_like(t)
    for form, rows in ((_repeated_root, repeated), (_complex_pair, under),
                       (_real_pair, ~repeated & ~under)):
        if rows.any():
            h2[rows], h2p[rows] = form(sigma[rows, None], root[rows, None],
                                       t[rows])
    k = k[:, None]
    return k * w0 * h2, -k * h2p


def step_responses(params: HgiParams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form unit-step responses of G_alpha and G_beta at times t.

    Built from the impulse response h2 of 1/(s^2 + k*w0*s + w0^2): the
    alpha step response is k*w0*h2 and the beta step response is -k*h2'.
    Everything is real-valued: a complex pole pair -sigma +/- j*wd gives
    e^(-sigma*t) times sin/cos, two real poles two exponentials, and a
    repeated root t*e^(-sigma*t).
    """
    t = np.asarray(t, dtype=float)
    y_alpha, y_beta = _responses(np.array([params.k]), params.omega0,
                                 t.reshape(1, -1))
    return y_alpha.reshape(t.shape), y_beta.reshape(t.shape)


class _Lobes:
    """Lobes of both step responses of the gains ``k``, one row per (gain,
    channel) pair: row 2*j + c is channel c (0 alpha, 1 beta) of gain j.

    Lobe m of a row tops at max(0, (m + top)*unit) and ends at
    (m + end)*unit, except that lobe ``final`` never ends.  Subclasses set
    those arrays and give ``mag``, |y| of each row at the times of an
    array, and ``last``, the last lobe of each row that starts before
    t_end and whose top exceeds level (lobe 0 if none).
    """

    final = math.inf

    def __init__(self, k, w0):
        self.w0 = w0
        self.k, self.c = np.repeat(k, 2), np.tile((0, 1), len(k))
        self.alpha = self.c == 0
        self.sigma, self.root = _poles(self.k, w0)[:2]

    def lobe(self, m):
        """(top, end) times of lobe m of each row."""
        top = np.maximum(0.0, (m + self.top) * self.unit)
        return top, np.where(m >= self.final, np.inf,
                             (m + self.end) * self.unit)

    def crossing(self, m, band, n, dt, rows):
        """Grid index at which lobe m of each row in the mask ``rows`` falls
        through ``band``; the last grid point when the lobe is still above
        the band there.  Each row bisects the time of the fall until its
        bracket is no wider than dt or has no float strictly inside."""
        lo, hi = self.lobe(m)
        hi = np.minimum(hi, (n - 1) * dt)
        falls = rows & (lo < hi) & ~(self.mag(hi) > band)
        go = falls.copy()
        while True:
            mid = 0.5 * (lo + hi)
            go &= (hi - lo > dt) & (lo < mid) & (mid < hi)
            if not go.any():
                break
            above = self.mag(mid) > band
            np.copyto(lo, mid, where=go & above)
            np.copyto(hi, mid, where=go & ~above)
        return np.where(falls, np.floor(hi / dt), n - 1).astype(np.int64)


class _Underdamped(_Lobes):
    """Lobes for the pole pairs -sigma +/- j*wd.

    |y_alpha| = A*e^(-sigma*t)*|sin(wd*t)| and
    |y_beta| = A*e^(-sigma*t)*|cos(wd*t + theta)|, with A = k*w0/wd and
    tan(theta) = sigma/wd, so every lobe top of either channel is
    k*e^(-sigma*t).  In units of pi/wd, lobe m of alpha tops at
    m + 1/2 - theta/pi and ends at its zero m + 1; lobe m of beta tops at
    m - 2*theta/pi (at t = 0 for m = 0) and ends at m + 1/2 - theta/pi.
    """

    def __init__(self, k, w0):
        super().__init__(k, w0)
        self.wd = self.root / 2
        self.gain = self.k * w0 / self.wd
        self.theta = np.arctan(self.sigma / self.wd)
        self.unit = np.pi / self.wd
        zero = 0.5 - self.theta / np.pi
        self.top = np.where(self.alpha, zero, -2 * self.theta / np.pi)
        self.end = np.where(self.alpha, 1.0, zero)

    def mag(self, t):
        e = self.gain * np.exp(-self.sigma * t)
        x = self.wd * t
        return e * np.abs(np.where(self.alpha, np.sin(x),
                                   np.cos(x + self.theta)))

    def last(self, t_end, level):
        reach = np.log(self.k / level) / self.sigma
        m = np.minimum(t_end / self.unit + 1 - self.end,
                       reach / self.unit - self.top)
        return np.maximum(np.ceil(m).astype(np.int64) - 1, 0)


class _Overdamped(_Lobes):
    """Lobes for the real poles r2 < r1 < 0.

    y_alpha rises to its one top at z = ln(r2/r1)/(r1 - r2) and decays;
    y_beta falls from -k at t = 0 to its zero at z, then has one lobe
    with its top at 2*z.  In units of 2*z, alpha's lobe 0 tops at 1/2;
    beta's lobe 0 tops at 0 and ends at 1/2, and its lobe 1 tops at 1.
    """

    def __init__(self, k, w0):
        super().__init__(k, w0)
        self.r1 = -self.sigma + self.root / 2
        self.r2 = -self.sigma - self.root / 2
        self.unit = 2 * (np.log(self.r2 / self.r1) / (self.r1 - self.r2))
        self.top = np.where(self.alpha, 0.5, 0.0)
        self.end = 0.5
        self.final = np.where(self.alpha, 0, 1)

    def mag(self, t):
        r1, r2 = self.r1, self.r2
        e1, e2 = np.exp(r1 * t), np.exp(r2 * t)
        return np.where(self.alpha, self.k * self.w0 * (e1 - e2) / (r1 - r2),
                        self.k * np.abs(r1 * e1 - r2 * e2) / (r1 - r2))

    def last(self, t_end, level):
        # beta's lobe 1 counts only if its top exceeds the level
        above = self.mag(self.lobe(1)[0]) > level
        return np.where(self.alpha | above, self.final, 0)


#: Offsets of the grid points of a window from its centre.
_WINDOW = np.arange(-SETTLING_WINDOW, SETTLING_WINDOW + 1)


def _window(i: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Indices of the grid points within ``SETTLING_WINDOW`` of each point
    i, one row each, clipped to the grid 0..n-1: a clipped window repeats
    its end point."""
    return np.clip(i[:, None] + _WINDOW, 0, (n - 1)[:, None])


def _magnitudes(lobes: _Lobes, i: np.ndarray, dt: float,
                rows=slice(None)) -> np.ndarray:
    """|y| of each of the ``rows`` of ``lobes`` at the grid points i*dt of
    its row of i."""
    y_alpha, y_beta = _responses(lobes.k[rows], lobes.w0, i * dt)
    return np.abs(np.where(lobes.alpha[rows, None], y_alpha, y_beta))


def _last_outside(mag: np.ndarray, band) -> int:
    """Index of the last point of ``mag`` above ``band``; -1 if none."""
    outside = np.flatnonzero(mag > band)
    return int(outside[-1]) if outside.size else -1


def _windowed_exits(kind, k: np.ndarray, w0: float, n: np.ndarray,
                    dt: float):
    """Grid index of the last point of each step response of the gains
    ``k`` (all of one damping ``kind``) outside the band (-1 if none),
    read from windows of their grids of lengths ``n``; and a mask of the
    gains whose grid samples both peaks above every later lobe top.  The
    indices of the other gains are -1, to be read from the whole grid.

    The peak of a channel is the largest grid point of the window at its
    first lobe top: |y| rises and falls once over that lobe, and every
    later lobe top is below it.  The last band exit lies in the window at
    the fall of the last lobe whose top exceeds the band: later lobes
    stay inside the band, and the fall is monotone.  If that window holds
    no point outside the band, the lobe's top slipped between grid
    points, and the lobe before it is tried in the next round.
    """
    lobes = kind(k, w0)
    n_rows = np.repeat(n, 2)
    centre = np.round(lobes.lobe(0)[0] / dt).astype(np.int64)
    peak = _magnitudes(lobes, _window(centre, n_rows), dt).max(axis=1)
    bound = np.where(lobes.final >= 1, lobes.mag(lobes.lobe(1)[0]), 0.0)
    sampled = (peak > bound * (1 + _TOP_MARGIN)).reshape(-1, 2).all(axis=1)
    exits = np.full((len(k), 2), -1)
    if not sampled.all():
        if sampled.any():
            exits[sampled] = _windowed_exits(kind, k[sampled], w0,
                                             n[sampled], dt)[0]
        return exits, sampled
    exits = exits.reshape(-1)
    band = SETTLING_TOLERANCE * peak
    lobe = lobes.last((n_rows - 1) * dt, band * (1 - _TOP_MARGIN))
    active = np.ones(len(n_rows), dtype=bool)
    while active.any():
        rows = np.flatnonzero(active)
        centre = lobes.crossing(lobe, band, n_rows, dt, active)[rows]
        w = _window(centre, n_rows[rows])
        outside = _magnitudes(lobes, w, dt, rows) > band[rows, None]
        hit = outside.any(axis=1)
        last = 2 * SETTLING_WINDOW - np.argmax(outside[:, ::-1], axis=1)
        exits[rows[hit]] = w[hit, last[hit]]
        done = hit | (lobe[rows] == 0)
        active[rows[done]] = False
        lobe[rows[~done]] -= 1
    return exits.reshape(-1, 2), sampled


def _unsettled(k: float, horizon: float) -> ValueError:
    return ValueError(f"the HGI step response at k = {k:g} does not "
                      f"settle within {horizon:g} s")


def _settling_grids(k: np.ndarray, w0: float, dt: float):
    """Horizon and length of the grid t = i*dt that settling is read from,
    for each gain in ``k`` before the first one refused ahead of its pole
    arithmetic, and the error that refuses that gain (None if none is).
    The length is that of np.arange(0.0, horizon, dt)."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # slowest pole decay rate: zeta*w0 when underdamped, the slow real
        # pole when overdamped; 12 time constants comfortably brackets any
        # 2% settling instant
        rate = 0.5 * (k - np.sqrt(np.maximum(k * k - 4.0, 0.0))) * w0
        horizon = np.minimum(SETTLING_HORIZON, 12 / rate + 0.005)
        # such a slow pole cannot settle; refused before the pole
        # arithmetic, where a rate that underflowed, cancelled or
        # overflowed would fail
        slow = ~(rate * SETTLING_HORIZON > 1)
        # a grid index must be exact in float64 for i*dt to be the point
        too_fine = ~(horizon / dt < 2**53)
    invalid = ~((0 < k) & (k < math.inf))
    refused = invalid | slow | too_fine
    error, j = None, len(k)
    if refused.any():
        j = int(np.argmax(refused))
        if invalid[j]:
            error = ValueError("k must be finite and > 0")
        elif slow[j]:
            error = _unsettled(float(k[j]), SETTLING_HORIZON)
        else:
            error = ValueError("dt is too small for the settling grid")
    return horizon[:j], np.ceil(horizon[:j] / dt).astype(np.int64), error


def _settling_grid(params: HgiParams, dt: float) -> tuple[float, int]:
    """``_settling_grids`` for one gain: its horizon and grid length."""
    horizon, n, error = _settling_grids(np.array([params.k]),
                                        params.omega0, dt)
    if error:
        raise error
    return float(horizon[0]), int(n[0])


def _settling_table(ks, w0: float, dt: float):
    """Settling times (t_s_alpha, t_s_beta) of every gain in ``ks``, as two
    arrays; see ``settling_times``.  Raises the error of the first gain in
    ``ks`` that is refused or does not settle."""
    k = np.asarray(ks, dtype=float)
    if not k.size:
        return np.empty(0), np.empty(0)
    horizon, n, error = _settling_grids(k, w0, dt)
    k = k[:len(n)]
    _, _, repeated, under = _poles(k, w0)
    exits = np.full((len(k), 2), -1)
    whole = repeated.copy()
    for kind, rows in ((_Underdamped, under),
                       (_Overdamped, ~repeated & ~under)):
        if rows.any():
            exits[rows], sampled = _windowed_exits(kind, k[rows], w0,
                                                   n[rows], dt)
            whole[rows] = ~sampled
    for j in np.flatnonzero(whole):
        ys = _responses(k[j:j + 1], w0, np.arange(n[j])[None] * dt)
        exits[j] = [_last_outside(mag, SETTLING_TOLERANCE * mag.max())
                    for mag in np.abs(ys)[:, 0]]
    ts = np.where(exits + 1 >= n[:, None], np.inf, (exits + 1) * dt)
    unsettled = np.isinf(ts).any(axis=1)
    if unsettled.any():
        j = int(np.argmax(unsettled))
        raise _unsettled(float(k[j]), float(horizon[j]))
    if error:
        raise error
    return ts[:, 0], ts[:, 1]


def settling_times(
    params: HgiParams, dt: float = DESIGN_SETTLING_DT
) -> tuple[float, float, float]:
    """Step-response settling times (t_s_alpha, t_s_beta, max of both).

    Settling is measured on the closed-form response sampled at t = i*dt
    over 12 slow-pole time constants: the last time the output leaves
    the +/-2 % band around its final value (zero, both channels have no
    dc gain), with the band referenced to the peak response magnitude.
    This is the one-gain call of the array pass behind
    ``design_settling_times``, which evaluates only short windows of the
    grid, at each channel's peak and at its last exit from the band (see
    ``_windowed_exits``), so the result equals that of the whole grid,
    which is evaluated only at the repeated root k = 2 and on a grid too
    coarse to sample the alpha peak.  A ``dt`` that is not finite and > 0
    or that gives the grid 2**53 points or more, a response still outside
    the band at the end of the grid, or a slow pole with a time constant
    of the horizon or longer raises ``ValueError``.
    """
    (ts_a,), (ts_b,) = _settling_table([params.k], params.omega0, dt)
    ts_a, ts_b = float(ts_a), float(ts_b)
    return ts_a, ts_b, max(ts_a, ts_b)


def k_opt_search(
    k_range: tuple[float, float] = (0.1, 4.0),
    resolution: float = 0.01,
) -> tuple[float, float]:
    """Grid search for the gain with the fastest combined settling time,
    measured at the design step ``DESIGN_SETTLING_DT``.

    Returns (k_opt, minimum t_s_hgi); ties break toward smaller k.
    """
    k_min, k_max = k_range
    if not 0 < k_min <= k_max:
        raise ValueError("need 0 < k_min <= k_max")
    ks = k_grid(k_min, k_max, resolution)
    ts = design_settling_times(ks)
    # argmin returns the first minimum: ties go to the smaller k
    i = int(np.argmin(ts))
    return ks[i], float(ts[i])


def design_settling_times(ks) -> np.ndarray:
    """Combined settling time of every gain in ``ks`` at the design step
    ``DESIGN_SETTLING_DT``: the table both design procedures rank k on.

    One array pass serves every gain: the slow-pole and grid guards run on
    the whole array first; then, for the underdamped and the overdamped
    gains in turn, each round evaluates one window per channel and gain
    as one (rows, 2*SETTLING_WINDOW + 1) array, and the band crossings
    are bisected for all rows at once.  Each gain gives the
    tuple ``settling_times`` gives it; the first gain in ``ks`` that is
    refused or does not settle raises its ``ValueError``.
    """
    return np.maximum(*_settling_table(ks, NOMINAL_OMEGA0,
                                       DESIGN_SETTLING_DT))


def k_grid(k_min: float, k_max: float, resolution: float) -> np.ndarray:
    """Uniform grid from k_min to k_max inclusive, for gains and bandwidths."""
    if not math.isfinite(k_min) or not math.isfinite(k_max):
        raise ValueError("grid range must be finite")
    if not 0 < resolution < math.inf:
        raise ValueError("resolution must be finite and > 0")
    steps = (k_max - k_min) / resolution
    # past 2**63 points no array can index the grid, and the step count
    # of a span near the float range is inf
    if not steps < 2**63:
        raise ValueError("grid has too many points")
    grid = k_min + resolution * np.arange(int(round(steps)) + 1)
    return grid[grid <= k_max + 1e-12]
