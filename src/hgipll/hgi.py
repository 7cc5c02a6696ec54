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
Closed-form lobe times place the windows and a scalar bisection finds the
band crossing; every value compared against the band is evaluated on the
grid itself, so the settle instants are the same grid points as on the
whole grid, which is evaluated only at the repeated root k = 2 and on a
grid too coarse to sample the alpha peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import EXACT, SampleError
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


class QuadratureFilter:
    """Forward-Euler discrete realization shared by the filter pairs.

    State x1 is the band-pass output v_alpha, x2 the second integrator
    state.  ``arith`` is an arithmetic policy (see ``hgipll.arith``);
    by default the filter runs in exact float64.  Subclasses define only
    ``process``, the pass over a whole input sequence; ``step`` is its
    one-sample call.
    """

    def __init__(self, params: HgiParams, sample_period: float, arith=None):
        if not sample_period > 0:
            raise ValueError("sample_period must be > 0")
        if params.omega0 * sample_period >= EULER_GUARD:
            raise ValueError("sample rate too low for Euler stability")
        q = arith if arith is not None else EXACT
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


def step_responses(params: HgiParams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form unit-step responses of G_alpha and G_beta at times t.

    Built from the impulse response h2 of 1/(s^2 + k*w0*s + w0^2): the
    alpha step response is k*w0*h2 and the beta step response is -k*h2'.
    Everything is real-valued: a complex pole pair -sigma +/- j*wd gives
    e^(-sigma*t) times sin/cos, two real poles two exponentials, and a
    repeated root t*e^(-sigma*t).
    """
    w0, k = params.omega0, params.k
    disc = (k * w0) ** 2 - 4 * w0 * w0
    root = math.sqrt(abs(disc))
    sigma = k * w0 / 2
    if root < 1e-9 * w0:
        e = np.exp(-sigma * t)
        h2 = t * e
        h2p = e * (1 - sigma * t)
    elif disc < 0:
        wd = root / 2
        e = np.exp(-sigma * t)
        sin, cos = np.sin(wd * t), np.cos(wd * t)
        h2 = e * sin / wd
        h2p = e * (cos - sigma / wd * sin)
    else:
        r1, r2 = -sigma + root / 2, -sigma - root / 2
        e1, e2 = np.exp(r1 * t), np.exp(r2 * t)
        h2 = (e1 - e2) / (r1 - r2)
        h2p = (r1 * e1 - r2 * e2) / (r1 - r2)
    return k * w0 * h2, -k * h2p


class _Underdamped:
    """Lobes of both step responses for the pole pair -sigma +/- j*wd.

    |y_alpha| = A*e^(-sigma*t)*|sin(wd*t)| and
    |y_beta| = A*e^(-sigma*t)*|cos(wd*t + theta)|, with A = k*w0/wd and
    tan(theta) = sigma/wd, so every lobe top of either channel is
    k*e^(-sigma*t).  In units of pi/wd, lobe m of alpha tops at
    m + 1/2 - theta/pi and ends at its zero m + 1; lobe m of beta tops at
    m - 2*theta/pi (at t = 0 for m = 0) and ends at m + 1/2 - theta/pi.
    """

    def __init__(self, k, w0, sigma, wd):
        self.k, self.sigma, self.wd = k, sigma, wd
        self.gain = k * w0 / wd
        self.theta = math.atan(sigma / wd)
        self.unit = math.pi / wd
        zero = 0.5 - self.theta / math.pi
        self.offsets = ((zero, 1.0), (-2 * self.theta / math.pi, zero))

    def mag(self, c, t):
        """|y| of channel c (0 alpha, 1 beta) at time t, in scalar math."""
        e = self.gain * math.exp(-self.sigma * t)
        if c == 0:
            return e * abs(math.sin(self.wd * t))
        return e * abs(math.cos(self.wd * t + self.theta))

    def lobe(self, c, m):
        """(top, end) times of lobe m of channel c."""
        top, end = self.offsets[c]
        return max(0.0, (m + top) * self.unit), (m + end) * self.unit

    def last(self, c, t_end, level):
        """The last lobe of channel c that starts before t_end and whose
        top exceeds level (lobe 0 if none)."""
        top, end = self.offsets[c]
        reach = math.log(self.k / level) / self.sigma
        m = min(t_end / self.unit + 1 - end, reach / self.unit - top)
        return max(math.ceil(m) - 1, 0)


class _Overdamped:
    """Lobes of both step responses for the real poles r2 < r1 < 0.

    y_alpha rises to its one top at z = ln(r2/r1)/(r1 - r2) and decays;
    y_beta falls from -k at t = 0 to its zero at z, then has one lobe
    with its top at 2*z.
    """

    def __init__(self, k, w0, r1, r2):
        self.k, self.w0, self.r1, self.r2 = k, w0, r1, r2
        z = math.log(r2 / r1) / (r1 - r2)
        self.lobes = (((z, math.inf),), ((0.0, z), (2 * z, math.inf)))

    def mag(self, c, t):
        r1, r2 = self.r1, self.r2
        e1, e2 = math.exp(r1 * t), math.exp(r2 * t)
        if c == 0:
            return self.k * self.w0 * (e1 - e2) / (r1 - r2)
        return self.k * abs(r1 * e1 - r2 * e2) / (r1 - r2)

    def lobe(self, c, m):
        """(top, end) times of lobe m of channel c; None past the last."""
        lobes = self.lobes[c]
        return lobes[m] if m < len(lobes) else None

    def last(self, c, t_end, level):
        m = len(self.lobes[c]) - 1
        while m > 0 and not self.mag(c, self.lobes[c][m][0]) > level:
            m -= 1
        return m


def _lobes(params: HgiParams):
    """The lobes of both step responses; None at the repeated root, where
    ``step_responses`` takes its t*e^(-sigma*t) branch."""
    w0, k = params.omega0, params.k
    disc = (k * w0) ** 2 - 4 * w0 * w0
    root = math.sqrt(abs(disc))
    sigma = k * w0 / 2
    if root < 1e-9 * w0:
        return None
    if disc < 0:
        return _Underdamped(k, w0, sigma, root / 2)
    return _Overdamped(k, w0, -sigma + root / 2, -sigma - root / 2)


def _window(i: int, n: int) -> np.ndarray:
    """Indices of the grid points within ``SETTLING_WINDOW`` of point i."""
    return np.arange(max(i - SETTLING_WINDOW, 0),
                     min(i + SETTLING_WINDOW + 1, n))


def _magnitudes(params: HgiParams, windows, dt: float) -> list[np.ndarray]:
    """|y| of channel c (0 alpha, 1 beta) at the grid points i*dt of each
    (c, indices) pair in ``windows``, from one ``step_responses`` call."""
    ys = step_responses(params, np.concatenate([w for _, w in windows]) * dt)
    mags, start = [], 0
    for c, w in windows:
        mags.append(np.abs(ys[c][start:start + len(w)]))
        start += len(w)
    return mags


def _last_outside(mag: np.ndarray, band) -> int:
    """Index of the last point of ``mag`` above ``band``; -1 if none."""
    outside = np.flatnonzero(mag > band)
    return int(outside[-1]) if outside.size else -1


def _crossing(lobes, c: int, m: int, band: float, n: int, dt: float) -> int:
    """Grid index at which lobe m of channel c falls through ``band``,
    bisected in scalar math; the last grid point when the lobe is still
    above the band there."""
    top, end = lobes.lobe(c, m)
    lo, hi = top, min(end, (n - 1) * dt)
    if not lo < hi or lobes.mag(c, hi) > band:
        return n - 1
    while hi - lo > dt:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if lobes.mag(c, mid) > band:
            lo = mid
        else:
            hi = mid
    return math.floor(hi / dt)


def _windowed_exits(params: HgiParams, lobes, n: int, dt: float):
    """Grid index of the last point of each step response outside the
    band (-1 if none), read from windows of the grid; None when the grid
    is too coarse to sample a peak above every later lobe top.

    The peak of a channel is the largest grid point of the window at its
    first lobe top: |y| rises and falls once over that lobe, and every
    later lobe top is below it.  The last band exit lies in the window at
    the fall of the last lobe whose top exceeds the band: later lobes
    stay inside the band, and the fall is monotone.  If that window holds
    no point outside the band, the lobe's top slipped between grid
    points, and the lobe before it is tried.
    """
    windows = [(c, _window(round(lobes.lobe(c, 0)[0] / dt), n))
               for c in (0, 1)]
    bands = []
    for c, mag in enumerate(_magnitudes(params, windows, dt)):
        peak = mag.max()
        second = lobes.lobe(c, 1)
        bound = lobes.mag(c, second[0]) if second else 0.0
        if not peak > bound * (1 + _TOP_MARGIN):
            return None
        bands.append(SETTLING_TOLERANCE * peak)
    t_end = (n - 1) * dt
    lobe = [lobes.last(c, t_end, band * (1 - _TOP_MARGIN))
            for c, band in enumerate(bands)]
    exits = [None, None]
    while None in exits:
        windows = [
            (c, _window(_crossing(lobes, c, lobe[c], bands[c], n, dt), n))
            for c in (0, 1) if exits[c] is None]
        for (c, w), mag in zip(windows, _magnitudes(params, windows, dt)):
            i = _last_outside(mag, bands[c])
            if i >= 0 or lobe[c] == 0:
                exits[c] = int(w[i]) if i >= 0 else -1
            else:
                lobe[c] -= 1
    return exits


def _unsettled(k: float, horizon: float) -> ValueError:
    return ValueError(f"the HGI step response at k = {k:g} does not "
                      f"settle within {horizon:g} s")


def _settling_grid(params: HgiParams, dt: float) -> tuple[float, int]:
    """Horizon and length of the grid t = i*dt that settling is read
    from; the length is that of np.arange(0.0, horizon, dt)."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    k = params.k
    # slowest pole decay rate: zeta*w0 when underdamped, the slow real
    # pole when overdamped; 12 time constants comfortably brackets any
    # 2% settling instant
    rate = 0.5 * (k - math.sqrt(max(k * k - 4.0, 0.0))) * params.omega0
    # such a slow pole cannot settle; checked before the pole arithmetic,
    # where a rate that underflowed, cancelled or overflowed would fail
    if not rate * SETTLING_HORIZON > 1:
        raise _unsettled(k, SETTLING_HORIZON)
    horizon = min(SETTLING_HORIZON, 12 / rate + 0.005)
    # a grid index must be exact in float64 for i*dt to be the grid point
    if not horizon / dt < 2**53:
        raise ValueError("dt is too small for the settling grid")
    return horizon, math.ceil(horizon / dt)


def settling_times(
    params: HgiParams, dt: float = DESIGN_SETTLING_DT
) -> tuple[float, float, float]:
    """Step-response settling times (t_s_alpha, t_s_beta, max of both).

    Settling is measured on the closed-form response sampled at t = i*dt
    over 12 slow-pole time constants: the last time the output leaves
    the +/-2 % band around its final value (zero, both channels have no
    dc gain), with the band referenced to the peak response magnitude.
    Only short windows of that grid are evaluated, at each channel's
    peak and at its last exit from the band (see ``_windowed_exits``),
    so the result equals that of the whole grid, which is evaluated only
    at the repeated root k = 2 and on a grid too coarse to sample the
    alpha peak.  A ``dt`` that is not finite and > 0 or that gives the
    grid 2**53 points or more, a response still outside the band at the
    end of the grid, or a slow pole with a time constant of the horizon
    or longer raises ``ValueError``.
    """
    horizon, n = _settling_grid(params, dt)
    lobes = _lobes(params)
    exits = _windowed_exits(params, lobes, n, dt) if lobes else None
    if exits is None:
        ys = step_responses(params, np.arange(n) * dt)
        exits = [_last_outside(mag, SETTLING_TOLERANCE * mag.max())
                 for mag in map(np.abs, ys)]
    ts_a, ts_b = (math.inf if i + 1 >= n else (i + 1) * dt for i in exits)
    if math.isinf(max(ts_a, ts_b)):
        raise _unsettled(params.k, horizon)
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
    ``DESIGN_SETTLING_DT``: the table both design procedures rank k on."""
    return np.array([settling_times(HgiParams(k))[2] for k in ks])


def k_grid(k_min: float, k_max: float, resolution: float) -> np.ndarray:
    """Uniform grid from k_min to k_max inclusive, for gains and bandwidths."""
    if not math.isfinite(k_min) or not math.isfinite(k_max):
        raise ValueError("grid range must be finite")
    if not 0 < resolution < math.inf:
        raise ValueError("resolution must be finite and > 0")
    n = int(round((k_max - k_min) / resolution))
    grid = k_min + resolution * np.arange(n + 1)
    return grid[grid <= k_max + 1e-12]
