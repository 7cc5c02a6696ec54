"""High-pass generalized integrator (HGI) filter pair.

The HGI turns the sensed grid voltage into a quadrature pair: a band-pass
in-phase channel and a high-pass quadrature channel,

    G_alpha(s) =  k * s * w0 / (s^2 + k*w0*s + w0^2)
    G_beta(s)  = -k * s^2    / (s^2 + k*w0*s + w0^2)

Both have zero dc gain, which is what rejects input dc offsets.  This
module provides the continuous-domain frequency response, a forward-Euler
discrete realization, closed-form step-response settling times and the
search for the gain k with the fastest settling.

Settling is read off a dense grid of 12 slow-pole time constants, but the
decaying exponential envelope of the step response bounds where the peak
and the last exit from the settling band can lie: only the grid prefix up
to that bracket (about a third of it; all of it at the repeated root
k = 2) is evaluated, and the settle instants are the same grid points as
on the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import EXACT
from .signal_model import NOMINAL_OMEGA0

#: Per-sample arithmetic budget of the forward-Euler HGI update.
HGI_MULS_PER_STEP = 4
HGI_ADDS_PER_STEP = 6

#: Budget of the basic SOGI variant (low-pass quadrature channel).
BASIC_SOGI_MULS_PER_STEP = 3
BASIC_SOGI_ADDS_PER_STEP = 4

#: Forward-Euler stability guard: require omega0 * Ts below this.
EULER_GUARD = 0.1

#: Internal time step used when measuring settling on the continuous
#: closed-form step response.
SETTLING_DT = 1e-6

#: Horizon after which an unsettled response is reported as unstable.
SETTLING_HORIZON = 1.0

#: Settling band, relative to the peak step response.
SETTLING_TOLERANCE = 0.02

#: Settling-time step of ``design_settling_times``, the one table both
#: design procedures rank k on.
DESIGN_SETTLING_DT = 2e-6


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
    ``step``, which returns (v_alpha, v_beta).
    """

    def __init__(self, params: HgiParams, sample_period: float, arith=None):
        if not sample_period > 0:
            raise ValueError("sample_period must be > 0")
        if params.omega0 * sample_period >= EULER_GUARD:
            raise ValueError("sample rate too low for Euler stability")
        self.params = params
        self.sample_period = sample_period
        q = arith if arith is not None else EXACT
        self._signal = q.signal
        self._k = q.coeff(params.k)
        self._c1 = q.coeff(params.k * params.omega0 * sample_period)
        self._c2 = q.coeff(params.omega0 * sample_period)
        self._x1 = 0.0
        self._x2 = 0.0

    @property
    def state(self) -> tuple[float, float]:
        return self._x1, self._x2

    def reset(self, x1=0.0, x2=0.0) -> None:
        self._x1 = x1
        self._x2 = x2


class HgiFilter(QuadratureFilter):
    """The HGI pair: band-pass alpha channel, high-pass beta channel.

    x2 is scaled so that the update needs 4 multiplications and 6
    additions (the input summer feeds the alpha update and the beta output
    path separately, as in the counted hardware dataflow).
    """

    def step(self, v_g):
        """Advance one sample; returns (v_alpha, v_beta)."""
        q = self._signal
        x1, x2 = self._x1, self._x2
        u = v_g - x1                       # alpha-path input summer
        r = v_g - x1                       # beta-path input summer
        v_beta = q(x2 - self._k * r)
        self._x1 = q(x1 + self._c1 * u - self._c2 * x2)
        self._x2 = q(x2 + self._c2 * x1)
        return x1, v_beta


class BasicSogiFilter(QuadratureFilter):
    """Basic SOGI: same band-pass channel, low-pass quadrature channel.

    G_beta,basic(s) = k*w0^2 / (s^2 + k*w0*s + w0^2).  It does not block
    dc, which is exactly the weakness the HGI removes; kept as the
    comparison baseline.  3 multiplications and 4 additions per sample.
    """

    def step(self, v_g):
        q = self._signal
        x1, x2 = self._x1, self._x2
        u = v_g - x1
        self._x1 = q(x1 + self._c1 * u - self._c2 * x2)
        self._x2 = q(x2 + self._c2 * x1)
        return x1, x2


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


def _bracket(params: HgiParams, t: np.ndarray, dt: float) -> int:
    """Length of the prefix of the uniform grid ``t`` that holds the peak
    and the last band exit of both step responses.

    Both responses lie under an envelope C*e^(-rate*t): with the pole
    pair -sigma +/- j*wd, |y_alpha| <= (k*w0/wd)*e^(-sigma*t) and
    |y_beta| <= k*sqrt(1 + (sigma/wd)^2)*e^(-sigma*t); with real poles
    r2 < r1 < 0, |y_alpha| <= k*w0/(r1 - r2)*e^(r1*t) and
    |y_beta| <= k*(|r1| + |r2|)/(r1 - r2)*e^(r1*t).  Past the time where
    C*e^(-rate*t) drops to the band around a lower bound P of the peak
    (|y_beta(0)| = k; |y_alpha| at the grid point nearest its first
    peak), every grid point is inside the band and below the peak, so
    the prefix gives the same peak and the same last exit.  The repeated
    root gets the whole grid.
    """
    w0, k = params.omega0, params.k
    disc = (k * w0) ** 2 - 4 * w0 * w0
    root = math.sqrt(abs(disc))
    sigma = k * w0 / 2
    if root < 1e-9 * w0:
        return len(t)
    if disc < 0:
        wd = root / 2
        rate = sigma
        c_alpha, c_beta = k * w0 / wd, k * math.hypot(1.0, sigma / wd)
        t_peak = math.atan2(wd, sigma) / wd
    else:
        r1, r2 = -sigma + root / 2, -sigma - root / 2
        rate = -r1
        c_alpha = k * w0 / (r1 - r2)
        c_beta = k * (abs(r1) + abs(r2)) / (r1 - r2)
        t_peak = math.log(r2 / r1) / (r1 - r2)
    j = min(round(t_peak / dt), len(t) - 1)
    peak_alpha = abs(float(step_responses(params, t[j:j + 1])[0][0]))
    if not peak_alpha > 0:
        # a grid too coarse to sample the alpha peak gives no lower bound
        return len(t)
    # the 1e-9 margin and two extra points absorb rounding in the
    # evaluated responses, the envelope and the grid
    ratio = max(c_alpha / peak_alpha, c_beta / k) * (1 + 1e-9)
    n = math.ceil(math.log(ratio / SETTLING_TOLERANCE) / rate / dt) + 2
    return min(n, len(t))


def _settle_time(y: np.ndarray, t: np.ndarray) -> float:
    """Last time |y| leaves the band, referenced to the response peak;
    ``y`` covers a prefix of ``t``.  inf when the last exit is at the end
    of t."""
    mag = np.abs(y)
    outside = mag > SETTLING_TOLERANCE * mag.max()
    if not outside.any():
        return 0.0
    i = np.nonzero(outside)[0][-1]
    if i + 1 >= len(t):
        return math.inf
    return float(t[i + 1])


def _unsettled(k: float, horizon: float) -> ValueError:
    return ValueError(f"the HGI step response at k = {k:g} does not "
                      f"settle within {horizon:g} s")


def settling_times(
    params: HgiParams, dt: float = SETTLING_DT
) -> tuple[float, float, float]:
    """Step-response settling times (t_s_alpha, t_s_beta, max of both).

    Settling is measured on the dense closed-form response: the last time
    the output leaves the +/-2 % band around its final value (zero, both
    channels have no dc gain), with the band referenced to the peak
    response magnitude.  Of the grid of 12 slow-pole time constants only
    the prefix ``_bracket`` finds to hold both peaks and last band exits
    is evaluated, so the result equals that of the whole grid; a response
    still outside the band at the end of the whole grid, or whose slow
    pole has a time constant of the horizon or longer, raises
    ``ValueError``.
    """
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
    t = np.arange(0.0, horizon, dt)
    y_alpha, y_beta = step_responses(params, t[:_bracket(params, t, dt)])
    ts_a = _settle_time(y_alpha, t)
    ts_b = _settle_time(y_beta, t)
    if math.isinf(max(ts_a, ts_b)):
        raise _unsettled(k, horizon)
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
    if not resolution > 0:
        raise ValueError("resolution must be > 0")
    ks = k_grid(k_min, k_max, resolution)
    ts = design_settling_times(ks)
    # argmin returns the first minimum: ties go to the smaller k
    i = int(np.argmin(ts))
    return ks[i], float(ts[i])


def design_settling_times(ks) -> np.ndarray:
    """Combined settling time of every gain in ``ks`` at the design step
    ``DESIGN_SETTLING_DT``: the table both design procedures rank k on."""
    return np.array([settling_times(HgiParams(k), dt=DESIGN_SETTLING_DT)[2]
                     for k in ks])


def k_grid(k_min: float, k_max: float, resolution: float) -> np.ndarray:
    """Uniform grid from k_min to k_max inclusive, for gains and bandwidths."""
    n = int(round((k_max - k_min) / resolution))
    grid = k_min + resolution * np.arange(n + 1)
    return grid[grid <= k_max + 1e-12]
