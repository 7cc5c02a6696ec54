"""High-pass generalized integrator (HGI) filter pair.

The HGI turns the sensed grid voltage into a quadrature pair: a band-pass
in-phase channel and a high-pass quadrature channel,

    G_alpha(s) =  k * s * w0 / (s^2 + k*w0*s + w0^2)
    G_beta(s)  = -k * s^2    / (s^2 + k*w0*s + w0^2)

Both have zero dc gain, which is what rejects input dc offsets.  This
module provides the continuous-domain frequency response, a forward-Euler
discrete realization, closed-form step-response settling times and the
search for the gain k with the fastest settling.

Settling is read off the closed-form step response on the grid
t = i*DESIGN_SETTLING_DT over 12 slow-pole time constants, but only at a
few points of it.  Each damping kind (complex poles, real poles, the
repeated root k = 2) has one closed form, and its lobe times, the tops and
zeros of the response, say where to look: the peak is one of the two grid
points around the first lobe top, and the last exit from the settling
band is bisected over the grid indices of the fall of the last lobe above
the band.  Every value compared against the band is a grid value, so the
settle instants are the grid points the whole grid would give.  At the
nominal omega0 the 2 us grid samples both peaks of every gain the
slow-pole guard accepts; a gain whose peak falls between grid points (a
far higher omega0) is refused.  One array pass does this for a whole
table of gains (``design_settling_times``): each damping kind evaluates
the points of all its gains as one array, and every bisection step is
one array step over the rows still bisecting.  ``settling_times`` is its
one-gain call.
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

#: The gain grid that ``k_opt_search`` and both design procedures search
#: by default: k from 0.1 to 4.0 in steps of 0.01.
K_RANGE = (0.1, 4.0)
K_STEP = 0.01

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


class _Lobes:
    """Lobes of both step responses of the gains ``k``, one row per (gain,
    channel) pair: row 2*j + c is channel c (0 alpha, 1 beta) of gain j.

    Lobe m of a row tops at max(0, (m + top)*unit) and ends at
    (m + end)*unit, except that lobe ``final`` never ends.  Subclasses set
    those arrays and give ``form``, the impulse response h2 of
    1/(s^2 + k*w0*s + w0^2) and its derivative h2' for their damping, and
    ``last``, the last lobe of each row that starts before t_end and whose
    top exceeds level (lobe 0 if none).
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

    def mag(self, t, rows):
        """|y| of each of the ``rows`` at the times in its row of the 2-D
        array ``t``: the alpha step response is k*w0*h2 and the beta step
        response is -k*h2'."""
        h2, h2p = self.form(self.sigma[rows, None], self.root[rows, None], t)
        k = self.k[rows, None]
        return np.abs(np.where(self.alpha[rows, None], k * self.w0 * h2,
                               -k * h2p))

    def top_mag(self, m):
        """|y| of each row at the top of its lobe m."""
        return self.mag(self.lobe(m)[0][:, None], slice(None))[:, 0]

    def around(self, m, last):
        """The two grid indices around the top of lobe m of each row,
        clipped to the last grid index ``last`` of the row."""
        i = np.floor(self.lobe(m)[0] / DESIGN_SETTLING_DT)[:, None] + (0, 1)
        return np.minimum(i, last[:, None]).astype(np.int64)


class _Underdamped(_Lobes):
    """Lobes for the pole pairs -sigma +/- j*wd.

    |y_alpha| = A*e^(-sigma*t)*|sin(wd*t)| and
    |y_beta| = A*e^(-sigma*t)*|cos(wd*t + theta)|, with A = k*w0/wd and
    tan(theta) = sigma/wd, so every lobe top of either channel is
    k*e^(-sigma*t).  In units of pi/wd, lobe m of alpha tops at
    m + 1/2 - theta/pi and ends at its zero m + 1; lobe m of beta tops at
    m - 2*theta/pi (at t = 0 for m = 0) and ends at m + 1/2 - theta/pi.
    """

    form = staticmethod(_complex_pair)

    def __init__(self, k, w0):
        super().__init__(k, w0)
        wd = self.root / 2
        theta = np.arctan(self.sigma / wd)
        self.unit = np.pi / wd
        zero = 0.5 - theta / np.pi
        self.top = np.where(self.alpha, zero, -2 * theta / np.pi)
        self.end = np.where(self.alpha, 1.0, zero)

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

    form = staticmethod(_real_pair)

    def __init__(self, k, w0):
        super().__init__(k, w0)
        self.unit = 2 * self.zero()
        self.top = np.where(self.alpha, 0.5, 0.0)
        self.end = 0.5
        self.final = np.where(self.alpha, 0, 1)

    def zero(self):
        """z of each row: the top of y_alpha and the zero of y_beta."""
        r1, r2 = -self.sigma + self.root / 2, -self.sigma - self.root / 2
        return np.log(r2 / r1) / (r1 - r2)

    def last(self, t_end, level):
        # beta's lobe 1 counts only if its top exceeds the level
        return np.where(self.alpha | (self.top_mag(1) > level), self.final, 0)


class _Repeated(_Overdamped):
    """Lobes for the repeated root -sigma (k = 2): y_alpha =
    k*w0*t*e^(-sigma*t) and y_beta = -k*(1 - sigma*t)*e^(-sigma*t) have the
    overdamped lobes, with z = 1/sigma."""

    form = staticmethod(_repeated_root)

    def zero(self):
        return 1 / self.sigma


def _exits(kind, k: np.ndarray, w0: float, n: np.ndarray) -> np.ndarray:
    """Grid index of the last point of each step response of the gains
    ``k`` (all of one damping ``kind``) outside the band, on grids of
    lengths ``n``, one row per gain.

    |y| rises and falls once over a lobe, so the largest grid point of a
    lobe is one of the two around its top.  The peak is the larger of the
    two at the first lobe top, since later lobes top lower; a peak no
    higher than the next lobe top falls between grid points, and raises
    ``ValueError``.  The last exit is on the fall of the last lobe above
    the band.  If a grid point around its top is outside the band, the exit
    is bisected over the indices from that point to the first one past the
    lobe; if neither is, no point of the lobe is, and the next round tries
    the lobe before.  Lobe 0 holds the peak, so every row finds its exit.
    """
    dt = DESIGN_SETTLING_DT
    lobes = kind(k, w0)
    last = np.repeat(n, 2) - 1
    peak = lobes.mag(lobes.around(0, last) * dt, slice(None)).max(axis=1)
    bound = np.where(lobes.final >= 1, lobes.top_mag(1), 0.0)
    missed = ~(peak > bound * (1 + _TOP_MARGIN))
    if missed.any():
        j = int(np.argmax(missed))
        raise ValueError(
            f"the {dt:g} s settling grid does not sample the "
            f"{('alpha', 'beta')[lobes.c[j]]} peak of the HGI step response "
            f"at k = {lobes.k[j]:g}, omega0 = {w0:g} rad/s")
    band = SETTLING_TOLERANCE * peak
    lobe = lobes.last(last * dt, band * (1 - _TOP_MARGIN))
    lo = np.full(len(last), -1)
    rows = np.arange(len(last))
    while rows.size:
        pair = lobes.around(lobe, last)[rows]
        outside = lobes.mag(pair * dt, rows) > band[rows, None]
        lo[rows] = np.where(outside, pair, -1).max(axis=1)
        rows = rows[(lo[rows] < 0) & (lobe[rows] > 0)]
        lobe[rows] -= 1
    # |y| is outside the band at lo and inside from hi on
    hi = np.minimum(np.ceil(lobes.lobe(lobe)[1] / dt), last + 1)
    hi = hi.astype(np.int64)
    while (go := np.flatnonzero(hi - lo > 1)).size:
        mid = (lo[go] + hi[go]) // 2
        outside = lobes.mag(mid[:, None] * dt, go)[:, 0] > band[go]
        lo[go[outside]] = mid[outside]
        hi[go[~outside]] = mid[~outside]
    return lo.reshape(-1, 2)


def _unsettled(k: float, horizon: float) -> ValueError:
    return ValueError(f"the HGI step response at k = {k:g} does not "
                      f"settle within {horizon:g} s")


def _settling_grids(k: np.ndarray, w0: float):
    """Horizon and length of the grid t = i*DESIGN_SETTLING_DT that
    settling is read from, for each gain in ``k`` before the first one
    refused ahead of its pole arithmetic, and the error that refuses that
    gain (None if none is).  The length is that of
    np.arange(0.0, horizon, DESIGN_SETTLING_DT)."""
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
    invalid = ~((0 < k) & (k < math.inf))
    refused = invalid | slow
    error, j = None, len(k)
    if refused.any():
        j = int(np.argmax(refused))
        error = (ValueError("k must be finite and > 0") if invalid[j]
                 else _unsettled(float(k[j]), SETTLING_HORIZON))
    n = np.ceil(horizon[:j] / DESIGN_SETTLING_DT).astype(np.int64)
    return horizon[:j], n, error


def _settling_table(ks, w0: float):
    """Settling times (t_s_alpha, t_s_beta) of every gain in ``ks``, as two
    arrays; see ``settling_times``.  Raises the error of the first gain in
    ``ks`` that is refused or does not settle, or at once for a peak the
    grid does not sample."""
    dt = DESIGN_SETTLING_DT
    k = np.asarray(ks, dtype=float)
    if not k.size:
        return np.empty(0), np.empty(0)
    horizon, n, error = _settling_grids(k, w0)
    k = k[:len(n)]
    _, _, repeated, under = _poles(k, w0)
    exits = np.empty((len(k), 2), dtype=np.int64)
    for kind, rows in ((_Underdamped, under),
                       (_Overdamped, ~repeated & ~under),
                       (_Repeated, repeated)):
        if rows.any():
            exits[rows] = _exits(kind, k[rows], w0, n[rows])
    ts = np.where(exits + 1 >= n[:, None], np.inf, (exits + 1) * dt)
    unsettled = np.isinf(ts).any(axis=1)
    if unsettled.any():
        j = int(np.argmax(unsettled))
        raise _unsettled(float(k[j]), float(horizon[j]))
    if error:
        raise error
    return ts[:, 0], ts[:, 1]


def settling_times(params: HgiParams) -> tuple[float, float, float]:
    """Step-response settling times (t_s_alpha, t_s_beta, max of both).

    Settling is measured on the closed-form response sampled at the design
    step, t = i*DESIGN_SETTLING_DT, over 12 slow-pole time constants: the
    last time the output leaves the +/-2 % band around its final value
    (zero, both channels have no dc gain), with the band referenced to the
    peak response magnitude.  This is the one-gain call of the array pass
    behind ``design_settling_times``, which evaluates O(log n) points of a
    grid of n: two at each channel's peak and a bisection over grid indices
    for its last exit from the band (see ``_exits``), so the result equals
    that of the whole grid.  A response still outside the band at the end
    of the grid, a slow pole with a time constant of the horizon or longer,
    or a peak that falls between grid points (an ``omega0`` far above the
    nominal one) raises ``ValueError``.
    """
    (ts_a,), (ts_b,) = _settling_table([params.k], params.omega0)
    ts_a, ts_b = float(ts_a), float(ts_b)
    return ts_a, ts_b, max(ts_a, ts_b)


def k_opt_search(
    k_range: tuple[float, float] = K_RANGE,
    resolution: float = K_STEP,
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

    One array pass serves every gain: the slow-pole guard runs on the
    whole array first; then, for each damping kind in turn, each round
    evaluates the two grid points around a lobe top and each bisection
    step one grid point, for every row still open as one array.  Each
    gain gives the tuple ``settling_times`` gives it; the first gain in
    ``ks`` that is refused or does not settle raises its ``ValueError``.
    """
    return np.maximum(*_settling_table(ks, NOMINAL_OMEGA0))


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
