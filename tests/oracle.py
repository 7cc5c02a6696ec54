"""Scalar reference implementations, kept as test oracles.

These are the point-by-point forms of the analytical unit-vector THD
pipeline and of the HGI step-response settling times, written with
Python complex scalars and the complex-exponential step response.  The
package evaluates the same closed forms array-native; the tests compare
the two.  Only here does a ripple term live in magnitude/phase form
(``freq_dev_ripple``, ``harmonic_ripple``): its amplitude and phase are
rebuilt by sin/cos/atan2 and a sign fold, where the package takes one
complex phasor.  That form divides two factors that vanish together
where cos(x + gamma) = 0, so near there it agrees with the package only
to about 1e-16/|cos(x + gamma)| relative.  ``measured_thd`` is the
least-squares fit on the explicit sin/cos/dc sample basis, which the
package solves by normal equations; ``spectral_line`` is the single-bin
projection of the mean-removed tail, where the package reads order 1 of
that fit.  ``run`` is the closed loop stepped
on numpy scalars, filter and loop interleaved one sample at a time by
the per-sample step bodies ``HgiStep``, ``BasicSogiStep`` and
``SrfStep``, and recorded by per-sample array indexing, in fixed16
through ``Fixed16Reference``'s ``round()``-based quantizers and
``log2``-based ``coeff``; the package runs the filter and then the loop
as two whole-input passes on Python floats.  ``write_trace_csv`` is the
``np.savetxt`` form of ``SimTrace.write_csv``.  ``step_responses`` is
the complex-exponential step response, and ``settling_times`` evaluates
it on the whole 12-time-constant grid, of which the package evaluates
the two points around each peak and a bisection for each last band
exit.  ``band_worst_thd`` evaluates the whole THD cube one bandwidth row
at a time, and ``cube_sweep`` picks each bandwidth's gain by a masked
argmin over that cube, where the package tries the gains in settling
order, in slabs of bandwidths, and stops at the first feasible one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from hgipll import design as design_mod
from hgipll.arith import FLOAT64, ArithmeticMode, Fixed16Arithmetic
from hgipll.hgi import (
    DESIGN_SETTLING_DT, HgiParams, SETTLING_HORIZON, freq_response,
)
from hgipll.signal_model import NOMINAL_OMEGA0, TWO_PI, GridSignalSpec, synthesize
from hgipll.sim import TRACE_CHANNELS, SimTrace, SimulationError
from hgipll.srf import PiParams
from hgipll.thd import AnalyticsError, Phasor


@dataclass(frozen=True)
class RippleTerm:
    """One unit-vector harmonic: a*sin(output_order*w*t + phi)."""

    a: float
    phi: float
    output_order: int


@dataclass(frozen=True)
class LoopGain:
    """Magnitude and phase of the loop path behind the phase detector."""

    m: float
    x: float


def loop_gain_at(pi: PiParams, omega_eval: float) -> LoopGain:
    """Gain of -(kp + ki/s)/s at s = j*omega_eval.

    This is the path from the phase-detector output back to the estimated
    phase (summer sign included), evaluated at the ripple frequency.
    """
    if omega_eval <= 0:
        raise AnalyticsError("omega_eval must be > 0")
    s = 1j * omega_eval
    g = -(pi.kp + pi.ki / s) / s
    return LoopGain(m=abs(g), x=cmath.phase(g))


def sequence_decompose(
    v_halpha: Phasor, v_hbeta: Phasor
) -> tuple[tuple[Phasor, Phasor], tuple[Phasor, Phasor]]:
    """Split an alpha/beta phasor pair into rotating-sequence pairs.

    v_ap = (v_a + j*v_b)/2 and v_an = (v_a - j*v_b)/2; the matching beta
    components are -j*v_ap and +j*v_an (beta lags alpha by 90 degrees in
    positive sequence, leads in negative).  The two pairs sum back to the
    input exactly.
    """
    if v_halpha.order != v_hbeta.order:
        raise AnalyticsError("phasor orders must match")
    h = v_halpha.order
    va = v_halpha.complex
    vb = v_hbeta.complex
    vap = (va + 1j * vb) / 2
    van = (va - 1j * vb) / 2

    def mk(z: complex, seq: str) -> Phasor:
        return Phasor(abs(z), cmath.phase(z), h, seq)

    positive = (mk(vap, "positive"), mk(-1j * vap, "positive"))
    negative = (mk(van, "negative"), mk(1j * van, "negative"))
    return positive, negative


def freq_dev_ripple(
    hgi: HgiParams, pi: PiParams, omega_in: float
) -> tuple[RippleTerm, float]:
    """Third-harmonic unit-vector ripple caused by a frequency deviation.

    The HGI gains at the deviated frequency give the unequal quadrature
    amplitudes V1, V2 (phases phi1, phi2); the loop gain at twice the
    input frequency then determines the phase ripple a*sin(2wt + phi),
    and the sine unit vector picks up a third harmonic u3 = a/2.
    Returns (RippleTerm at order 3, u3).
    """
    if not 0.5 * hgi.omega0 < omega_in < 1.5 * hgi.omega0:
        raise AnalyticsError("omega_in outside supported deviation range")
    g_alpha, g_beta = freq_response(hgi, omega_in)
    v1, p1 = abs(g_alpha), cmath.phase(g_alpha)
    v2, p2 = abs(g_beta), cmath.phase(g_beta)
    lg = loop_gain_at(pi, 2 * omega_in)
    m, x = lg.m, lg.x

    num = (v1 / 2) * math.cos(p1 + x) + (v2 / 2) * math.sin(p2 + x)
    den = (v1 / 2) * math.sin(p1 + x) - (v2 / 2) * math.cos(p2 + x)
    if abs(num) < 1e-12:
        # balanced quadrature: no negative sequence, no ripple
        return RippleTerm(0.0, 0.0, 3), 0.0
    alpha = math.cos(x) + ((v1 / 2) * math.cos(p1) - (v2 / 2) * math.sin(p2)) * m
    beta = math.sin(x)
    # arctan of (alpha + beta*nu)/(alpha*nu - beta) with nu = num/den,
    # cleared of the division so den = 0 stays finite; the branch only
    # flips the sign of a, which is folded into the phase below
    y = alpha * den + beta * num
    xq = alpha * num - beta * den
    if abs(y) < 1e-12 and abs(xq) < 1e-12:
        raise AnalyticsError("ripple phase indeterminate")
    phi = math.atan2(y, xq) - x
    a = m * num / (
        math.cos(phi)
        - m * math.cos(phi + x) * (-math.cos(p1) * v1 / 2 + math.sin(p2) * v2 / 2)
    )
    if a < 0:
        # THD needs |a|; absorb the sign into the phase
        a, phi = -a, phi + math.pi
    phi = math.remainder(phi, TWO_PI)
    return RippleTerm(a, phi, 3), a / 2


def harmonic_ripple(
    h: int,
    sequence: str,
    v_h: float,
    gamma: float,
    v_1plus: float,
    delta: float,
    pi: PiParams,
    omega: float = NOMINAL_OMEGA0,
) -> list[RippleTerm]:
    """Unit-vector harmonics created by one sequence harmonic at the loop.

    A positive-sequence harmonic of order h beats against the fundamental
    through the loop gain at (h-1)*w and lands on output orders h-2 and h;
    a negative-sequence one uses the gain at (h+1)*w and lands on h and
    h+2.  Both output terms share the amplitude a_h and phase phi_h.
    """
    if h < 2:
        raise AnalyticsError("harmonic order must be >= 2")
    if v_h < 0:
        raise AnalyticsError("harmonic amplitude must be >= 0")
    if v_1plus <= 0:
        raise AnalyticsError("no fundamental reference")
    if sequence == "positive":
        n, orders = h - 1, (h - 2, h)
    elif sequence == "negative":
        n, orders = h + 1, (h, h + 2)
    else:
        raise AnalyticsError("sequence must be 'positive' or 'negative'")
    if v_h == 0:
        return []

    lg = loop_gain_at(pi, n * omega)
    m, x = lg.m, lg.x
    a_h_coef = m * v_1plus * math.cos(delta)
    alpha_h = 1 + a_h_coef * math.cos(x)
    beta_h = a_h_coef * math.sin(x)
    c = x + gamma
    # cot(c) reformulated through atan2 to stay finite at c = n*pi
    phi_h = math.atan2(
        alpha_h * math.sin(c) - beta_h * math.cos(c),
        beta_h * math.sin(c) + alpha_h * math.cos(c),
    )
    a_h = (0.5 * v_h * m * math.cos(c)) / (
        math.cos(phi_h) + a_h_coef * math.cos(phi_h + x)
    )
    if a_h < 0:
        a_h, phi_h = -a_h, phi_h + math.pi
    phi_h = math.remainder(phi_h, TWO_PI)
    return [RippleTerm(a_h, phi_h, o) for o in orders]


def unit_vector_ripple_terms(
    spec: GridSignalSpec, hgi: HgiParams, pi: PiParams
) -> list[RippleTerm]:
    """All unit-vector ripple terms for a steady-state scenario.

    Pipeline: push each input harmonic through the HGI gains, split into
    sequence components, evaluate ``harmonic_ripple`` for each; add the
    frequency-deviation third-harmonic term when the fundamental is off
    nominal.  The fundamental reference for the harmonic terms is the
    positive-sequence part of the filtered fundamental (its negative-
    sequence part is exactly what the deviation term accounts for).
    """
    if spec.events:
        raise AnalyticsError("steady-state analysis requires an event-free spec")
    omega = TWO_PI * spec.fundamental_frequency
    terms: list[RippleTerm] = []

    g_alpha, g_beta = freq_response(hgi, omega)
    v1 = spec.fundamental_amplitude * g_alpha * cmath.exp(1j * spec.fundamental_phase)
    v1b = spec.fundamental_amplitude * g_beta * cmath.exp(1j * spec.fundamental_phase)
    v1p = (v1 + 1j * v1b) / 2
    v_1plus, delta = abs(v1p), cmath.phase(v1p)

    if abs(omega - hgi.omega0) > 1e-9:
        term, u3 = freq_dev_ripple(hgi, pi, omega)
        if u3 > 0:
            # the phase ripple a*sin(2wt+phi) puts amplitude a/2 = u3 on
            # the third harmonic of the unit vector
            terms.append(RippleTerm(u3, term.phi, 3))

    for comp in spec.harmonics:
        gah, gbh = freq_response(hgi, comp.order * omega)
        ph = cmath.exp(1j * comp.phase)
        vha = comp.amplitude * gah * ph
        vhb = comp.amplitude * gbh * ph
        (pos_a, _), (neg_a, _) = sequence_decompose(
            Phasor(abs(vha), cmath.phase(vha), comp.order),
            Phasor(abs(vhb), cmath.phase(vhb), comp.order),
        )
        for seq_phasor, seq in ((pos_a, "positive"), (neg_a, "negative")):
            if seq_phasor.amplitude < 1e-15:
                continue
            terms.extend(
                harmonic_ripple(
                    comp.order, seq, seq_phasor.amplitude, seq_phasor.phase,
                    v_1plus, delta, pi, omega,
                )
            )
    return terms


def combine_ripple_terms(terms: list[RippleTerm]) -> dict[int, complex]:
    """Phasor-sum ripple terms per output order."""
    by_order: dict[int, complex] = {}
    for t in terms:
        by_order[t.output_order] = by_order.get(t.output_order, 0j) + (
            t.a * cmath.exp(1j * t.phi)
        )
    return by_order


def total_unit_vector_thd(
    spec: GridSignalSpec, hgi: HgiParams, pi: PiParams
) -> float:
    """Predicted THD of the sine unit vector, in percent.

    Order-1 ripple terms perturb the fundamental amplitude and are
    excluded; the fundamental itself is unit amplitude by construction.
    """
    by_order = combine_ripple_terms(unit_vector_ripple_terms(spec, hgi, pi))
    power = sum(abs(z) ** 2 for o, z in by_order.items() if o >= 2)
    return 100.0 * math.sqrt(power)


def harmonic_breakdown(
    spec: GridSignalSpec, hgi: HgiParams, pi: PiParams
) -> list[tuple[int, float, float]]:
    """Per-order (order, amplitude, phase) table of unit-vector ripple."""
    by_order = combine_ripple_terms(unit_vector_ripple_terms(spec, hgi, pi))
    return [
        (o, abs(z), cmath.phase(z)) for o, z in sorted(by_order.items())
    ]


def step_responses(params: HgiParams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form unit-step responses of G_alpha and G_beta at times t.

    Built from the impulse response of 1/(s^2 + k*w0*s + w0^2): the alpha
    step response is k*w0 times it and the beta step response is -k times
    its derivative.  Valid for any damping (complex, real or repeated
    roots).
    """
    w0, k = params.omega0, params.k
    disc = complex((k * w0) ** 2 - 4 * w0 * w0)
    root = np.sqrt(disc)
    r1 = (-k * w0 + root) / 2
    r2 = (-k * w0 - root) / 2
    if abs(r1 - r2) < 1e-9 * w0:
        e = np.exp(r1 * t)
        h2 = t * e
        h2p = e * (1 + r1 * t)
    else:
        e1 = np.exp(r1 * t)
        e2 = np.exp(r2 * t)
        h2 = (e1 - e2) / (r1 - r2)
        h2p = (r1 * e1 - r2 * e2) / (r1 - r2)
    return (k * w0 * h2).real, (-k * h2p).real


def _settle_time(y: np.ndarray, t: np.ndarray, tolerance: float) -> float:
    """Last time |y| leaves the band, referenced to the response peak."""
    band = tolerance * np.abs(y).max()
    outside = np.abs(y) > band
    if not outside.any():
        return 0.0
    i = np.nonzero(outside)[0][-1]
    if i + 1 >= len(t):
        raise RuntimeError("unstable or unsettled")
    return float(t[i + 1])


def settling_times(
    params: HgiParams, tolerance: float = 0.02
) -> tuple[float, float, float]:
    """Step-response settling times (t_s_alpha, t_s_beta, max of both).

    Settling is measured on the closed-form response sampled at the design
    step ``DESIGN_SETTLING_DT``: the last time
    the output leaves the +/-tolerance band around its final value (zero,
    both channels have no dc gain), with the band referenced to the peak
    response magnitude.
    """
    if not 0 < tolerance <= 0.2:
        raise ValueError("tolerance must be in (0, 0.2]")
    k = params.k
    # slowest pole decay rate: zeta*w0 when underdamped, the slow real
    # pole when overdamped; 12 time constants comfortably brackets any
    # 2% settling instant
    rate = 0.5 * (k - math.sqrt(max(k * k - 4.0, 0.0))) * params.omega0
    horizon = min(SETTLING_HORIZON, 12 / rate + 0.005)
    t = np.arange(0.0, horizon, DESIGN_SETTLING_DT)
    y_alpha, y_beta = step_responses(params, t)
    ts_a = _settle_time(y_alpha, t, tolerance)
    ts_b = _settle_time(y_beta, t, tolerance)
    return ts_a, ts_b, max(ts_a, ts_b)


def predicted_thd(k, f_bw, frequency_hz, input_thd, constraints) -> float:
    """Point-by-point analytical THD (percent) of one design grid point."""
    from hgipll.design import steady_spec
    from hgipll.srf import pi_from_bandwidth

    pi = pi_from_bandwidth(f_bw)
    spec = steady_spec(frequency_hz, input_thd)
    return total_unit_vector_thd(spec, HgiParams(k), pi)


def band_worst_thd(ks, f_bws, constraints):
    """The worst THD (percent) over the deviation band at the constraints'
    input THD, and the frequency (Hz) where it occurs, for every
    (bandwidth, k) of the whole cube: two (f_bw x k) arrays, evaluated
    one bandwidth row at a time."""
    from hgipll.design import steady_thd
    from hgipll.srf import pi_from_bandwidth

    freqs = np.array(constraints.sweep_frequencies())
    worst = np.empty((len(f_bws), len(ks)))
    binding = np.empty((len(f_bws), len(ks)), dtype=int)
    for i, f_bw in enumerate(f_bws):
        pi = pi_from_bandwidth(f_bw)
        thd = steady_thd(ks[:, None], pi.kp, pi.ki, freqs,
                         constraints.input_thd)
        worst[i] = thd.max(axis=1)
        binding[i] = thd.argmax(axis=1)
    return worst, freqs[binding]


def cube_sweep(ks, ts_hgi, constraints, infeasible_row):
    """The design sweep as a masked argmin over the whole cube of
    ``band_worst_thd``: the report's swept rows, with
    ``infeasible_row(f_bw, t_s_srf)`` for a bandwidth where no k is
    feasible, and the chosen (k, f_bw, worst band THD, binding
    frequency), or None when no point is feasible."""
    from hgipll.srf import srf_settling_time

    f_bws = constraints.bandwidth_grid()
    worst, binding = band_worst_thd(ks, f_bws, constraints)
    feasible = worst <= constraints.thd_threshold()
    # per bandwidth the fastest feasible k; argmin returns the first
    # minimum, so equal settling times go to the smaller k
    best_k = np.argmin(np.where(feasible, ts_hgi, np.inf), axis=1)
    t_sd = np.full(len(f_bws), np.inf)
    swept = []
    for i, f_bw in enumerate(f_bws):
        t_s_srf = srf_settling_time(TWO_PI * f_bw)
        if not feasible[i].any():
            swept.append(infeasible_row(float(f_bw), t_s_srf))
            continue
        t_sd[i] = ts_hgi[best_k[i]] + t_s_srf
        swept.append((float(f_bw), float(ks[best_k[i]]), float(t_sd[i]), True))
    if not feasible.any():
        return swept, None
    # the first minimum keeps ties at the lower bandwidth
    i = int(np.argmin(t_sd))
    j = best_k[i]
    return swept, (float(ks[j]), float(f_bws[i]), worst[i, j], binding[i, j])


def _feasible(k, f_bw, input_thd, freqs, constraints) -> bool:
    return all(
        constraints.thd_ok(predicted_thd(k, f_bw, f, input_thd, constraints))
        for f in freqs
    )


def mtsd_sweep(constraints):
    """The deviation-only procedure point by point: (swept rows, chosen
    (k, f_bw, t_s_hgi))."""
    from hgipll.hgi import k_grid
    from hgipll.srf import srf_settling_time

    ks = k_grid(*constraints.k_range, design_mod.K_STEP)
    ts = [settling_times(HgiParams(float(k)))[2] for k in ks]
    best = min(range(len(ks)), key=lambda i: (ts[i], i))
    k_opt, t_s_hgi = float(ks[best]), ts[best]
    swept, chosen = [], None
    for f_bw in constraints.bandwidth_grid()[::-1]:
        ok = _feasible(k_opt, f_bw, 0.0, constraints.sweep_frequencies(),
                       constraints)
        swept.append((float(f_bw), k_opt,
                      t_s_hgi + srf_settling_time(TWO_PI * f_bw), ok))
        if ok and chosen is None:
            chosen = (k_opt, float(f_bw), t_s_hgi)
    swept.reverse()
    return swept, chosen


def hc_mtsd_sweep(constraints):
    """The harmonic-aware procedure point by point, as ``mtsd_sweep``."""
    from hgipll.hgi import k_grid
    from hgipll.srf import srf_settling_time

    freqs = constraints.sweep_frequencies()
    ks = [float(k)
          for k in k_grid(*constraints.k_range, design_mod.K_STEP)]
    ts = {k: settling_times(HgiParams(k))[2] for k in ks}
    swept, best = [], None
    for f_bw in constraints.bandwidth_grid():
        f_bw = float(f_bw)
        feasible = [k for k in ks
                    if _feasible(k, f_bw, constraints.input_thd, freqs,
                                 constraints)]
        if not feasible:
            swept.append((f_bw, math.nan, math.inf, False))
            continue
        k_i = min(feasible, key=lambda k: (ts[k], k))
        t_sd = ts[k_i] + srf_settling_time(TWO_PI * f_bw)
        swept.append((f_bw, k_i, t_sd, True))
        if best is None or t_sd < best[0]:
            best = (t_sd, (k_i, f_bw, ts[k_i]))
    return swept, best and best[1]


def measured_thd(trace, fundamental_hz, sample_period, max_order=50,
                 min_cycles=5) -> float:
    """THD (percent) by a least-squares fit on the explicit n x (2H+1)
    sin/cos/dc basis over the whole-cycle tail window."""
    trace = np.asarray(trace, dtype=float)
    if fundamental_hz <= 0:
        raise AnalyticsError("fundamental_hz must be > 0")
    n_cycles = int(len(trace) * sample_period * fundamental_hz)
    if n_cycles < min_cycles:
        raise AnalyticsError("leakage window")
    n = int(round(n_cycles / (fundamental_hz * sample_period)))
    n = min(n, len(trace))
    window = trace[-n:]
    t = np.arange(n) * sample_period
    wt = TWO_PI * fundamental_hz * t
    basis = np.empty((n, 2 * max_order + 1))
    for h in range(1, max_order + 1):
        basis[:, 2 * h - 2] = np.sin(h * wt)
        basis[:, 2 * h - 1] = np.cos(h * wt)
    basis[:, -1] = 1.0
    coef, *_ = np.linalg.lstsq(basis, window, rcond=None)
    amps = np.hypot(coef[0:-1:2], coef[1:-1:2])
    if amps[0] == 0:
        raise AnalyticsError("no fundamental component in trace")
    return float(100.0 * math.sqrt(np.sum(amps[1:] ** 2)) / amps[0])


def spectral_line(trace, frequency_hz, sample_period) -> float:
    """Amplitude of one line by the single-bin projection of the
    mean-removed whole-cycle tail window.  Where the window holds dc and
    that line alone it agrees with the least-squares fit; next to other
    lines it leaks, since the window is not a whole number of samples
    per cycle."""
    trace = np.asarray(trace, dtype=float)
    n_cycles = int(len(trace) * sample_period * frequency_hz)
    if n_cycles < 1:
        raise AnalyticsError("trace shorter than one cycle")
    n = min(int(round(n_cycles / (frequency_hz * sample_period))),
            len(trace))
    window = trace[-n:] - np.mean(trace[-n:])
    t = np.arange(n) * sample_period
    z = np.sum(window * np.exp(-2j * np.pi * frequency_hz * t))
    return float(2 * abs(z) / n)


class Fixed16Reference(Fixed16Arithmetic):
    """The fixed16 policy with ``round()``-based quantizers: each rounds
    ``x * scale`` by ``round``, divides back and compares the quotient
    with the rails; ``trig`` interpolates between numpy-array LUT entries
    and so yields numpy scalars.  ``coeff`` finds the binary scale by
    ``log2``.  ``quantize_input`` is the package's."""

    def __init__(self, fraction_bits: int = 14):
        super().__init__(fraction_bits)
        self._ph_scale = float(1 << self.PHASE_FRACTION_BITS)
        self._acc_scale = float(1 << (self.ACCUMULATOR_BITS - 2))
        self._acc_max = (2 ** 31 - 1) / self._acc_scale
        self._acc_min = -(2 ** 31) / self._acc_scale
        idx = np.arange(self.LUT_SIZE) * (TWO_PI / self.LUT_SIZE)
        self._sin_lut = self.quantize_input(np.sin(idx))
        self._cos_lut = self.quantize_input(np.cos(idx))
        self.signal, self.accumulator = self._signal, self._accumulator
        self.phase, self.trig = self._phase, self._trig

    @staticmethod
    def coeff(x: float) -> float:
        """The smallest binary scale whose scaled |x| rounds into 16 bits,
        by ``log2``: below about 1e-319 ``log2`` raises ``ValueError``,
        below about 2**-1009 the scale raises ``OverflowError``."""
        if x == 0 or not math.isfinite(x):
            return x
        exp = math.ceil(math.log2(abs(x) / (2 ** 15 - 0.5)))
        scale = 2.0 ** -exp
        return round(x * scale) / scale

    def _signal(self, x: float) -> float:
        q = round(x * self._sig_scale) / self._sig_scale
        if q > self._sig_max:
            self.saturations += 1
            return self._sig_max
        if q < self._sig_min:
            self.saturations += 1
            return self._sig_min
        return q

    def _accumulator(self, x: float) -> float:
        q = round(x * self._acc_scale) / self._acc_scale
        if q > self._acc_max:
            self.saturations += 1
            return self._acc_max
        if q < self._acc_min:
            self.saturations += 1
            return self._acc_min
        return q

    def _phase(self, x: float) -> float:
        return round(x * self._ph_scale) / self._ph_scale

    def _trig(self, theta: float) -> tuple[float, float]:
        n = self.LUT_SIZE
        pos = (theta * (n / TWO_PI)) % n
        i = int(pos)
        frac = pos - i
        i %= n  # pos rounds up to n for a theta just below 0
        j = (i + 1) % n
        s = self._sin_lut[i] + frac * (self._sin_lut[j] - self._sin_lut[i])
        c = self._cos_lut[i] + frac * (self._cos_lut[j] - self._cos_lut[i])
        return self._signal(s), self._signal(c)


class HgiStep:
    """The HGI filter pair advanced one sample per call, by the package's
    per-sample step from before ``process`` ran the filter as one pass."""

    def __init__(self, params: HgiParams, sample_period: float, arith):
        self._signal = arith.signal
        self._k = arith.coeff(params.k)
        self._c1 = arith.coeff(params.k * params.omega0 * sample_period)
        self._c2 = arith.coeff(params.omega0 * sample_period)
        self._x1 = 0.0
        self._x2 = 0.0

    def step(self, v_g):
        q = self._signal
        x1, x2 = self._x1, self._x2
        u = v_g - x1                       # alpha-path input summer
        r = v_g - x1                       # beta-path input summer
        v_beta = q(x2 - self._k * r)
        self._x1 = q(x1 + self._c1 * u - self._c2 * x2)
        self._x2 = q(x2 + self._c2 * x1)
        return x1, v_beta


class BasicSogiStep(HgiStep):
    """The basic SOGI pair, stepped as ``HgiStep`` is."""

    def step(self, v_g):
        q = self._signal
        x1, x2 = self._x1, self._x2
        u = v_g - x1
        self._x1 = q(x1 + self._c1 * u - self._c2 * x2)
        self._x2 = q(x2 + self._c2 * x1)
        return x1, x2


class SrfStep:
    """The SRF loop advanced one sample per call, by the package's
    per-sample step from before ``process`` ran the loop as one pass."""

    def __init__(self, pi: PiParams, omega0: float, arith):
        self.omega0 = omega0
        self._trig = arith.trig
        self._signal = arith.signal
        self._accumulator = arith.accumulator
        self._phase = arith.phase
        ts = pi.sample_period
        self._kp_pu = arith.coeff(pi.kp / omega0)
        self._ki_pu = arith.coeff(pi.ki * ts / omega0)
        self._c_w = arith.coeff(omega0 * ts)
        self.theta = self.accumulator = self.deviation = 0.0
        self.v_d = self.v_q = 0.0

    def step(self, v_alpha, v_beta):
        signal = self._signal
        s, c = self._trig(self.theta)
        v_d = signal(v_alpha * c + v_beta * s)
        v_q = signal(v_beta * c - v_alpha * s)
        acc = self._accumulator(self.accumulator + self._ki_pu * v_d)
        dev = signal(self._kp_pu * v_d + acc)
        theta = self._phase(self.theta + self._c_w + self._c_w * dev)
        if theta >= TWO_PI:
            theta -= TWO_PI              # subtraction wrap, fixed-point safe
        elif theta < 0.0:
            theta += TWO_PI
        self.v_d = v_d
        self.v_q = v_q
        self.accumulator = acc
        self.deviation = dev
        self.theta = theta
        return s, c


def run(spec: GridSignalSpec, design, duration: float,
        mode: ArithmeticMode = FLOAT64, topology: str = "hgi") -> SimTrace:
    """The closed loop driven one ``np.float64`` input sample at a time
    through ``HgiStep`` (or ``BasicSogiStep``) and ``SrfStep``, the filter
    and the loop interleaved, each quantity stored by array indexing,
    omega_e formed per sample."""
    ts = design.pi.sample_period
    v_g = synthesize(spec, ts, duration)
    n = len(v_g)
    arith = (Fixed16Reference(mode.fraction_bits) if mode.mode == "fixed16"
             else mode.policy())
    v_g = arith.quantize_input(v_g)
    filt_cls = HgiStep if topology == "hgi" else BasicSogiStep
    filt = filt_cls(design.hgi, ts, arith)
    pll = SrfStep(design.pi, design.hgi.omega0, arith)

    out = {c: np.empty(n) for c in TRACE_CHANNELS}
    w0 = pll.omega0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                v = v_g[i]
                va, vb = filt.step(v)
                s, c = pll.step(va, vb)
                out["v_alpha"][i] = va
                out["v_beta"][i] = vb
                out["v_d"][i] = pll.v_d
                out["v_q"][i] = pll.v_q
                out["omega_e"][i] = w0 * (1.0 + pll.deviation)
                out["theta_e"][i] = pll.theta
                out["sin_theta"][i] = s
                out["cos_theta"][i] = c
    except (ValueError, OverflowError) as exc:
        raise SimulationError("numerical divergence") from exc
    out["v_g"] = v_g
    if not np.isfinite(out["omega_e"]).all():
        raise SimulationError("numerical divergence")
    return SimTrace(sample_period=ts, saturations=arith.saturations, **out)


def write_trace_csv(trace: SimTrace, path) -> None:
    """The trace as ``np.savetxt`` writes it."""
    header = "time_s," + ",".join(TRACE_CHANNELS)
    units = "s,pu,pu,pu,pu,pu,rad_per_s,rad,pu,pu"
    data = np.column_stack(
        [trace.time] + [trace.channel(c) for c in TRACE_CHANNELS]
    )
    np.savetxt(
        path, data, delimiter=",", fmt="%.10g",
        header=header + "\n" + units, comments="",
    )
