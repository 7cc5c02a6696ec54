"""Closed-form unit-vector THD prediction and DFT-based measurement.

Two distortion mechanisms are modelled:

* A frequency deviation unbalances the HGI quadrature pair, injecting a
  negative-sequence fundamental into the phase loop.  The resulting
  double-frequency phase ripple puts a third harmonic of amplitude a/2
  on the unit vectors (``freq_dev_ripple``).
* Each input voltage harmonic reaches the loop as a positive and a
  negative sequence component; a positive-sequence harmonic of order h
  creates unit-vector harmonics at orders h-2 and h, a negative-sequence
  one at h and h+2 (``harmonic_ripple``).

``total_unit_vector_thd`` runs the whole pipeline and phasor-sums ripple
terms that land on the same output order.  ``measured_thd`` is the
independent check on simulated traces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hgi import HgiParams, freq_response
from .signal_model import NOMINAL_OMEGA0, TWO_PI, GridSignalSpec
from .srf import PiParams


class AnalyticsError(ValueError):
    pass


@dataclass(frozen=True)
class Phasor:
    """Sine-referenced phasor: A*sin(order*w*t + phase) at one sequence."""

    amplitude: float
    phase: float
    order: int = 1
    sequence: str = "positive"

    def __post_init__(self):
        if self.amplitude < 0:
            raise AnalyticsError("amplitude must be >= 0")
        if self.order < 1:
            raise AnalyticsError("order must be >= 1")
        if self.sequence not in ("positive", "negative"):
            raise AnalyticsError("sequence must be 'positive' or 'negative'")

    @property
    def complex(self) -> complex:
        return self.amplitude * cmath.exp(1j * self.phase)


@dataclass(frozen=True)
class RippleTerm:
    """One unit-vector harmonic: a*sin(output_order*w*t + phi)."""

    a: float
    phi: float
    output_order: int

    def __post_init__(self):
        if self.a < 0:
            raise AnalyticsError("ripple amplitude must be >= 0")


@dataclass(frozen=True)
class LoopGain:
    """Magnitude and phase of the loop path behind the phase detector."""

    m: float
    x: float

    def __post_init__(self):
        if self.m <= 0:
            raise AnalyticsError("loop gain magnitude must be > 0")


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


def measured_thd(
    trace: np.ndarray,
    fundamental_hz: float,
    sample_period: float,
    max_order: int = 50,
    min_cycles: int = 5,
) -> float:
    """THD of a sampled waveform, in percent.

    Harmonic amplitudes come from a least-squares projection onto the
    harmonic basis over the largest whole number of fundamental cycles at
    the tail of the trace; the integer-cycle window keeps the fundamental
    orthogonal to the harmonics even when a cycle is not a whole number
    of samples.
    """
    trace = np.asarray(trace, dtype=float)
    if fundamental_hz <= 0:
        raise AnalyticsError("fundamental_hz must be > 0")
    if max_order < 2:
        raise AnalyticsError("max_order must be >= 2")
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


def spectral_line(
    trace: np.ndarray, frequency_hz: float, sample_period: float
) -> float:
    """Amplitude of one spectral line via projection over integer cycles."""
    trace = np.asarray(trace, dtype=float)
    n_cycles = int(len(trace) * sample_period * frequency_hz)
    if n_cycles < 1:
        raise AnalyticsError("trace shorter than one cycle")
    n = min(int(round(n_cycles / (frequency_hz * sample_period))), len(trace))
    window = trace[-n:] - np.mean(trace[-n:])
    t = np.arange(n) * sample_period
    z = np.sum(window * np.exp(-2j * np.pi * frequency_hz * t))
    return float(2 * abs(z) / n)
