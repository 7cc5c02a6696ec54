"""Closed-form unit-vector THD prediction and DFT-based measurement.

One mechanism covers every distortion source.  A sequence component of
order h beats against the positive-sequence fundamental through the loop
gain at n*w; the phase ripple puts unit-vector harmonics on two orders:
n = h-1 and orders h-2, h for positive sequence, n = h+1 and orders h,
h+2 for negative sequence.  Each input voltage harmonic reaches the loop
as both sequences.  A frequency deviation unbalances the HGI quadrature
pair, leaving a negative-sequence fundamental (h = 1, orders 1 and 3);
its order-1 term perturbs the fundamental amplitude and only the third
harmonic counts.

Each term is one complex phasor a*exp(j*phi) of the unit-vector harmonic
a*sin(order*w*t + phi): z*G / (2*(1 + Re(v1+)*G)), with z the sequence
component, G = ki/(n*w)^2 + j*kp/(n*w) the loop gain at n*w and v1+ the
positive-sequence fundamental reference.

``ripple_terms`` runs the whole pipeline array-native: every argument
broadcasts, so one call evaluates a whole grid of gains, frequencies and
harmonic profiles; ``unit_vector_thd`` sums the phasors that land on the
same output order.  ``total_unit_vector_thd`` and
``harmonic_breakdown`` evaluate one scenario through the same code.
``measured_thd`` is the independent check on simulated traces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hgi import HgiParams, quadrature_gains
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
        if not self.amplitude >= 0:
            raise AnalyticsError("amplitude must be >= 0")
        if self.order < 1:
            raise AnalyticsError("order must be >= 1")
        if self.sequence not in ("positive", "negative"):
            raise AnalyticsError("sequence must be 'positive' or 'negative'")

    @property
    def complex(self) -> complex:
        return self.amplitude * cmath.exp(1j * self.phase)


def _sequences(v_alpha, v_beta):
    """Positive- and negative-sequence alpha phasors of an alpha/beta pair."""
    return (v_alpha + 1j * v_beta) / 2, (v_alpha - 1j * v_beta) / 2


def _beat(h: int, sequence: str) -> tuple[int, tuple[int, int]]:
    """Loop-gain multiple n and the two output orders of a sequence harmonic."""
    if sequence == "positive":
        return h - 1, (h - 2, h)
    return h + 1, (h, h + 2)


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
    vap, van = _sequences(v_halpha.complex, v_hbeta.complex)

    def mk(z: complex, seq: str) -> Phasor:
        return Phasor(abs(z), cmath.phase(z), h, seq)

    positive = (mk(vap, "positive"), mk(-1j * vap, "positive"))
    negative = (mk(van, "negative"), mk(1j * van, "negative"))
    return positive, negative


def _ripple(n, z, v1p, kp, ki, omega):
    """Ripple phasor a*exp(j*phi) that a sequence component ``z`` makes
    through the loop gain G at n*omega against the fundamental reference
    ``v1p``: z*G / (2*(1 + Re(v1p)*G)); array-native."""
    w = n * omega
    g = ki / (w * w) + 1j * (kp / w)  # -(kp + ki/s)/s at s = j*w
    return z * g / (2 * (1 + v1p.real * g))


def ripple_terms(
    k, kp, ki, omega, harmonics=(), amplitude=1.0, phase=0.0,
    omega0: float = NOMINAL_OMEGA0,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """All unit-vector ripple terms of steady-state scenarios, array-native.

    ``k`` (HGI gain), ``kp``/``ki`` (PI gains), ``omega`` (fundamental,
    rad/s), ``amplitude``/``phase`` (fundamental) and the amplitudes and
    phases of ``harmonics``, a sequence of (order, amplitude, phase), all
    broadcast against each other, so one call covers a whole grid.

    Pipeline: push the fundamental and each input harmonic through the
    HGI gains, split each into sequence components and evaluate the ripple
    of every component through ``_ripple``.  The fundamental reference
    is the positive-sequence part of the filtered fundamental.  The
    deviation term is the negative-sequence part of the filtered unit
    fundamental (amplitude 1, phase 0), with that unit fundamental's
    positive-sequence part as its reference.

    Returns (output order, phasor, present) per term, the phasor
    a*exp(j*phi) of the unit-vector harmonic a*sin(order*w*t + phi): the
    deviation term first, then for each harmonic its positive- and
    negative-sequence pairs.  Where a term does not arise (nominal
    frequency, a sequence component below 1e-15) ``present`` is False and
    its phasor is 0.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise AnalyticsError("omega must be finite")
    terms = []
    with np.errstate(divide="ignore", invalid="ignore"):
        g_alpha, g_beta = quadrature_gains(k, omega0, omega)
        rot = np.exp(1j * phase)
        v1p, _ = _sequences(amplitude * g_alpha * rot, amplitude * g_beta * rot)

        off_nominal = np.abs(omega - omega0) > 1e-9
        in_range = (0.5 * omega0 < omega) & (omega < 1.5 * omega0)
        if np.any(off_nominal & ~in_range):
            raise AnalyticsError("omega_in outside supported deviation range")
        unit_p, unit_n = _sequences(g_alpha, g_beta)
        # deviation term: of its output orders 1 and 3 only 3 is distortion
        n, (_, order) = _beat(1, "negative")
        r = _ripple(n, unit_n, unit_p, kp, ki, omega)
        present = off_nominal & (r != 0)
        terms.append((order, np.where(present, r, 0j), present))

        for order, v_h, gamma in harmonics:
            if order < 2:
                raise AnalyticsError("harmonic order must be >= 2")
            if not np.isfinite(v_h).all():
                raise AnalyticsError("harmonic amplitude must be finite")
            gah, gbh = quadrature_gains(k, omega0, order * omega)
            rot = np.exp(1j * gamma)
            pos, neg = _sequences(v_h * gah * rot, v_h * gbh * rot)
            for z, sequence in ((pos, "positive"), (neg, "negative")):
                n, orders = _beat(order, sequence)
                present = np.abs(z) >= 1e-15
                if np.any(present & (v1p == 0)):
                    raise AnalyticsError("no fundamental reference")
                r = np.where(present, _ripple(n, z, v1p, kp, ki, omega), 0j)
                terms.extend((o, r, present) for o in orders)
    return terms


def _by_order(terms) -> dict[int, np.ndarray]:
    """Sum of the ripple phasors per output order."""
    by_order: dict[int, np.ndarray] = {}
    for order, r, _ in terms:
        by_order[order] = by_order.get(order, 0) + r
    return by_order


def unit_vector_thd(
    k, kp, ki, omega, harmonics=(), amplitude=1.0, phase=0.0,
    omega0: float = NOMINAL_OMEGA0,
) -> np.ndarray:
    """Predicted THD of the sine unit vector, in percent, over a whole grid
    (arguments as in ``ripple_terms``).

    Ripple at orders below 2 perturbs the fundamental amplitude and is
    excluded; the fundamental itself is unit amplitude by construction.
    """
    by_order = _by_order(
        ripple_terms(k, kp, ki, omega, harmonics, amplitude, phase, omega0))
    power = sum(np.abs(z) ** 2 for o, z in by_order.items() if o >= 2)
    return 100.0 * np.sqrt(power)


def _steady_args(spec: GridSignalSpec, hgi: HgiParams, pi: PiParams) -> tuple:
    """``ripple_terms`` arguments for one event-free scenario."""
    if spec.events:
        raise AnalyticsError("steady-state analysis requires an event-free spec")
    harmonics = [(c.order, c.amplitude, c.phase) for c in spec.harmonics]
    return (hgi.k, pi.kp, pi.ki, TWO_PI * spec.fundamental_frequency,
            harmonics, spec.fundamental_amplitude, spec.fundamental_phase,
            hgi.omega0)


def total_unit_vector_thd(
    spec: GridSignalSpec, hgi: HgiParams, pi: PiParams
) -> float:
    """Predicted THD of the sine unit vector, in percent."""
    return float(unit_vector_thd(*_steady_args(spec, hgi, pi)))


def harmonic_breakdown(
    spec: GridSignalSpec, hgi: HgiParams, pi: PiParams
) -> list[tuple[int, float, float]]:
    """Per-order (order, amplitude, phase) table of unit-vector ripple,
    over the orders that receive at least one ripple term."""
    terms = ripple_terms(*_steady_args(spec, hgi, pi))
    present = {o for o, _, p in terms if p}
    return [
        (o, float(abs(z)), float(np.angle(z)))
        for o, z in sorted(_by_order(terms).items()) if o in present
    ]


def _whole_cycle_window(trace: np.ndarray, frequency_hz: float,
                        sample_period: float) -> tuple[int, int]:
    """Whole cycles of ``frequency_hz`` in the trace, and the sample count
    of that many cycles (rounded, at most the trace length).  Raises
    ``AnalyticsError`` where 2*pi*f or its angle per sample overflows."""
    omega = TWO_PI * frequency_hz
    if not (math.isfinite(omega) and math.isfinite(omega * sample_period)):
        raise AnalyticsError(f"{frequency_hz:g} Hz has no finite angle per "
                             f"sample at Ts = {sample_period:g} s")
    n_cycles = int(len(trace) * sample_period * frequency_hz)
    if n_cycles < 1:
        # not one cycle, also where frequency_hz * sample_period underflows
        return 0, 0
    n = int(round(n_cycles / (frequency_hz * sample_period)))
    return n_cycles, min(n, len(trace))


def measured_thd(
    trace: np.ndarray,
    fundamental_hz: float,
    sample_period: float,
    max_order: int = 50,
) -> float:
    """THD of a sampled waveform, in percent.

    Harmonic amplitudes come from a least-squares projection onto the
    harmonic basis over the largest whole number of fundamental cycles (at
    least five) at the tail of the trace; the integer-cycle window keeps
    the fundamental orthogonal to the harmonics even when a cycle is not a
    whole number of samples.

    The fit is solved by its normal equations without forming the basis:
    with z = exp(j*w*Ts*i), one running product z**d gives the power sums
    E[d] = sum(z**d) for d = 0..2H and the projections P[h] = sum(y*z**h)
    for h = 0..H, and the product-to-sum identities turn E into the Gram
    matrix.  The Gram matrix is solved by ``lstsq``, so orders that alias
    at or past Nyquist get the minimum-norm split of the sample-space fit.
    The normal equations square the basis' condition number: within about
    1e-7 cycles per sample of Nyquist (max_order * f * Ts -> 0.5) the top
    order's sine column nearly vanishes, the fit amplifies noise without
    bound and the two solutions part.
    """
    trace = np.asarray(trace, dtype=float)
    if not fundamental_hz > 0:
        raise AnalyticsError("fundamental_hz must be > 0")
    if max_order < 2:
        raise AnalyticsError("max_order must be >= 2")
    n_cycles, n = _whole_cycle_window(trace, fundamental_hz, sample_period)
    if n_cycles < 5:
        raise AnalyticsError("leakage window")
    window = trace[-n:]
    z = np.exp(1j * (TWO_PI * fundamental_hz * (np.arange(n) * sample_period)))
    power = np.empty(2 * max_order + 1, dtype=complex)
    proj = np.empty(max_order + 1, dtype=complex)
    zd = np.ones(n, dtype=complex)
    zd_parts = zd.view(float).reshape(n, 2)  # (real, imag) columns of zd
    for d in range(2 * max_order + 1):
        power[d] = zd.sum()
        if d <= max_order:
            proj[d] = complex(*(window @ zd_parts))
        zd *= z
    # E[d] for d = -2H..2H (E[-d] = conj(E[d])), indexed from 0
    sums = np.concatenate((power[:0:-1].conj(), power))
    h = np.arange(max_order + 1)
    e_dif = sums[2 * max_order + h[:, None] - h]
    e_add = sums[2 * max_order + h[:, None] + h]
    # columns: cos(h*wt) for h = 0..H (h = 0 is the dc), then sin for 1..H
    cos_cos = (e_dif + e_add).real / 2
    sin_sin = (e_dif - e_add).real[1:, 1:] / 2
    sin_cos = (e_add + e_dif).imag[1:, :] / 2
    gram = np.block([[cos_cos, sin_cos.T], [sin_cos, sin_sin]])
    rhs = np.concatenate((proj.real, proj.imag[1:]))
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    amps = np.hypot(coef[1:max_order + 1], coef[max_order + 1:])
    if amps[0] == 0:
        raise AnalyticsError("no fundamental component in trace")
    return float(100.0 * math.sqrt(np.sum(amps[1:] ** 2)) / amps[0])


def spectral_line(
    trace: np.ndarray, frequency_hz: float, sample_period: float
) -> float:
    """Amplitude of one spectral line via projection over integer cycles."""
    trace = np.asarray(trace, dtype=float)
    n_cycles, n = _whole_cycle_window(trace, frequency_hz, sample_period)
    if n_cycles < 1:
        raise AnalyticsError("trace shorter than one cycle")
    window = trace[-n:] - np.mean(trace[-n:])
    t = np.arange(n) * sample_period
    z = np.sum(window * np.exp(-2j * np.pi * frequency_hz * t))
    return float(2 * abs(z) / n)
