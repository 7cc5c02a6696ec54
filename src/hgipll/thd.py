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
a*sin(order*w*t + phi): z*F_n, with z the sequence component and
F_n = G / (2*(1 + Re(v1+)*G)) the loop factor, G = ki/(n*w)^2 +
j*kp/(n*w) the loop gain at n*w and v1+ the positive-sequence fundamental
reference.  Every term at loop multiple n shares F_n and lands on the
same orders n-1 and n+1, so the terms group by loop multiple.  The
deviation term, whose reference is the unit fundamental and whose one
counted order is 3, is a group of its own; it shares F_2 only where v1+
equals that reference (a unit fundamental at phase 0).

``unit_vector_thd`` runs the whole pipeline array-native: every argument
broadcasts, so one call evaluates a whole grid of gains, frequencies and
harmonic profiles.  It sums each group's sequence components first, on a
grid without the PI gains' axes, so the whole grid takes one product with
F_n per group, not one per term.  ``total_unit_vector_thd`` and
``harmonic_breakdown`` evaluate one scenario through the same code.
``line_fit`` measures simulated traces, one trace or a stack that shares
one fit matrix: ``LineFit.thd`` reads a row's THD, ``spectral_line`` the
line at the fundamental.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hgi import HgiParams, quadrature_gains
from .signal_model import NOMINAL_OMEGA0, TWO_PI, GridSignalSpec
from .srf import PiParams


#: Highest harmonic order that ``line_fit`` fits.
THD_FIT_ORDER = 50


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


def _loop_factor(n, ref, kp, ki, omega):
    """Loop factor F_n = G / (2*(1 + Re(ref)*G)) of the loop gain G at
    n*omega against the fundamental reference ``ref``; array-native."""
    w = n * omega
    g = ki / (w * w) + 1j * (kp / w)  # -(kp + ki/s)/s at s = j*w
    # 2 + (2*Re(ref))*G equals 2*(1 + Re(ref)*G) bit for bit, one pass fewer
    return g / (2 + (2 * ref.real) * g)


def _grouped_terms(k, omega, harmonics, amplitude, phase, omega0):
    """Every ripple term as its sequence component and its loop.

    Returns (terms, refs): ``terms`` lists (loop, output orders, z,
    present), the deviation term first and then each harmonic's positive-
    and negative-sequence terms, with ``z`` zero and ``present`` False
    where the term does not arise (nominal frequency, a sequence component
    below 1e-15); a loop is a loop multiple n and the name of its
    fundamental reference in ``refs``.  A term's phasor is z*F_n, F_n the
    loop's ``_loop_factor``, that of the unit-vector harmonic
    a*sin(order*w*t + phi).

    The fundamental reference is the positive-sequence part of the
    filtered fundamental.  The deviation term is the negative-sequence
    part of the filtered unit fundamental (amplitude 1, phase 0), with
    that unit fundamental's positive-sequence part as its reference.
    """
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
    present = off_nominal & (unit_n != 0)
    terms = [((n, "unit"), (order,), np.where(present, unit_n, 0j), present)]
    # a unit fundamental at phase 0 makes v1+ the unit reference itself,
    # and the deviation term shares the loop factor of the other n = 2 terms
    v1p_name = "unit" if np.array_equal(v1p, unit_p) else "v1p"

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
            # a component that overflowed to NaN is present, not dropped
            present = ~(np.abs(z) < 1e-15)
            if np.any(present & (v1p == 0)):
                raise AnalyticsError("no fundamental reference")
            terms.append(((n, v1p_name), orders, np.where(present, z, 0j),
                          present))
    return terms, {"unit": unit_p, "v1p": v1p}


def _evaluate(k, kp, ki, omega, harmonics, amplitude, phase, omega0
              ) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The sum of the ripple phasors per output order, over the orders
    that receive a term, and the THD that ``unit_vector_thd`` returns;
    every call of ``unit_vector_thd`` and ``harmonic_breakdown`` comes
    through here.

    A group is the terms with one loop and the same output orders.  They
    share F_n, so their components are summed first, on a grid without
    the PI gains' axes, and meet F_n in one product over the whole grid;
    F_n is formed once per loop, only for a group where a term arises.
    The squares are summed in the order of each order's first group, and
    the THD takes the broadcast shape of all the arguments, so a skipped
    group moves no bit.

    numpy rounds complex arithmetic on one-element operands differently
    from the vector loops a grid of more points takes, so a one-point
    grid is evaluated with its gain repeated and cut back to one point
    at the end: a point gets the same bits alone as in any grid.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise AnalyticsError("omega must be finite")
    args = (k, kp, ki, omega, amplitude, phase,
            *(x for _, v_h, gamma in harmonics for x in (v_h, gamma)))
    shape = np.broadcast_shapes(*map(np.shape, args))
    one_point = all(np.size(x) == 1 for x in args)
    if one_point:
        k = np.repeat(np.reshape(k, -1), 2)
    # where no term arises F_n may be inf or nan; a THD past the float
    # range is inf, which no design meets and the CLI refuses
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms, refs = _grouped_terms(k, omega, harmonics, amplitude, phase,
                                     omega0)
        groups: dict = {}
        for loop, orders, z, present in terms:
            c, mask = groups.get((loop, orders), (0j, False))
            groups[loop, orders] = c + z, mask | present
        factors, sums = {}, {}
        for ((n, name), orders), (c, mask) in groups.items():
            if not mask.any():
                continue
            if (n, name) not in factors:
                factors[n, name] = _loop_factor(n, refs[name], kp, ki, omega)
            r = c * factors[n, name]
            if not mask.all():
                # where no term arises F_n may be inf or nan; r is 0 there
                r = np.where(mask, r, 0j)
            for o in orders:
                sums[o] = sums[o] + r if o in sums else r
        first_seen = dict.fromkeys(o for _, orders in groups for o in orders)
        power = sum((np.abs(sums[o]) ** 2 for o in first_seen
                     if o >= 2 and o in sums), np.zeros(shape))
    thd = 100.0 * np.sqrt(power)
    if one_point:
        sums = {o: z[..., :1].reshape(shape) for o, z in sums.items()}
        thd = np.reshape(thd, -1)[:1].reshape(shape)
    return sums, thd


def unit_vector_thd(
    k, kp, ki, omega, harmonics=(), amplitude=1.0, phase=0.0,
    omega0: float = NOMINAL_OMEGA0,
) -> np.ndarray:
    """Predicted THD of the sine unit vector, in percent, over a whole grid.

    ``k`` (HGI gain), ``kp``/``ki`` (PI gains), ``omega`` (fundamental,
    rad/s), ``amplitude``/``phase`` (fundamental) and the amplitudes and
    phases of ``harmonics``, a sequence of (order, amplitude, phase), all
    broadcast against each other, so one call covers a whole grid.  The
    THD is the root-sum-square of the per-order sums of the ripple
    phasors z*F_n, each loop multiple's terms summed before they meet
    their shared loop factor F_n.

    Ripple at orders below 2 perturbs the fundamental amplitude and is
    excluded; the fundamental itself is unit amplitude by construction.
    """
    return _evaluate(k, kp, ki, omega, harmonics, amplitude, phase,
                     omega0)[1]


def _steady_args(spec: GridSignalSpec, hgi: HgiParams, pi: PiParams) -> tuple:
    """``unit_vector_thd`` arguments for one event-free scenario."""
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
    sums, _ = _evaluate(*_steady_args(spec, hgi, pi))
    return [(o, float(abs(z)), float(np.angle(z)))
            for o, z in sorted(sums.items())]


@dataclass(frozen=True, eq=False)
class LineFit:
    """What ``line_fit`` returns: the whole cycles in the fitted window
    and, per row, ``lines[row, h]``, order h's complex amplitude
    a*exp(j*phi) of a*sin(h*w*t + phi), t from the window's first sample
    (order 0 is the dc); None where the window holds no whole cycle.
    Magnitudes are taken by ``np.hypot``, as numpy's vector complex
    ``abs`` rounds otherwise."""

    cycles: int
    lines: np.ndarray | None

    def amplitude(self, order: int, row: int = 0) -> float:
        """Amplitude of one order of one row; needs one whole cycle."""
        if self.lines is None:
            raise AnalyticsError("trace shorter than one cycle")
        z = self.lines[row, order]
        return float(np.hypot(z.real, z.imag))

    def thd(self, row: int = 0) -> float:
        """THD of one row in percent: the root-sum-square of orders 2 and
        up over order 1; needs five whole cycles, as fewer leak."""
        if self.cycles < 5:
            raise AnalyticsError("leakage window")
        z = self.lines[row, 1:]
        amps = np.hypot(z.real, z.imag)
        if amps[0] == 0:
            raise AnalyticsError("no fundamental component in trace")
        return float(100.0 * math.sqrt(np.sum(amps[1:] ** 2)) / amps[0])


def line_fit(trace: np.ndarray, fundamental_hz: float,
             sample_period: float) -> LineFit:
    """Fit dc and orders 1..``THD_FIT_ORDER`` of ``fundamental_hz`` by least
    squares over the largest whole number of cycles at the tail of a
    trace, or of each row of a 2-D stack of equal-length traces; a trace
    is the one-row stack.  The integer-cycle window keeps the fundamental
    orthogonal to the harmonics even when a cycle is not a whole number of
    samples.

    The fit is solved by its normal equations without forming the basis:
    with z = exp(j*w*Ts*i), one running product z**d gives the power sums
    E[d] = sum(z**d) for d = 0..2H and the projections P[h] = sum(y*z**h)
    for h = 0..H, and the product-to-sum identities turn E into the Gram
    matrix.  The Gram matrix is solved by ``lstsq``, so orders that alias
    at or past Nyquist get the minimum-norm split of the sample-space fit.
    The normal equations square the basis' condition number: within about
    1e-7 cycles per sample of Nyquist (THD_FIT_ORDER * f * Ts -> 0.5) the top
    order's sine column nearly vanishes, the fit amplifies noise without
    bound and the two solutions part.

    The power sums and the Gram matrix depend only on the fundamental,
    the sample period, the window and the order, so a stack shares them;
    each row gets its own projection mat-vec and its own ``lstsq`` call,
    so a row's amplitudes are bit for bit those of the row alone.
    """
    if not fundamental_hz > 0:
        raise AnalyticsError("fundamental_hz must be > 0")
    if np.ndim(trace) not in (1, 2):
        raise AnalyticsError("trace must be 1-D, or a 2-D stack of traces")
    rows = np.atleast_2d(np.asarray(trace, dtype=float))
    omega = TWO_PI * fundamental_hz
    if not (math.isfinite(omega) and math.isfinite(omega * sample_period)):
        raise AnalyticsError(f"{fundamental_hz:g} Hz has no finite angle per "
                             f"sample at Ts = {sample_period:g} s")
    n_cycles = int(rows.shape[1] * sample_period * fundamental_hz)
    if n_cycles < 1:
        # not one cycle, also where fundamental_hz * sample_period underflows
        return LineFit(0, None)
    # that many cycles' samples, rounded, at most the trace length
    n = min(int(round(n_cycles / (fundamental_hz * sample_period))),
            rows.shape[1])
    windows = rows[:, -n:]
    z = np.exp(1j * (omega * (np.arange(n) * sample_period)))
    power = np.empty(2 * THD_FIT_ORDER + 1, dtype=complex)
    proj = np.empty((len(rows), THD_FIT_ORDER + 1), dtype=complex)
    zd = np.ones(n, dtype=complex)
    zd_parts = zd.view(float).reshape(n, 2)  # (real, imag) columns of zd
    for d in range(2 * THD_FIT_ORDER + 1):
        power[d] = zd.sum()
        if d <= THD_FIT_ORDER:
            for p, window in zip(proj, windows):
                p[d] = complex(*(window @ zd_parts))
        zd *= z
    # E[d] for d = -2H..2H (E[-d] = conj(E[d])), indexed from 0
    sums = np.concatenate((power[:0:-1].conj(), power))
    h = np.arange(THD_FIT_ORDER + 1)
    e_dif = sums[2 * THD_FIT_ORDER + h[:, None] - h]
    e_add = sums[2 * THD_FIT_ORDER + h[:, None] + h]
    # columns: cos(h*wt) for h = 0..H (h = 0 is the dc), then sin for 1..H
    cos_cos = (e_dif + e_add).real / 2
    sin_sin = (e_dif - e_add).real[1:, 1:] / 2
    sin_cos = (e_add + e_dif).imag[1:, :] / 2
    gram = np.block([[cos_cos, sin_cos.T], [sin_cos, sin_sin]])
    lines = np.zeros((len(rows), THD_FIT_ORDER + 1), dtype=complex)
    for line, p in zip(lines, proj):
        rhs = np.concatenate((p.real, p.imag[1:]))
        coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        # a*sin(x + phi) = a*cos(phi)*sin(x) + a*sin(phi)*cos(x): the sine
        # coefficient is the real part, the cosine one the imaginary part
        line.real[0] = coef[0]
        line.real[1:] = coef[THD_FIT_ORDER + 1:]
        line.imag[1:] = coef[1:THD_FIT_ORDER + 1]
    return LineFit(n_cycles, lines)


def spectral_line(
    trace: np.ndarray, frequency_hz: float, sample_period: float
) -> float:
    """Amplitude of the line at ``frequency_hz``: order 1 of its
    ``line_fit``, so over at least one whole cycle."""
    return line_fit(trace, frequency_hz, sample_period).amplitude(1)
