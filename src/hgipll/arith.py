"""Arithmetic policies: how the filters and the phase loop quantize values.

A policy provides ``coeff`` (applied once per coefficient), ``signal``,
``accumulator`` and ``phase`` (applied per state update), ``trig`` (theta
to (sin, cos)), ``quantize_input`` (over the whole sampled input) and a
``saturations`` count.  ``EXACT`` is plain float64; ``Fixed16Arithmetic``
emulates a 16-bit DSP; ``ArithmeticMode.policy()`` picks one per run.

A fixed16 quantizer rounds y = x * scale half to even as
``(y + 1.5 * 2**52) - 1.5 * 2**52``: while |y| < 2**51 the sum lies where
adjacent float64 values are exactly 1 apart, so the result equals
``round(y)``.  One check of that result against the word's rails passes
every in-range value, all of which lie in the exact range.  Anything
else (past a rail, |y| >= 2**51, inf or NaN) is handed to ``round(y)``,
which raises ``OverflowError`` or ``ValueError`` for inf and NaN, and is
then saturated and counted.  The phase word is not saturated: its 52 bits
end at -2**51 and 2**51 - 1, past which it returns ``round(y) / scale``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .signal_model import TWO_PI


class SampleError(ArithmeticError):
    """Raised by a filter or loop pass when the arithmetic of the sample
    at ``index`` raises; the policy's ``OverflowError`` or ``ValueError``
    (a fixed16 ``round`` of inf or NaN, or trig of a non-finite phase)
    is its ``__cause__``."""

    def __init__(self, index: int):
        super().__init__(f"arithmetic raised at sample {index}")
        self.index = index


class ExactArithmetic:
    """No-op policy: exact float64 everywhere, nothing ever saturates."""

    saturations = 0

    @staticmethod
    def coeff(x):
        return x

    # unary plus returns a float unchanged, and as a C function it costs
    # less per sample than a Python identity function
    signal = accumulator = phase = staticmethod(operator.pos)

    @staticmethod
    def trig(theta):
        return math.sin(theta), math.cos(theta)

    @staticmethod
    def quantize_input(v: np.ndarray) -> np.ndarray:
        return v


EXACT = ExactArithmetic()

_ROUNDER = 1.5 * 2.0 ** 52   # (y + _ROUNDER) - _ROUNDER rounds y, see above


class Fixed16Arithmetic:
    """Emulated 16-bit fixed-point arithmetic with saturation.

    Signals use the configured Q-format (Q2.14 by default).  The phase
    and PI-integrator accumulators use wider 32-bit words (Q4.28 and
    Q2.30): with 16-bit resolution the per-sample phase correction and
    the integral increments would quantize to zero and the loop would
    limit-cycle.  Coefficients are rounded to a 16-bit mantissa at a
    per-coefficient binary scale, as a DSP implementation would store
    them.  Saturations are counted.

    ``signal``, ``accumulator``, ``phase`` and ``trig`` are closures
    built once per policy by ``_quantizer`` and ``_lut_trig``.
    """

    PHASE_FRACTION_BITS = 28
    ACCUMULATOR_BITS = 32
    LUT_SIZE = 1024

    def __init__(self, fraction_bits: int = 14):
        self.fraction_bits = fraction_bits
        self.saturations = 0
        self._sig_scale = float(1 << fraction_bits)
        self._sig_max = (2 ** 15 - 1) / self._sig_scale
        self._sig_min = -(2 ** 15) / self._sig_scale
        self.signal = self._quantizer(self._sig_scale, 16)
        self.accumulator = self._quantizer(
            float(1 << (self.ACCUMULATOR_BITS - 2)), self.ACCUMULATOR_BITS)
        # the phase word never saturates; its 52 bits end where the
        # rounding stops being exact
        self.phase = self._quantizer(
            float(1 << self.PHASE_FRACTION_BITS), 52, saturate=False)
        self.trig = self._lut_trig()

    def _quantizer(self, scale: float, bits: int, saturate: bool = True):
        """x rounded onto a ``bits``-bit word at ``scale`` (see the module
        docstring); past the rails it saturates and counts, or with
        ``saturate=False`` returns ``round(x * scale) / scale``."""
        lo, hi = -float(2 ** (bits - 1)), float(2 ** (bits - 1) - 1)

        def quantize(x: float) -> float:
            y = x * scale
            q = (y + _ROUNDER) - _ROUNDER
            if lo <= q <= hi:
                return q / scale
            r = round(y)
            if not saturate:
                return r / scale
            self.saturations += 1
            return (hi if r > hi else lo) / scale

        return quantize

    def quantize_input(self, v: np.ndarray) -> np.ndarray:
        """The signal quantizer over a whole input array, as the ADC
        front end applies it; clipped input samples are not counted as
        saturations."""
        # clipping first keeps out-of-range input from overflowing the
        # scaling; the rails are exact multiples of the LSB
        return np.round(
            np.clip(v, self._sig_min, self._sig_max) * self._sig_scale
        ) / self._sig_scale

    @staticmethod
    def coeff(x: float) -> float:
        """Round to a 16-bit mantissa at the value's own binary scale; a
        zero or non-finite value is returned unchanged."""
        if x == 0 or not math.isfinite(x):
            return x
        m, e = math.frexp(x)  # x = m * 2**e, 0.5 <= |m| < 1
        q = round(math.ldexp(m, 15))
        if abs(q) == 2 ** 15:  # m rounded up out of 16 bits: one bit less
            q, e = q // 2, e + 1
        # past 2**1024 (within half an LSB of the float64 top) it is inf
        return math.ldexp(q, e - 15) if e <= 1024 else math.copysign(math.inf, x)

    def _lut_trig(self):
        """Table lookup with linear interpolation, as DSP firmware does;
        a raw 1024-entry staircase would put ~0.3 Hz of phase-detector
        noise on the frequency estimate.  The slope to the next entry is
        tabulated with each entry.

        An interpolated value lies between two in-rail signal words, so
        it is rounded onto the signal word without ``signal``'s rail
        check, which could never fire: the same rounding, in line.  The
        table holds the words times the signal scale, which is exact, so
        the sum is the scaled value ``signal`` would round.
        """
        n = self.LUT_SIZE
        scale = self._sig_scale
        idx = np.arange(n) * (TWO_PI / n)
        # entries are signal words: at Q1.15 a peak of 1.0 takes the rail
        sin = self.quantize_input(np.sin(idx)) * scale
        cos = self.quantize_input(np.cos(idx)) * scale
        # lists, so that a lookup yields a Python float, not a numpy scalar
        d_sin = (np.roll(sin, -1) - sin).tolist()
        d_cos = (np.roll(cos, -1) - cos).tolist()
        sin, cos = sin.tolist(), cos.tolist()
        per_rad = n / TWO_PI

        def trig(theta: float) -> tuple[float, float]:
            pos = (theta * per_rad) % n
            i = int(pos)
            frac = pos - i
            i %= n  # pos rounds up to n for a theta just below 0
            return (((sin[i] + frac * d_sin[i] + _ROUNDER) - _ROUNDER) / scale,
                    ((cos[i] + frac * d_cos[i] + _ROUNDER) - _ROUNDER) / scale)

        return trig


@dataclass(frozen=True)
class ArithmeticMode:
    """float64, or 16-bit fixed point with the given signal Q-format."""

    mode: str = "float64"
    fraction_bits: int = 14

    def __post_init__(self):
        if self.mode not in ("float64", "fixed16"):
            raise ValueError("mode must be 'float64' or 'fixed16'")
        if self.mode == "fixed16" and not 8 <= self.fraction_bits <= 15:
            raise ValueError("fixed16 fraction bits must be in [8, 15]")

    def policy(self):
        """A fresh arithmetic policy for one simulation in this mode."""
        if self.mode == "fixed16":
            return Fixed16Arithmetic(self.fraction_bits)
        return EXACT


FLOAT64 = ArithmeticMode("float64")
FIXED16 = ArithmeticMode("fixed16")
