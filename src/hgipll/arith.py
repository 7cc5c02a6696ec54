"""Arithmetic policies: how the filters and the phase loop quantize values.

A policy provides ``coeff`` (applied once per coefficient), ``signal``,
``accumulator`` and ``phase`` (applied per state update), ``trig`` (theta
to (sin, cos)), ``quantize_input`` (over the whole sampled input) and a
``saturations`` count.  ``EXACT`` is plain float64; ``Fixed16Arithmetic``
emulates a 16-bit DSP; ``ArithmeticMode.policy()`` picks one per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_model import TWO_PI


class ExactArithmetic:
    """No-op policy: exact float64 everywhere, nothing ever saturates."""

    saturations = 0

    @staticmethod
    def coeff(x):
        return x

    signal = accumulator = phase = coeff

    @staticmethod
    def trig(theta):
        return math.sin(theta), math.cos(theta)

    @staticmethod
    def quantize_input(v: np.ndarray) -> np.ndarray:
        return v


EXACT = ExactArithmetic()


class Fixed16Arithmetic:
    """Emulated 16-bit fixed-point arithmetic with saturation.

    Signals use the configured Q-format (Q2.14 by default).  The phase
    and PI-integrator accumulators use wider 32-bit words (Q4.28 and
    Q2.30): with 16-bit resolution the per-sample phase correction and
    the integral increments would quantize to zero and the loop would
    limit-cycle.  Coefficients are rounded to a 16-bit mantissa at a
    per-coefficient binary scale, as a DSP implementation would store
    them.  Saturations are counted.
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
        self._ph_scale = float(1 << self.PHASE_FRACTION_BITS)
        self._acc_scale = float(1 << (self.ACCUMULATOR_BITS - 2))
        self._acc_max = (2 ** 31 - 1) / self._acc_scale
        self._acc_min = -(2 ** 31) / self._acc_scale
        idx = np.arange(self.LUT_SIZE) * (TWO_PI / self.LUT_SIZE)
        # lists, so that a lookup yields a Python float, not a numpy scalar
        self._sin_lut = (np.round(np.sin(idx) * self._sig_scale)
                         / self._sig_scale).tolist()
        self._cos_lut = (np.round(np.cos(idx) * self._sig_scale)
                         / self._sig_scale).tolist()

    def signal(self, x: float) -> float:
        q = round(x * self._sig_scale) / self._sig_scale
        if q > self._sig_max:
            self.saturations += 1
            return self._sig_max
        if q < self._sig_min:
            self.saturations += 1
            return self._sig_min
        return q

    def quantize_input(self, v: np.ndarray) -> np.ndarray:
        """The signal quantizer over a whole input array, as the ADC
        front end applies it; clipped input samples are not counted as
        saturations."""
        # clipping first keeps out-of-range input from overflowing the
        # scaling; the rails are exact multiples of the LSB
        return np.round(
            np.clip(v, self._sig_min, self._sig_max) * self._sig_scale
        ) / self._sig_scale

    def accumulator(self, x: float) -> float:
        q = round(x * self._acc_scale) / self._acc_scale
        if q > self._acc_max:
            self.saturations += 1
            return self._acc_max
        if q < self._acc_min:
            self.saturations += 1
            return self._acc_min
        return q

    def phase(self, x: float) -> float:
        return round(x * self._ph_scale) / self._ph_scale

    @staticmethod
    def coeff(x: float) -> float:
        """Round to a 16-bit mantissa at the value's own binary scale."""
        if x == 0:
            return 0.0
        exp = math.ceil(math.log2(abs(x) / (2 ** 15 - 0.5)))
        scale = 2.0 ** -exp
        return round(x * scale) / scale

    def trig(self, theta: float) -> tuple[float, float]:
        """Table lookup with linear interpolation, as DSP firmware does;
        a raw 1024-entry staircase would put ~0.3 Hz of phase-detector
        noise on the frequency estimate."""
        n = self.LUT_SIZE
        pos = (theta * (n / TWO_PI)) % n
        i = int(pos)
        frac = pos - i
        j = (i + 1) % n
        s = self._sin_lut[i] + frac * (self._sin_lut[j] - self._sin_lut[i])
        c = self._cos_lut[i] + frac * (self._cos_lut[j] - self._cos_lut[i])
        return self.signal(s), self.signal(c)


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
