import numpy as np
import pytest
from hypothesis import settings

from hgipll import NOMINAL_OMEGA0, PllDesign, build_design
from hgipll.arith import EXACT
from hgipll.thd import _grouped_terms, _loop_factor

# the properties run whole kernels and loops per example, which can
# outlast hypothesis's 200 ms per-example deadline on a busy machine
settings.register_profile("hgipll", deadline=None)
settings.load_profile("hgipll")


class OpCounter:
    """Multiplication/addition tally shared by CountingFloat instances."""

    def __init__(self):
        self.muls = 0
        self.adds = 0

    def reset(self):
        self.muls = 0
        self.adds = 0


class CountingFloat(float):
    """Float that counts the multiplications and additions it takes part in.

    Being a float subclass it passes through math.sin/cos and comparisons
    untouched, so trig lookups stay outside the tally.
    """

    counter: OpCounter = OpCounter()

    def _bin(self, other, op, slot):
        setattr(self.counter, slot, getattr(self.counter, slot) + 1)
        return CountingFloat(op(float(self), float(other)))

    def __mul__(self, other):
        return self._bin(other, lambda a, b: a * b, "muls")

    def __rmul__(self, other):
        return self._bin(other, lambda a, b: b * a, "muls")

    def __add__(self, other):
        return self._bin(other, lambda a, b: a + b, "adds")

    def __radd__(self, other):
        return self._bin(other, lambda a, b: b + a, "adds")

    def __sub__(self, other):
        return self._bin(other, lambda a, b: a - b, "adds")

    def __rsub__(self, other):
        return self._bin(other, lambda a, b: b - a, "adds")

    def __neg__(self):
        return CountingFloat(-float(self))


class CountingArithmetic:
    """Arithmetic hooks that wrap coefficients so every product and sum
    against them is tallied by CountingFloat; trig is the exact sin/cos,
    outside the tally."""

    @staticmethod
    def coeff(x):
        return CountingFloat(x)

    @staticmethod
    def signal(x):
        return x

    accumulator = signal
    phase = signal
    trig = staticmethod(EXACT.trig)


def ripple_terms(k, kp, ki, omega, harmonics=(), amplitude=1.0, phase=0.0):
    """Every ripple term of the THD kernel (``thd._grouped_terms``) as
    (output order, phasor z*F_n, present), one entry per output order:
    the deviation term first, then each harmonic's positive- and
    negative-sequence terms; F_n is formed here from the term's loop and
    the kernel's references, and the phasor is 0 where the term is
    absent."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms, refs = _grouped_terms(k, omega, harmonics, amplitude, phase,
                                     NOMINAL_OMEGA0)
        return [(o, np.where(present, z * _loop_factor(n, refs[name], kp, ki,
                                                        omega), 0j), present)
                for (n, name), orders, z, present in terms for o in orders]


def make_design(k: float, f_bw: float, method: str = "test") -> PllDesign:
    return build_design(k, f_bw, method)


@pytest.fixture(scope="session")
def mtsd_like():
    """Parameters of the deviation-only design, built directly."""
    return make_design(1.56, 55.0, "mtsd")


@pytest.fixture(scope="session")
def hc_like():
    """Parameters of the harmonic-aware design, built directly."""
    return make_design(1.56, 29.5, "hc-mtsd")
