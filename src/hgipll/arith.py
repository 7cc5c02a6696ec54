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

A filter or loop pass is written once, calling its policy's hooks.
Under ``EXACT`` every hook but ``trig`` returns its argument, so a stage
built on ``EXACT`` runs ``float64_pass`` of its written ``process``
instead: the same body with the hooks taken out, derived once per
process from its source by rewriting the syntax tree.  The same rewrite
can also take out the stores to output buffers a caller does not read.
Every other policy, fixed16 among them, runs the written body.
"""

from __future__ import annotations

import ast
import functools
import linecache
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

#: The attributes a stage keeps its policy's per-sample hooks under.
_HOOKS = ("_signal", "_accumulator", "_phase", "_trig")


def _located(new, old):
    """``new``, with ``old``'s source position on every node it adds."""
    return ast.fix_missing_locations(ast.copy_location(new, old))


class _DropHooks(ast.NodeTransformer):
    """Takes the policy hooks out of a written pass: an assignment's
    ``name = self._<hook>`` pairs are dropped, ``name(x)`` becomes ``x``
    and, for the trig hook, ``(_sin(x), _cos(x))``.  A store
    ``buf[i] = x`` to a buffer named in ``dropped`` is dropped too."""

    def __init__(self, dropped=frozenset()):
        self.hooks = {}                  # local name -> hook attribute
        self.dropped = dropped

    def visit_Assign(self, node):
        (target,) = node.targets
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.dropped):
            return None
        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
            pairs = list(zip(target.elts, node.value.elts))
        else:
            pairs = [(target, node.value)]
        keep = []
        for name, value in pairs:
            if (isinstance(name, ast.Name)
                    and isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self" and value.attr in _HOOKS):
                self.hooks[name.id] = value.attr
            else:
                keep.append((name, value))
        if len(keep) == len(pairs):
            return self.generic_visit(node)
        if not keep:
            return None
        names, values = zip(*keep)
        return _located(ast.Assign([ast.Tuple(list(names), ast.Store())],
                                   ast.Tuple(list(values), ast.Load())), node)

    def visit_Call(self, node):
        self.generic_visit(node)
        hook = isinstance(node.func, ast.Name) and self.hooks.get(node.func.id)
        if not hook:
            return node
        (arg,) = node.args
        if hook != "_trig":
            return arg
        return _located(
            ast.Tuple([ast.Call(ast.Name(f, ast.Load()), [arg], [])
                       for f in ("_sin", "_cos")], ast.Load()), node)


@functools.cache
def float64_pass(method, dropped=frozenset()):
    """``method``, a stage's written ``process``, with its policy hooks
    taken out (see ``_DropHooks``): the pass ``EXACT`` would run, with
    no call per hook.  Stores to the buffer parameters named in
    ``dropped`` are taken out as well, so the caller may pass None for
    those buffers.

    The source is the ``def`` line and every deeper-indented or blank
    line after it (``inspect.getsource`` tokenizes, which costs
    milliseconds on first use).  It is compiled, at its own file, line
    numbers and globals, inside ``def _bind(_sin, _cos)``, which binds
    ``math.sin`` and ``math.cos`` as closure cells.
    """
    code = method.__code__
    lines = linecache.getlines(code.co_filename)
    if not lines:                        # installed without its source
        return method
    first = code.co_firstlineno - 1
    indent = lines[first][:len(lines[first]) - len(lines[first].lstrip())]
    end = first + 1
    while end < len(lines) and (not lines[end].strip()
                                or lines[end].startswith(indent + " ")):
        end += 1
    source = ("\n" * (first - 1) + "def _bind(_sin, _cos):\n"
              + "".join(lines[first:end])
              + f"{indent}return {method.__name__}\n")
    module = _DropHooks(dropped).visit(ast.parse(source))
    namespace = {}
    exec(compile(module, code.co_filename, "exec"), method.__globals__,
         namespace)
    derived = namespace["_bind"](math.sin, math.cos)
    derived.__qualname__ = method.__qualname__
    return derived


def bind_pass(stage, policy, dropped=frozenset()) -> bool:
    """Give ``stage`` its float64 pass, without the stores to the buffers
    named in ``dropped``, when ``policy`` is ``EXACT``, and return True;
    on any other policy it keeps the written ``process``, which writes
    every buffer, and False is returned."""
    if policy is not EXACT:
        return False
    stage.process = float64_pass(type(stage).process, dropped).__get__(stage)
    return True

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
