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

A filter or loop pass is written once, as a stage's ``process``, calling
each hook through a local of the hook's name.  ``derived_pass`` derives,
once per process, the pass a policy runs instead by rewriting the syntax
tree: each call of a hook's name becomes the policy's form of it, in line
(under ``EXACT`` ``signal(x)`` is ``x``; under fixed16 the rounding and
rail check above).  The same rewrite can also take out the stores to
output buffers a caller does not read.  The simulator binds these passes
(``bind_pass``); a stage built directly runs its written ``process``.
"""

from __future__ import annotations

import ast
import functools
import linecache
import math
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


#: The hooks, ``(lambda x: form, ...)`` compiled from their forms
_lambdas = functools.cache(lambda forms: compile(
    "(" + "".join(f"lambda x: {f}, " for f in forms) + ")", "<forms>", "eval"))


class ExactArithmetic:
    """No-op policy: exact float64 everywhere, nothing ever saturates;
    its hooks are its ``_FORMS``, compiled."""

    saturations = 0
    _FORMS = {"signal": "x", "accumulator": "x", "phase": "x",
              "trig": "(_sin(x), _cos(x))"}
    _cells = {"_sin": math.sin, "_cos": math.cos}
    signal, accumulator, phase, trig = map(staticmethod, eval(
        _lambdas(tuple(_FORMS.values())), dict(_cells)))

    @staticmethod
    def coeff(x):
        return x

    @staticmethod
    def quantize_input(v: np.ndarray) -> np.ndarray:
        return v


EXACT = ExactArithmetic()


def _located(new, old):
    """``new``, with ``old``'s source position on every node it adds."""
    return ast.fix_missing_locations(ast.copy_location(new, old))


class _Substitute(ast.NodeTransformer):
    """A hook's form with ``arg`` for its ``x``, and ``call``'s source
    position on every node of the form's own."""

    def __init__(self, arg, call):
        self.arg, self.call = arg, call

    def visit(self, node):
        if isinstance(node, ast.Name) and node.id == "x":
            return self.arg
        return self.generic_visit(ast.copy_location(node, self.call))


class _InlineHooks(ast.NodeTransformer):
    """Writes a policy's hooks into a written pass: a call ``name(arg)``
    of a bare ``name`` that is a key of ``forms``, a hook's name, becomes
    the hook's form, an expression of ``x`` (with temporaries ``_q``,
    ``_y``, ...), with ``arg`` for ``x``.  A store ``buf[i] = v`` to a
    buffer in ``dropped`` is dropped, but for evaluating a ``v`` that is
    not a name."""

    def __init__(self, forms, dropped=frozenset()):
        self.forms = forms
        self.dropped = dropped

    def visit_Name(self, node):          # a leaf: nothing to rewrite
        return node

    def visit_Assign(self, node):
        (target,) = node.targets
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.dropped):
            return None if isinstance(node.value, ast.Name) else self.visit(
                _located(ast.Expr(node.value), node))
        return self.generic_visit(node)

    def visit_Call(self, node):
        self.generic_visit(node)
        if not (isinstance(node.func, ast.Name)
                and node.func.id in self.forms):
            return node
        (arg,) = node.args
        form = self.forms[node.func.id]
        if form == "x":                  # the argument itself
            return arg
        return _Substitute(arg, node).visit(ast.parse(form, mode="eval").body)


@functools.cache
def derived_pass(method, policy_type, cells, dropped=frozenset()):
    """``bind``, where ``bind(**policy._cells)`` is ``method``, a stage's
    written ``process``, with each call of a hook's name in line as its
    ``_FORMS`` form (see ``_InlineHooks``): the pass that policy runs,
    with no call per hook.  Stores to the buffers named in ``dropped``
    are taken out, so the caller may pass None for them.  None without
    the source.

    The source is the ``def`` line and every deeper-indented or blank
    line after it (``inspect.getsource`` tokenizes, which costs ms on
    first use), compiled at its own file, line numbers and globals in
    ``def _bind(<cells>)``, which binds the policy's cells as closures.
    """
    code = method.__code__
    lines = linecache.getlines(code.co_filename)
    if not lines:                        # installed without its source
        return None
    first = code.co_firstlineno - 1
    indent = lines[first][:len(lines[first]) - len(lines[first].lstrip())]
    end = first + 1
    while end < len(lines) and (not lines[end].strip()
                                or lines[end].startswith(indent + " ")):
        end += 1
    source = ("\n" * (first - 1) + f"def _bind({', '.join(cells)}):\n"
              + "".join(lines[first:end])
              + f"{indent}return {method.__name__}\n")
    module = _InlineHooks(policy_type._FORMS, dropped).visit(ast.parse(source))
    namespace = {}
    exec(compile(module, code.co_filename, "exec"), method.__globals__,
         namespace)
    return namespace["_bind"]


def bind_pass(stage, policy, dropped=frozenset()) -> None:
    """Give ``stage`` its derived pass for ``policy``, without the stores
    to the buffers named in ``dropped``.  Under any policy but ``EXACT``
    and ``Fixed16Arithmetic``, or without the source, it keeps the
    written ``process``, which calls the hooks and writes every buffer."""
    bind = (policy is EXACT or type(policy) is Fixed16Arithmetic) and (
        derived_pass(type(stage).process, type(policy), tuple(policy._cells),
                     dropped))
    if bind:
        stage.process = bind(**policy._cells).__get__(stage)


_ROUNDER = 1.5 * 2.0 ** 52   # (y + _ROUNDER) - _ROUNDER rounds y, see above

#: Quantizer h as one expression of x, on the cells ``_{h}_scale``, the
#: scaled rails ``_{h}_lo`` and ``_{h}_hi``, and ``_{h}_slow`` (``_word``).
_QUANTIZE = ("(_q / _{h}_scale if _{h}_lo <= "
             "(_q := ((_y := x * _{h}_scale) + {r}) - {r}) <= _{h}_hi "
             "else _{h}_slow(_y))")

#: The LUT trig as one expression of theta x (``_lut``); the second
#: ``% _lut_n`` wraps a position that rounds up to n (theta just below 0).
_TRIG = ("(((_lut_sin[(_i := (_j := int(_p := (x * _lut_per_rad) % _lut_n))"
         " % _lut_n)] + (_f := _p - _j) * _lut_dsin[_i] + {r}) - {r})"
         " / _signal_scale,"
         " ((_lut_cos[_i] + _f * _lut_dcos[_i] + {r}) - {r}) / _signal_scale)")


class Fixed16Arithmetic:
    """Emulated 16-bit fixed-point arithmetic with saturation.

    Signals use the configured Q-format (Q2.14 by default).  The phase
    and PI-integrator accumulators use wider 32-bit words (Q4.28 and
    Q2.30): with 16-bit resolution the per-sample phase correction and
    the integral increments would quantize to zero and the loop would
    limit-cycle.  Coefficients are rounded to a 16-bit mantissa at a
    per-coefficient binary scale, as a DSP implementation would store
    them.  Saturations are counted.

    ``signal``, ``accumulator``, ``phase`` and ``trig`` are each one
    expression on the policy's ``_cells``, its ``_FORMS``: a derived pass
    writes it in line, and the hook is the same expression compiled.
    """

    PHASE_FRACTION_BITS = 28
    ACCUMULATOR_BITS = 32
    LUT_SIZE = 1024
    _FORMS = {**{h: _QUANTIZE.format(h=h, r=_ROUNDER)
                 for h in ("signal", "accumulator", "phase")},
              "trig": _TRIG.format(r=_ROUNDER)}

    def __init__(self, fraction_bits: int = 14):
        self.saturations = 0
        self._sig_scale = float(1 << fraction_bits)
        self._sig_max = (2 ** 15 - 1) / self._sig_scale
        self._sig_min = -(2 ** 15) / self._sig_scale
        self._cells = {
            **self._word("signal", self._sig_scale, 16),
            **self._word("accumulator", float(1 << (self.ACCUMULATOR_BITS - 2)),
                         self.ACCUMULATOR_BITS),
            # the phase word never saturates; its 52 bits end where the
            # rounding stops being exact
            **self._word("phase", float(1 << self.PHASE_FRACTION_BITS), 52,
                         saturate=False),
            **self._lut()}
        self.signal, self.accumulator, self.phase, self.trig = eval(
            _lambdas(tuple(self._FORMS.values())), dict(self._cells))

    def _word(self, hook: str, scale: float, bits: int, saturate: bool = True):
        """The cells of quantizer ``hook`` (see the module docstring): its
        ``bits``-bit word at ``scale``, and the slow path past the rails,
        which saturates and counts unless ``saturate`` is False."""
        lo, hi = -float(2 ** (bits - 1)), float(2 ** (bits - 1) - 1)

        def slow(y: float) -> float:
            r = round(y)
            if not saturate:
                return r / scale
            self.saturations += 1
            return (hi if r > hi else lo) / scale

        return {f"_{hook}_scale": scale, f"_{hook}_lo": lo,
                f"_{hook}_hi": hi, f"_{hook}_slow": slow}

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

    def _lut(self):
        """The cells of the trig: table lookup with linear interpolation,
        as DSP firmware does; a raw 1024-entry staircase would put ~0.3 Hz
        of phase-detector noise on the frequency estimate.  The slope to
        the next entry is tabulated with each entry.

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
        return {"_lut_sin": sin.tolist(), "_lut_cos": cos.tolist(),
                "_lut_dsin": (np.roll(sin, -1) - sin).tolist(),
                "_lut_dcos": (np.roll(cos, -1) - cos).tolist(),
                "_lut_n": n, "_lut_per_rad": n / TWO_PI}


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
