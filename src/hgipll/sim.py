"""Discrete-time closed-loop simulation of the full PLL.

Runs the quadrature filter (HGI or the basic SOGI baseline) over a
synthesized scenario and the SRF loop over the filter's output, each as
one pass over the whole run, in float64 or in an emulated 16-bit
fixed-point mode, and extracts transient and steady-state metrics from
the recorded trace.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .arith import FIXED16, FLOAT64, ArithmeticMode, SampleError, bind_pass
from .hgi import BasicSogiFilter, HgiFilter
from .signal_model import TWO_PI, GridSignalSpec, synthesize
from .srf import SrfPll
from .thd import AnalyticsError, line_fit

TRACE_CHANNELS = (
    "v_g", "v_alpha", "v_beta", "v_d", "v_q",
    "omega_e", "theta_e", "sin_theta", "cos_theta",
)

#: The channels the loop pass writes, each with the name of its output
#: buffer in ``SrfPll.process`` (the parameters after v_alpha and v_beta).
_LOOP_BUFFERS = dict(zip(
    TRACE_CHANNELS[3:], list(inspect.signature(SrfPll.process).parameters)[3:]))

#: Samples discarded before steady-state metrics.
STARTUP_EXCLUDE_S = 0.2

#: Rows formatted per write in ``SimTrace.write_csv``.
CSV_BLOCK_ROWS = 1024


class SimulationError(RuntimeError):
    pass


@dataclass
class SimTrace:
    """Uniformly sampled record of the loop quantities; a channel the run
    did not record is None (``omega_e`` is always recorded)."""

    sample_period: float
    v_g: np.ndarray | None
    v_alpha: np.ndarray | None
    v_beta: np.ndarray | None
    v_d: np.ndarray | None
    v_q: np.ndarray | None
    omega_e: np.ndarray
    theta_e: np.ndarray | None
    sin_theta: np.ndarray | None
    cos_theta: np.ndarray | None
    saturations: int = 0

    def __len__(self):
        return len(self.omega_e)

    @property
    def time(self) -> np.ndarray:
        return np.arange(len(self)) * self.sample_period

    @property
    def f_e(self) -> np.ndarray:
        """Estimated frequency in Hz."""
        return self.omega_e / TWO_PI

    def channel(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def steady_slice(self) -> slice:
        return slice(int(round(STARTUP_EXCLUDE_S / self.sample_period)), None)

    def write_csv(self, path) -> None:
        """Header, units row, then one ``%.10g`` row per sample of every
        channel, all of which must be recorded: the bytes
        ``np.savetxt(..., delimiter=",", fmt="%.10g")`` writes."""
        columns = [self.time] + [self.channel(c) for c in TRACE_CHANNELS]
        row = ",".join(["%.10g"] * len(columns)) + "\n"
        with open(path, "w") as fh:
            fh.write("time_s," + ",".join(TRACE_CHANNELS) + "\n"
                     "s,pu,pu,pu,pu,pu,rad_per_s,rad,pu,pu\n")
            # one % per block of rows keeps the formatting in C
            for start in range(0, len(self), CSV_BLOCK_ROWS):
                block = np.column_stack(
                    [col[start:start + CSV_BLOCK_ROWS] for col in columns])
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


@dataclass
class TransientMetrics:
    """What ``transient_metrics`` measures; each ``*_reason`` says why
    the value it is named after is None."""

    settle_time: float
    settled: bool
    peak_freq_excursion: float
    freq_ripple_peak: float | None
    steady_thd: float | None = None
    steady_thd_reason: str | None = None
    freq_ripple_peak_reason: str | None = None
    freq_line: float | None = None
    freq_line_reason: str | None = None

    def to_dict(self) -> dict:
        d = {
            "settle_time_s": self.settle_time,
            "settled": self.settled,
            "peak_freq_excursion_hz": self.peak_freq_excursion,
        }
        # a reason key is written only beside a null value
        for name, unit in (("freq_line", "hz"), ("freq_ripple_peak", "hz"),
                           ("steady_thd", "pct")):
            d[f"{name}_{unit}"] = value = getattr(self, name)
            if value is None:
                d[f"{name}_reason"] = getattr(self, f"{name}_reason")
        return d


def run(
    spec: GridSignalSpec,
    design,
    duration: float,
    mode: ArithmeticMode = FLOAT64,
    topology: str = "hgi",
) -> SimTrace:
    """Simulate the closed loop over a scenario.

    ``design`` is a PllDesign (or anything with ``.hgi``, ``.pi``).  The
    PLL starts from zeroed states.  In fixed16 mode all filter and loop
    states, coefficients and arithmetic results are quantized, with
    saturation instead of wraparound on overflow.  This is the one-design
    case of ``run_designs``.
    """
    (trace,) = run_designs(spec, [design], duration, mode, topology)
    return trace


def run_designs(spec: GridSignalSpec, designs, duration: float,
                mode: ArithmeticMode = FLOAT64, topology: str = "hgi",
                channels=TRACE_CHANNELS):
    """Simulate one scenario for each design in turn, yielding each
    design's ``SimTrace`` as ``run`` would return it, with the channels
    not in ``channels`` None.

    ``omega_e`` is always recorded: it is what the divergence check
    reads.  Float64 and fixed16 bind the derived passes, the loop's
    without the stores to the channels not requested (``arith.bind_pass``);
    where none is derived the written pass fills them all the same.

    The filter takes nothing back from the loop, so designs with equal
    HGI parameters and sample period share one synthesized, quantized
    input and one filter pass, and their traces share its ``v_g``,
    ``v_alpha`` and ``v_beta`` arrays.  Each design gets its own loop pass
    on its own policy; its saturations are the shared filter pass's count
    plus its loop's.  A pass is held only until the last design that
    shares it is yielded.  A design whose run fails raises when its trace
    is due.
    """
    if topology not in ("hgi", "basic_sogi"):
        raise ValueError("topology must be 'hgi' or 'basic_sogi'")
    unknown = set(channels) - set(TRACE_CHANNELS)
    if unknown:
        raise ValueError(f"unknown trace channels: {sorted(unknown)}")
    unrequested = set(TRACE_CHANNELS) - set(channels) - {"omega_e"}
    filt_cls = HgiFilter if topology == "hgi" else BasicSogiFilter
    designs = list(designs)
    keys = [(d.hgi, d.pi.sample_period) for d in designs]
    last = {key: i for i, key in enumerate(keys)}
    passes = {}
    for i, (design, key) in enumerate(zip(designs, keys)):
        if key not in passes:
            passes[key] = _filter_pass(spec, *key, duration, mode, filt_cls)
        shared = passes[key] if last[key] > i else passes.pop(key)
        yield _loop_pass(design, mode, unrequested, *shared)


def _filter_pass(spec, hgi, ts, duration, mode, filt_cls):
    """The quantized input and the filter's (v_alpha, v_beta) over it, the
    ``SampleError`` that cut the pass short (or None) and the pass's
    saturations."""
    v_g = synthesize(spec, ts, duration)
    arith = mode.policy()
    v_g = arith.quantize_input(v_g)
    filt = filt_cls(hgi, ts, arith=arith)
    bind_pass(filt, arith)
    v_alpha, v_beta = np.empty(len(v_g)), np.empty(len(v_g))
    # memoryviews yield and take Python floats, which keep numpy-scalar
    # overhead out of every filter and loop operation
    error = None
    try:
        filt.process(memoryview(v_g), memoryview(v_alpha), memoryview(v_beta))
    except SampleError as exc:
        error = exc
    return v_g, v_alpha, v_beta, error, arith.saturations


def _loop_pass(design, mode, unrequested, v_g, v_alpha, v_beta, error,
               saturations):
    """One design's loop over the samples its filter pass got through,
    with the ``unrequested`` channels None."""
    ts = design.pi.sample_period
    n = len(v_g)
    arith = mode.policy()
    pll = SrfPll(design.pi, design.hgi.omega0, arith=arith)
    bind_pass(pll, arith, frozenset(
        _LOOP_BUFFERS[c] for c in unrequested if c in _LOOP_BUFFERS))
    out = {c: np.empty(n) for c in _LOOP_BUFFERS}
    # omega_e holds the pu deviation until the loop ends
    m = n if error is None else error.index
    try:
        pll.process(memoryview(v_alpha)[:m], memoryview(v_beta)[:m],
                    *map(memoryview, out.values()))
    except SampleError as exc:
        error = exc                      # at a sample before the filter's
    if error is not None:
        # trig of a non-finite phase, or float overflow in a quantizer
        raise SimulationError(
            _divergence(error.index, ts)) from error.__cause__
    omega_e = out["omega_e"]
    # float overflow marks divergence below; don't warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        omega_e += 1.0
        omega_e *= pll.omega0
    finite = np.isfinite(omega_e)
    if not finite.all():
        raise SimulationError(_divergence(int(np.argmin(finite)), ts))
    out.update(v_g=v_g, v_alpha=v_alpha, v_beta=v_beta)
    return SimTrace(
        sample_period=ts, saturations=saturations + arith.saturations,
        **{c: None if c in unrequested else out[c] for c in TRACE_CHANNELS},
    )


def _divergence(i: int, ts: float) -> str:
    return f"numerical divergence at sample {i} (t = {i * ts:.6g} s)"


def _read_tails(tails, fundamental_hz: float, ts: float, reads) -> list:
    """Each of ``reads`` applied to the one ``line_fit`` of the stacked
    equal-length steady ``tails``: its value and None, or None and why
    the steady tail has no such value."""
    def on_tail(read):
        try:
            return read(), None
        except AnalyticsError as exc:
            return None, (f"{exc} in the {len(tails[0]) * ts:.6g} s steady "
                          f"tail of {fundamental_hz:g} Hz")

    fit, why = on_tail(lambda: line_fit(np.stack(tails), fundamental_hz, ts))
    if fit is None:
        return [(None, why)] * len(reads)
    return [on_tail(lambda: read(fit)) for read in reads]


def tail_thds(tails, fundamental_hz: float, sample_period: float
              ) -> list[tuple[float | None, str | None]]:
    """The unit-vector THD (percent) and None, or None and why (fewer
    than five whole cycles, no fundamental), for each of ``tails``,
    equal-length steady tails of ``sin_theta`` at one sample period, from
    one stacked ``line_fit``: each THD is bit for bit the one the tail's
    own fit gives."""
    return _read_tails(tails, fundamental_hz, sample_period,
                       [lambda fit, row=row: fit.thd(row)
                        for row in range(len(tails))])


def transient_metrics(
    trace: SimTrace,
    event_time: float = 0.0,
    freq_band: float = 0.5,
    fundamental_hz: float | None = None,
) -> TransientMetrics:
    """Settling and steady-state numbers extracted from a trace.

    Settling is the last excursion of f_e outside +/-freq_band (Hz)
    around its final value, measured from ``event_time``.  The ripple
    peak is the largest deviation of f_e from its mean over the steady
    tail; where the tail holds no sample ``freq_ripple_peak`` is None and
    ``freq_ripple_peak_reason`` says why.  When the fundamental frequency
    is given, the tails of sin_theta and f_e are fitted as one two-row
    ``line_fit`` stack: the first yields the unit-vector THD, the second
    the line of f_e at the fundamental (the ripple a dc disturbance puts
    on the frequency estimate).  Where no THD is measured (no
    fundamental given, fewer than five whole cycles in the tail, no
    fundamental in it) ``steady_thd`` is None and ``steady_thd_reason``
    says why; where no line is (no fundamental given, less than one
    cycle in the tail) ``freq_line`` is None and ``freq_line_reason``
    says why.  A trace that holds less than one cycle of the fundamental
    as a whole is refused.
    """
    ts = trace.sample_period
    i0 = int(round(event_time / ts))
    if len(trace) - i0 < int(0.1 / ts):
        raise AnalyticsError("trace must extend at least 0.1 s past the event")
    f_e = trace.f_e[i0:]
    final = f_e[-1]
    err = np.abs(f_e - final)
    outside = err > freq_band
    if outside[-1]:
        settle, settled = (len(trace) - i0) * ts, False
    elif not outside.any():
        settle, settled = 0.0, True
    else:
        settle = (np.nonzero(outside)[0][-1] + 1) * ts
        settled = True
    steady = trace.steady_slice() if event_time == 0 else slice(
        i0 + int(round((settle + 0.05) / ts)), None
    )
    f_steady = trace.f_e[steady]
    ripple, ripple_reason = None, "no sample in the steady tail"
    if len(f_steady):
        ripple = float(np.max(np.abs(f_steady - np.mean(f_steady))))
        ripple_reason = None
    if fundamental_hz is None:
        thd = line = None
        reason = line_reason = "no fundamental frequency given"
    else:
        if len(trace) * ts * fundamental_hz < 1:
            raise AnalyticsError("trace shorter than one cycle")
        (thd, reason), (line, line_reason) = _read_tails(
            [trace.sin_theta[steady], f_steady], fundamental_hz, ts,
            [lambda fit: fit.thd(0), lambda fit: fit.amplitude(1, row=1)])
    return TransientMetrics(
        settle_time=settle,
        settled=settled,
        peak_freq_excursion=float(np.max(np.abs(f_e - final))),
        freq_ripple_peak=ripple,
        steady_thd=thd,
        steady_thd_reason=reason,
        freq_ripple_peak_reason=ripple_reason,
        freq_line=line,
        freq_line_reason=line_reason,
    )


def fixed_vs_float_drift(
    spec: GridSignalSpec, design, duration: float,
    mode: ArithmeticMode = FIXED16) -> dict:
    """Run both arithmetic modes and report worst-case deviations."""
    ref = run(spec, design, duration, FLOAT64)
    fxp = run(spec, design, duration, mode)
    steady = ref.steady_slice()
    df = np.abs(ref.f_e[steady] - fxp.f_e[steady])
    du = np.abs(ref.sin_theta[steady] - fxp.sin_theta[steady])
    return {
        "max_freq_error_hz": float(df.max()),
        "max_unit_vector_error": float(du.max()),
        "fraction_bits": mode.fraction_bits,
        "saturations": fxp.saturations,
    }
