"""Discrete-time closed-loop simulation of the full PLL.

Runs the quadrature filter (HGI or the basic SOGI baseline) over a
synthesized scenario and the SRF loop over the filter's output, each as
one pass over the whole run, in float64 or in an emulated 16-bit
fixed-point mode, and extracts transient and steady-state metrics from
the recorded trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import FIXED16, FLOAT64, ArithmeticMode, SampleError
from .hgi import BasicSogiFilter, HgiFilter
from .signal_model import TWO_PI, GridSignalSpec, synthesize
from .srf import SrfPll
from .thd import AnalyticsError, measured_thd, spectral_line

TRACE_CHANNELS = (
    "v_g", "v_alpha", "v_beta", "v_d", "v_q",
    "omega_e", "theta_e", "sin_theta", "cos_theta",
)

#: Samples discarded before steady-state metrics.
STARTUP_EXCLUDE_S = 0.2

#: Rows formatted per write in ``SimTrace.write_csv``.
CSV_BLOCK_ROWS = 1024


class SimulationError(RuntimeError):
    pass


@dataclass
class SimTrace:
    """Uniformly sampled record of every loop quantity."""

    sample_period: float
    v_g: np.ndarray
    v_alpha: np.ndarray
    v_beta: np.ndarray
    v_d: np.ndarray
    v_q: np.ndarray
    omega_e: np.ndarray
    theta_e: np.ndarray
    sin_theta: np.ndarray
    cos_theta: np.ndarray
    saturations: int = 0

    def __len__(self):
        return len(self.v_g)

    @property
    def time(self) -> np.ndarray:
        return np.arange(len(self)) * self.sample_period

    @property
    def f_e(self) -> np.ndarray:
        """Estimated frequency in Hz."""
        return self.omega_e / TWO_PI

    def channel(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def steady_slice(self, exclude: float = STARTUP_EXCLUDE_S) -> slice:
        return slice(int(round(exclude / self.sample_period)), None)

    def write_csv(self, path) -> None:
        """Header, units row, then one ``%.10g`` row per sample: the bytes
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
    settle_time: float
    settled: bool
    peak_freq_excursion: float
    freq_ripple_peak: float
    steady_thd: float | None = None
    # why ``steady_thd`` is None
    steady_thd_reason: str | None = None

    def to_dict(self) -> dict:
        d = {
            "settle_time_s": self.settle_time,
            "settled": self.settled,
            "peak_freq_excursion_hz": self.peak_freq_excursion,
            "freq_ripple_peak_hz": self.freq_ripple_peak,
            "steady_thd_pct": self.steady_thd,
        }
        if self.steady_thd is None:
            d["steady_thd_reason"] = self.steady_thd_reason
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
    saturation instead of wraparound on overflow.
    """
    if topology not in ("hgi", "basic_sogi"):
        raise ValueError("topology must be 'hgi' or 'basic_sogi'")
    ts = design.pi.sample_period
    v_g = synthesize(spec, ts, duration)
    n = len(v_g)

    arith = mode.policy()
    v_g = arith.quantize_input(v_g)
    filt_cls = HgiFilter if topology == "hgi" else BasicSogiFilter
    filt = filt_cls(design.hgi, ts, arith=arith)
    pll = SrfPll(design.pi, design.hgi.omega0, arith=arith)

    out = {c: np.empty(n) for c in TRACE_CHANNELS[1:]}
    # omega_e holds the pu deviation until the loop ends; memoryviews
    # yield and take Python floats, which keep numpy-scalar overhead out
    # of every filter and loop operation
    va_, vb_, vd_, vq_, dev_, th_, sin_, cos_ = map(memoryview, out.values())
    # the filter takes nothing back from the loop, so it runs over the
    # whole input first, and the loop over the samples it filtered
    error = None
    try:
        filt.process(memoryview(v_g), va_, vb_)
    except SampleError as exc:
        error = exc
    m = n if error is None else error.index
    try:
        pll.process(va_[:m], vb_[:m], vd_, vq_, dev_, th_, sin_, cos_)
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
    return SimTrace(
        sample_period=ts,
        v_g=v_g,
        saturations=arith.saturations,
        **out,
    )


def _divergence(i: int, ts: float) -> str:
    return f"numerical divergence at sample {i} (t = {i * ts:.6g} s)"


def transient_metrics(
    trace: SimTrace,
    event_time: float = 0.0,
    freq_band: float = 0.5,
    fundamental_hz: float | None = None,
) -> TransientMetrics:
    """Settling and steady-state numbers extracted from a trace.

    Settling is the last excursion of f_e outside +/-freq_band (Hz)
    around its final value, measured from ``event_time``.  When the
    fundamental frequency is given, the steady tail also yields the
    unit-vector THD and the fundamental-frequency ripple of f_e (the
    spectral line a dc disturbance puts on the frequency estimate);
    without it the ripple falls back to the total peak deviation.  Where
    no THD is measured (no fundamental given, fewer than five whole cycles
    in the tail, no fundamental in it) ``steady_thd`` is None and
    ``steady_thd_reason`` says why.
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
    if len(f_steady) == 0:
        ripple = math.nan
    elif fundamental_hz is not None:
        ripple = spectral_line(f_steady, fundamental_hz, ts)
    else:
        ripple = float(np.max(np.abs(f_steady - np.mean(f_steady))))
    thd, reason = None, "no fundamental frequency given"
    if fundamental_hz is not None:
        tail = trace.sin_theta[steady]
        try:
            thd = measured_thd(tail, fundamental_hz, ts)
        except AnalyticsError as exc:
            # a tail too short for the fit, or one without a fundamental
            reason = (f"{exc} in the {len(tail) * ts:.6g} s steady tail "
                      f"of {fundamental_hz:g} Hz")
    return TransientMetrics(
        settle_time=settle,
        settled=settled,
        peak_freq_excursion=float(np.max(np.abs(f_e - final))),
        freq_ripple_peak=ripple,
        steady_thd=thd,
        steady_thd_reason=None if thd is not None else reason,
    )


def fixed_vs_float_drift(
    spec: GridSignalSpec, design, duration: float,
    mode: ArithmeticMode = FIXED16, topology: str = "hgi",
) -> dict:
    """Run both arithmetic modes and report worst-case deviations."""
    ref = run(spec, design, duration, FLOAT64, topology)
    fxp = run(spec, design, duration, mode, topology)
    steady = ref.steady_slice()
    df = np.abs(ref.f_e[steady] - fxp.f_e[steady])
    du = np.abs(ref.sin_theta[steady] - fxp.sin_theta[steady])
    return {
        "max_freq_error_hz": float(df.max()),
        "max_unit_vector_error": float(du.max()),
        "fraction_bits": mode.fraction_bits,
        "saturations": fxp.saturations,
    }
