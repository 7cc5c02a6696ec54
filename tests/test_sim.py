import dataclasses
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from hgipll import (
    ArithmeticMode,
    BasicSogiFilter,
    FIXED16,
    FLOAT64,
    Fixed16Arithmetic,
    GridSignalSpec,
    HarmonicComponent,
    HgiFilter,
    TimedEvent,
    SrfPll,
    fixed_vs_float_drift,
    harmonic_profile,
    load_scenario,
    pi_from_bandwidth,
    run,
    spectral_line,
    transient_metrics,
)
from hgipll.arith import ExactArithmetic, SampleError
from hgipll.signal_model import EVENT_KINDS
from hgipll.sim import TRACE_CHANNELS, SimTrace, SimulationError

TS = 50e-6
SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "hgipll" / "scenarios"


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_run_matches_oracle(spec, design, duration, mode, topology="hgi"):
    """Every channel bit for bit and the saturation count; returns it."""
    want = oracle.run(spec, design, duration, mode, topology)
    got = run(spec, design, duration, mode, topology)
    for c in TRACE_CHANNELS:
        assert _same_bits(got.channel(c), want.channel(c)), c
    assert got.saturations == want.saturations
    return got.saturations


def test_clean_lock_tracks_nominal(mtsd_like):
    trace = run(GridSignalSpec(), mtsd_like, 1.0)
    tail = trace.f_e[trace.steady_slice()]
    assert np.mean(tail) == pytest.approx(50.0, abs=0.01)


def test_tracks_deviated_frequency(mtsd_like):
    trace = run(GridSignalSpec(fundamental_frequency=54.0), mtsd_like, 1.0)
    tail = trace.f_e[trace.steady_slice()]
    assert np.mean(tail) == pytest.approx(54.0, abs=0.05)


def test_trace_channels_and_time_base(mtsd_like):
    trace = run(GridSignalSpec(), mtsd_like, 0.2)
    assert len(trace) == 4000
    assert trace.time[1] == pytest.approx(TS)
    for name in TRACE_CHANNELS:
        assert len(trace.channel(name)) == len(trace)
    assert np.all((trace.theta_e >= 0) & (trace.theta_e < 2 * math.pi))


def test_invalid_topology(mtsd_like):
    with pytest.raises(ValueError):
        run(GridSignalSpec(), mtsd_like, 0.2, topology="dq_pll")


def test_dc_offset_contrast(mtsd_like):
    spec = GridSignalSpec(dc_offset=0.1)
    lines = {}
    for topology in ("hgi", "basic_sogi"):
        trace = run(spec, mtsd_like, 1.0, topology=topology)
        tail = trace.f_e[trace.steady_slice()]
        lines[topology] = spectral_line(tail, 50.0, TS)
    assert lines["hgi"] < 0.05
    assert lines["basic_sogi"] > 0.5
    assert lines["basic_sogi"] >= 10 * lines["hgi"]


def test_phase_jump_settles_within_bound(mtsd_like, hc_like):
    spec = GridSignalSpec(events=(TimedEvent(0.5, "phase_jump", math.pi / 2),))
    for design in (mtsd_like, hc_like):
        trace = run(spec, design, 1.0)
        m = transient_metrics(trace, event_time=0.5)
        assert m.settled
        assert m.settle_time <= design.t_sd


def test_settling_monotone_in_bandwidth():
    from conftest import make_design
    spec = GridSignalSpec(events=(TimedEvent(0.5, "phase_jump", math.pi / 2),))
    settles = []
    for f_bw in (20.0, 29.0, 55.0):
        trace = run(spec, make_design(1.56, f_bw), 1.0)
        settles.append(transient_metrics(trace, event_time=0.5).settle_time)
    assert settles[0] >= settles[1] >= settles[2]


def test_metrics_include_thd_and_ripple(mtsd_like):
    spec = GridSignalSpec(fundamental_frequency=46.0,
                          harmonics=tuple(harmonic_profile(0.05)))
    trace = run(spec, mtsd_like, 1.0)
    m = transient_metrics(trace, fundamental_hz=46.0)
    assert 1.0 < m.steady_thd < 2.5
    assert m.freq_ripple_peak < 0.05


def test_metrics_require_post_event_data(mtsd_like):
    trace = run(GridSignalSpec(), mtsd_like, 0.3)
    with pytest.raises(ValueError):
        transient_metrics(trace, event_time=0.25)


def test_trace_csv_export(tmp_path, mtsd_like):
    trace = run(GridSignalSpec(), mtsd_like, 0.3)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("time_s,v_g,")
    assert lines[1].startswith("s,pu,")  # units row
    assert len(lines) == len(trace) + 2


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025])
def test_trace_csv_matches_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    shape = (len(TRACE_CHANNELS), rows)
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = [-0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 0.0]
    flat = data.reshape(-1)
    flat[:len(special)] = special  # first rows (or channels of row 0)
    flat[-len(special):] = special  # last rows of the last block
    trace = SimTrace(sample_period=TS, **dict(zip(TRACE_CHANNELS, data)))
    trace.write_csv(tmp_path / "fast.csv")
    oracle.write_trace_csv(trace, tmp_path / "savetxt.csv")
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "savetxt.csv").read_bytes())


@pytest.mark.parametrize("topology", ["hgi", "basic_sogi"])
@pytest.mark.parametrize("mode", [FLOAT64, FIXED16], ids=["float64", "fixed16"])
@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_run_matches_oracle_loop(hc_like, name, mode, topology):
    spec = load_scenario(SCENARIOS / f"{name}.json")
    duration = 0.6 if spec.events else 0.3  # past the 0.5 s event
    _assert_run_matches_oracle(spec, hc_like, duration, mode, topology)


def test_run_matches_oracle_loop_with_saturations(hc_like):
    # the clipped input drives the fixed16 states into their rails
    spec = GridSignalSpec(fundamental_amplitude=1e308)
    assert _assert_run_matches_oracle(spec, hc_like, 0.1, FIXED16) > 0


def test_run_matches_oracle_loop_at_huge_gain(hc_like):
    # k = 1e300 drives the filter states into their rails on most samples
    design = dataclasses.replace(hc_like, k=1e300)
    assert _assert_run_matches_oracle(
        GridSignalSpec(), design, 0.01, FIXED16) == 596


#: a drawn event value for each kind: radians, Hz, pu amplitude, pu dc
EVENT_VALUES = {
    "phase_jump": st.floats(-math.pi, math.pi),
    "frequency_step": st.floats(40.0, 60.0),
    "amplitude_step": st.floats(0.0, 1.5),
    "dc_step": st.floats(-0.5, 0.5),
}

MODES = st.one_of(
    st.just(FLOAT64),
    st.integers(8, 15).map(lambda b: ArithmeticMode("fixed16", b)))


@st.composite
def _scenarios(draw, duration):
    """Steady or event scenarios at 40-60 Hz with up to 4 harmonics and dc."""
    harmonics = draw(st.lists(st.builds(
        HarmonicComponent, st.integers(2, 13), st.floats(0.0, 0.2),
        st.floats(-math.pi, math.pi)), max_size=4))
    events = []
    for kind in draw(st.lists(st.sampled_from(EVENT_KINDS), max_size=2)):
        events.append(TimedEvent(draw(st.floats(0.0, duration)), kind,
                                 draw(EVENT_VALUES[kind])))
    return GridSignalSpec(
        fundamental_amplitude=draw(st.floats(0.0, 1.5)),
        fundamental_frequency=draw(st.floats(40.0, 60.0)),
        fundamental_phase=draw(st.floats(-math.pi, math.pi)),
        harmonics=tuple(harmonics),
        dc_offset=draw(st.floats(-0.5, 0.5)),
        events=tuple(events),
    )


@settings(max_examples=30)
@given(data=st.data())
def test_run_matches_oracle_on_any_scenario(hc_like, data):
    duration = data.draw(st.floats(TS, 0.1))
    spec = data.draw(_scenarios(duration))
    mode = data.draw(MODES)
    topology = data.draw(st.sampled_from(["hgi", "basic_sogi"]))
    _assert_run_matches_oracle(spec, hc_like, duration, mode, topology)


def _stage(kind, hc_like, mode):
    """A fresh filter or loop on a fresh policy of ``mode``, and that
    policy."""
    arith = mode.policy()
    if kind == "srf":
        return SrfPll(hc_like.pi, arith=arith), arith
    cls = HgiFilter if kind == "hgi" else BasicSogiFilter
    return cls(hc_like.hgi, TS, arith=arith), arith


def _stage_state(stage):
    names = ("theta", "accumulator", "deviation", "v_d", "v_q", "_x1", "_x2")
    return [getattr(stage, a) for a in names if hasattr(stage, a)]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=60)
@given(kind=st.sampled_from(["hgi", "basic_sogi", "srf"]), mode=MODES,
       data=st.data())
def test_pass_is_split_and_stepped_alike(hc_like, kind, mode, data):
    # a few values past the ±2 pu signal rails make fixed16 saturate
    inputs = st.lists(st.floats(-2.5, 2.5), max_size=120)
    if kind == "srf":
        v_alpha = data.draw(inputs)
        v_beta = data.draw(st.lists(st.floats(-2.5, 2.5),
                                    min_size=len(v_alpha),
                                    max_size=len(v_alpha)))
        ins = [v_alpha, v_beta]
    else:
        ins = [data.draw(inputs)]
    n = len(ins[0])
    cut = data.draw(st.integers(0, n))

    n_out = 6 if kind == "srf" else 2    # the buffers the pass writes
    whole, whole_arith = _stage(kind, hc_like, mode)
    outs = [np.empty(n) for _ in range(n_out)]
    whole.process(*ins, *map(memoryview, outs))

    split, split_arith = _stage(kind, hc_like, mode)
    heads = [[0.0] * cut for _ in range(n_out)]
    tails = [[0.0] * (n - cut) for _ in range(n_out)]
    split.process(*[x[:cut] for x in ins], *heads)
    split.process(*[x[cut:] for x in ins], *tails)

    stepped, stepped_arith = _stage(kind, hc_like, mode)
    steps = [[] for _ in range(n_out)]
    for sample in zip(*ins):
        got = stepped.step(*sample)
        if kind == "srf":
            got = (stepped.v_d, stepped.v_q, stepped.deviation,
                   stepped.theta, *got)
        for buf, value in zip(steps, got):
            buf.append(value)

    for i, out in enumerate(outs):
        assert _bits(heads[i] + tails[i]) == out.tobytes(), i
        assert _bits(steps[i]) == out.tobytes(), i
    for other, arith in ((split, split_arith), (stepped, stepped_arith)):
        assert _bits(_stage_state(other)) == _bits(_stage_state(whole))
        assert arith.saturations == whole_arith.saturations


def test_rerun_bit_identical(mtsd_like):
    spec = GridSignalSpec(fundamental_frequency=46.0,
                          harmonics=tuple(harmonic_profile(0.05)))
    a = run(spec, mtsd_like, 0.5)
    b = run(spec, mtsd_like, 0.5)
    assert np.array_equal(a.omega_e, b.omega_e)
    assert np.array_equal(a.sin_theta, b.sin_theta)


def test_divergence_reported(mtsd_like):
    # an absurd input amplitude overflows the loop states
    spec = GridSignalSpec(fundamental_amplitude=1e308)
    with pytest.raises(SimulationError, match="divergence"):
        run(spec, mtsd_like, 0.2)


def test_divergence_names_the_first_non_finite_sample(mtsd_like):
    spec = GridSignalSpec(fundamental_amplitude=1e308)
    # samples 0 and 1 are still finite
    assert np.isfinite(run(spec, mtsd_like, 2 * TS).omega_e).all()
    with pytest.raises(SimulationError,
                       match=r"^numerical divergence at sample 2 "
                             r"\(t = 0\.0001 s\)$"):
        run(spec, mtsd_like, 0.2)


def test_divergence_names_the_sample_whose_step_raised(mtsd_like,
                                                        monkeypatch):
    class RaisingTrig(ExactArithmetic):
        """Exact arithmetic whose 8th trig call meets a non-finite phase."""

        calls = 0

        def trig(self, theta):
            self.calls += 1
            if self.calls == 8:
                return math.sin(math.inf), 0.0
            return math.sin(theta), math.cos(theta)

    monkeypatch.setattr(ArithmeticMode, "policy", lambda self: RaisingTrig())
    with pytest.raises(SimulationError,
                       match=r"^numerical divergence at sample 7 "
                             r"\(t = 0\.00035 s\)$") as info:
        run(GridSignalSpec(), mtsd_like, 0.1)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("trig_at, inf_at, sample, cause", [
    (3, 9, 3, ValueError),       # the loop raises first
    (9, 3, 3, OverflowError),    # the filter raises first
])
def test_divergence_names_the_first_raising_sample_of_either_stage(
        mtsd_like, monkeypatch, trig_at, inf_at, sample, cause):
    class RaisingStages(ExactArithmetic):
        """Exact arithmetic whose trig meets a non-finite phase at sample
        ``trig_at``, and whose signal quantizer rounds a non-finite value
        as fixed16's does, on an input that is inf at sample ``inf_at``."""

        calls = 0

        def trig(self, theta):
            self.calls += 1
            if self.calls == trig_at + 1:
                return math.sin(math.inf), 0.0
            return math.sin(theta), math.cos(theta)

        @staticmethod
        def signal(x):
            return x if math.isfinite(x) else float(round(x))

        @staticmethod
        def quantize_input(v):
            v = v.copy()
            v[inf_at] = math.inf
            return v

    monkeypatch.setattr(ArithmeticMode, "policy",
                        lambda self: RaisingStages())
    with pytest.raises(SimulationError,
                       match=rf"^numerical divergence at sample {sample} "
                             rf"\(t = {sample * TS:.6g} s\)$") as info:
        run(GridSignalSpec(), mtsd_like, 0.1)
    assert isinstance(info.value.__cause__, cause)


def test_failed_pass_leaves_the_state_unchanged(hc_like):
    arith = ExactArithmetic()
    arith.signal = lambda x: x if math.isfinite(x) else float(round(x))
    filt = HgiFilter(hc_like.hgi, TS, arith=arith)
    filt.step(0.5)
    state = _stage_state(filt)
    with pytest.raises(SampleError) as info:
        filt.process([0.1, 0.2, math.inf, 0.3], [0.0] * 4, [0.0] * 4)
    assert info.value.index == 2
    assert isinstance(info.value.__cause__, OverflowError)
    assert _stage_state(filt) == state


def test_arithmetic_mode_validation():
    with pytest.raises(ValueError):
        ArithmeticMode("float32")
    with pytest.raises(ValueError):
        ArithmeticMode("fixed16", 20)


def test_fixed16_quantization_and_saturation():
    arith = Fixed16Arithmetic()
    lsb = 2.0**-14
    assert arith.signal(3 * lsb + 0.4 * lsb) == pytest.approx(3 * lsb)
    assert arith.signal(5.0) == pytest.approx(2.0, abs=1e-3)
    assert arith.signal(-5.0) == pytest.approx(-2.0, abs=1e-3)
    assert arith.saturations == 2


#: scale and word width of each fixed16 quantizer kind; the phase word
#: does not saturate, and its 52 bits mark where the add-and-subtract
#: rounding stops being exact (|x * scale| >= 2**51)
QUANTIZER_KINDS = {
    "signal": (lambda fraction_bits: 2.0 ** fraction_bits, 16),
    "accumulator": (lambda fraction_bits: 2.0 ** 30, 32),
    "phase": (lambda fraction_bits: 2.0 ** 28, 52),
}


def _quantizer_inputs(scale, bits):
    """x around the word of ``bits`` bits at ``scale``: zeros, half-LSB
    ties, the rails to within a few LSB, far past them, |x * scale| >=
    2**51, inf, NaN and any float."""
    rails = st.sampled_from([-(2.0 ** (bits - 1)), 2.0 ** (bits - 1) - 1])
    near = st.one_of(st.floats(-4.0, 4.0),
                     st.integers(-8, 8).map(lambda n: n / 2))
    wide = st.floats(1.0, 2.0 ** 10)
    scaled = st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.integers(-(2 ** 52), 2 ** 52 - 1).map(lambda n: n + 0.5),
        st.builds(lambda r, d: r + d, rails, near),
        st.builds(lambda r, w: r * w, rails, wide),
        st.builds(lambda sign, w: sign * 2.0 ** 51 * w,
                  st.sampled_from([-1.0, 1.0]), wide),
        st.floats(-2.0 ** 51, 2.0 ** 51),
    )
    return st.one_of(scaled.map(lambda y: y / scale), st.floats())


def _outcome(f, x):
    """The bits of ``f(x)`` (one float or a tuple), or the exception type."""
    try:
        y = f(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return struct.pack(f"<{len(y)}d", *y) if isinstance(y, tuple) else (
        struct.pack("<d", y))


@pytest.mark.parametrize("fraction_bits", [8, 14, 15])
@pytest.mark.parametrize("kind", sorted(QUANTIZER_KINDS))
@settings(max_examples=100)
@given(data=st.data())
def test_fixed16_quantizer_matches_reference(kind, fraction_bits, data):
    scale_of, bits = QUANTIZER_KINDS[kind]
    xs = data.draw(st.lists(
        _quantizer_inputs(scale_of(fraction_bits), bits), max_size=12))
    got = Fixed16Arithmetic(fraction_bits)
    want = oracle.Fixed16Reference(fraction_bits)
    for x in xs:
        assert (_outcome(getattr(got, kind), x)
                == _outcome(getattr(want, kind), x)), x
    assert got.saturations == want.saturations


@pytest.mark.parametrize("fraction_bits", [8, 14, 15])
@settings(max_examples=100)
@given(thetas=st.lists(st.one_of(st.floats(0.0, 2 * math.pi),
                                 st.floats(-1e-15, 0.0), st.floats()),
                       max_size=20))
def test_fixed16_trig_matches_reference(fraction_bits, thetas):
    got = Fixed16Arithmetic(fraction_bits)
    want = oracle.Fixed16Reference(fraction_bits)
    for theta in thetas:
        assert _outcome(got.trig, theta) == _outcome(want.trig, theta), theta
    assert got.saturations == want.saturations


def test_fixed16_trig_wraps_theta_just_below_zero():
    # (theta * n / 2pi) % n rounds up to n, one past the table: entry 0
    for arith in (Fixed16Arithmetic(), oracle.Fixed16Reference()):
        assert arith.trig(-1e-17) == arith.trig(-2.2e-16) == arith.trig(0.0)
    pll = SrfPll(pi_from_bandwidth(55.0), arith=Fixed16Arithmetic())
    pll.reset(theta=-1e-17)
    assert pll.step(0.0, -1.0) == Fixed16Arithmetic().trig(0.0)


def test_fixed16_quantize_input_matches_signal_and_clips():
    arith = Fixed16Arithmetic()
    v = np.sin(np.linspace(0.0, 6.0, 257)) * 1.3 + 0.01
    q = arith.quantize_input(v)
    assert np.array_equal(q, [arith.signal(x) for x in v])
    lim = (2**15 - 1) / 2**14, -(2**15) / 2**14
    assert list(arith.quantize_input(np.array([5.0, -5.0]))) == list(lim)
    # input clipping is the ADC's, not a counted arithmetic saturation
    assert arith.saturations == 0


@pytest.mark.parametrize("fraction_bits", [8, 14, 15])
def test_fixed16_quantize_input_clips_before_scaling(fraction_bits):
    arith = Fixed16Arithmetic(fraction_bits)
    scale = 2.0 ** fraction_bits
    lsb = 1 / scale
    hi, lo = (2**15 - 1) * lsb, -(2**15) * lsb
    rails = [r + d * lsb for r in (hi, lo) for d in (-0.5, 0.0, 0.5)]
    rng = np.random.default_rng(fraction_bits)
    v = np.concatenate([
        rails, [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300,
                1e308, -1e308],
        rng.uniform(2 * lo, 2 * hi, 2000),
    ])
    with np.errstate(over="ignore"):
        scaled_first = np.clip(
            np.round(v * scale) / scale, lo, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arith.quantize_input(v)
    assert _same_bits(got, scaled_first)


def test_fixed16_clipped_input_runs_without_warnings(mtsd_like):
    spec = GridSignalSpec(fundamental_amplitude=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(spec, mtsd_like, 0.2, FIXED16)
    assert np.abs(trace.v_g).max() == 2.0


@settings(max_examples=500)
@given(x=st.one_of(
    st.floats(),
    # half-LSB ties of the 16-bit mantissa, and the one that rounds up
    # out of it, at any binary scale
    st.builds(lambda n, e, sign: sign * math.ldexp(n + 0.5, e),
              st.integers(2 ** 14, 2 ** 15 - 1), st.integers(-1100, 1008),
              st.sampled_from([-1.0, 1.0])),
))
def test_fixed16_coeff_matches_log2_form(x):
    got = _outcome(Fixed16Arithmetic.coeff, x)
    want = _outcome(oracle.Fixed16Reference.coeff, x)
    if want in (ValueError, OverflowError):
        # the log2 form fails for tiny x; frexp rounds it all the same
        assert abs(x) < 2.0 ** -1000
        c = Fixed16Arithmetic.coeff(x)
        assert abs(c - x) <= abs(x) * 2.0 ** -15 + 2.0 ** -1074
    else:
        assert got == want, x


def test_fixed16_coeff_keeps_16_bit_mantissa():
    c = Fixed16Arithmetic.coeff(0.0157079)
    assert c == pytest.approx(0.0157079, rel=2**-15)
    assert Fixed16Arithmetic.coeff(0.0) == 0.0
    # a non-finite coefficient is kept, as in float64, for the loop to catch
    assert Fixed16Arithmetic.coeff(math.inf) == math.inf
    assert Fixed16Arithmetic.coeff(-math.inf) == -math.inf
    assert math.isnan(Fixed16Arithmetic.coeff(math.nan))


@pytest.mark.parametrize("k, sample, cause", [
    (1e305, 2, OverflowError),   # the states overflow in the quantizer
    (1e306, 0, ValueError),      # k·ω0·Ts is inf, and inf·0 is NaN
])
def test_fixed16_huge_gain_diverges(hc_like, k, sample, cause):
    design = dataclasses.replace(hc_like, k=k)
    with pytest.raises(SimulationError,
                       match=rf"^numerical divergence at sample {sample} "
                             rf"\(t = {sample * TS:.6g} s\)$") as info:
        run(GridSignalSpec(), design, 0.01, FIXED16)
    assert isinstance(info.value.__cause__, cause)


def test_fixed16_trig_accuracy():
    arith = Fixed16Arithmetic()
    for theta in np.linspace(0, 2 * math.pi, 997, endpoint=False):
        s, c = arith.trig(theta)
        assert s == pytest.approx(math.sin(theta), abs=2e-4)
        assert c == pytest.approx(math.cos(theta), abs=2e-4)


@pytest.mark.parametrize("fraction_bits", [8, 14, 15])
def test_fixed16_trig_table_within_the_rails(fraction_bits):
    # the tables are rounded as signal words: at Q1.15 the peaks sit on
    # the rail, 32767/32768, where an entry of 1.0 would count a
    # saturation on every lookup near a peak
    arith = Fixed16Arithmetic(fraction_bits)
    n = arith.LUT_SIZE
    entries = [v for i in range(n) for v in arith.trig(i * 2 * math.pi / n)]
    for theta in np.linspace(-1.0, 7.0, 100_001).tolist():
        arith.trig(theta)
    assert arith.saturations == 0
    assert max(entries) == min(1.0, (2 ** 15 - 1) / 2 ** fraction_bits)
    assert min(entries) == -1.0


def test_fixed16_close_to_float(mtsd_like):
    report = fixed_vs_float_drift(GridSignalSpec(), mtsd_like, 0.6)
    assert report["max_freq_error_hz"] < 0.1
    assert report["max_unit_vector_error"] < 1e-3
    assert report["saturations"] == 0


def test_fixed16_runs_distorted_scenario(mtsd_like):
    spec = GridSignalSpec(fundamental_frequency=46.0,
                          harmonics=tuple(harmonic_profile(0.05)))
    trace = run(spec, mtsd_like, 0.8, FIXED16)
    m = transient_metrics(trace, fundamental_hz=46.0)
    assert np.mean(trace.f_e[trace.steady_slice()]) == pytest.approx(
        46.0, abs=0.05
    )
    assert m.steady_thd < 2.5
