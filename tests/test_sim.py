import dataclasses
import linecache
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
from hgipll import arith, build_design, sim, synthesize
from hgipll.arith import EXACT, ExactArithmetic, SampleError, bind_pass
from hgipll.design import steady_spec
from hgipll.signal_model import EVENT_KINDS
from hgipll.sim import TRACE_CHANNELS, SimTrace, SimulationError, run_designs

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


@pytest.mark.parametrize("topology", ["hgi", "basic_sogi"])
def test_dc_offset_line_equals_single_bin_oracle(mtsd_like, topology):
    # the f_e tail at a 10 % dc offset holds dc and the 50 Hz line, where
    # the fit's order 1 and the single bin agree
    trace = run(GridSignalSpec(dc_offset=0.1), mtsd_like, 1.0,
                topology=topology)
    tail = trace.f_e[trace.steady_slice()]
    assert spectral_line(tail, 50.0, TS) == pytest.approx(
        oracle.spectral_line(tail, 50.0, TS), rel=1e-8, abs=0)


@pytest.mark.parametrize("cycles", [1, 2, 3, 4])
def test_tail_of_few_cycles_gives_a_line_and_no_thd(mtsd_like, cycles):
    # a steady tail of 1-4 whole cycles is enough for the line of f_e,
    # not for the THD
    duration = sim.STARTUP_EXCLUDE_S + (cycles + 0.5) / 50
    trace = run(GridSignalSpec(dc_offset=0.1), mtsd_like, duration,
                topology="basic_sogi")
    m = transient_metrics(trace, fundamental_hz=50.0)
    tail = len(trace.f_e[trace.steady_slice()]) * TS
    assert math.isfinite(m.freq_line) and m.freq_line > 0
    assert m.freq_line_reason is None
    assert m.steady_thd is None
    assert m.steady_thd_reason == (
        f"leakage window in the {tail:.6g} s steady tail of 50 Hz")


def test_empty_steady_tail_gives_no_ripple(mtsd_like):
    # 0.15 s ends before the 0.2 s start-up exclusion
    m = transient_metrics(run(GridSignalSpec(), mtsd_like, 0.15))
    assert m.freq_ripple_peak is None
    assert m.freq_ripple_peak_reason == "no sample in the steady tail"
    assert m.to_dict()["freq_ripple_peak_reason"] == (
        "no sample in the steady tail")


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
    # the harmonics put a ripple of several Hz on f_e, which the 46 Hz
    # line barely sees
    tail = trace.f_e[trace.steady_slice()]
    assert m.freq_ripple_peak == np.max(np.abs(tail - np.mean(tail))) > 1.0
    assert m.freq_line < 0.05
    assert m.freq_line == spectral_line(tail, 46.0, TS)


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


#: (k, Ts) pairs of the drawn designs: two share k, two share Ts
DESIGN_KEYS = [(1.56, TS), (1.56, 1e-4), (0.9, TS)]


@settings(max_examples=25)
@given(data=st.data())
def test_run_designs_equals_run_per_design(data):
    # 2-3 designs drawn from three (k, Ts) pairs with their own bandwidths,
    # so that some share a filter pass and some do not, recording a drawn
    # subset of the channels
    keys = data.draw(st.lists(st.sampled_from(DESIGN_KEYS), min_size=2,
                              max_size=3))
    designs = [build_design(k, data.draw(st.floats(20.0, 60.0)), "drawn",
                            sample_period=ts) for k, ts in keys]
    duration = data.draw(st.floats(0.002, 0.05))
    spec = data.draw(_scenarios(duration))
    mode = data.draw(MODES)
    topology = data.draw(st.sampled_from(["hgi", "basic_sogi"]))
    channels = data.draw(st.one_of(
        st.just(TRACE_CHANNELS),
        st.lists(st.sampled_from(TRACE_CHANNELS), unique=True)))
    traces = list(run_designs(spec, designs, duration, mode, topology,
                              channels))
    assert len(traces) == len(designs)
    # both modes' derived passes leave channels out; omega_e is kept
    recorded = {*channels, "omega_e"}
    for design, got in zip(designs, traces):
        want = run(spec, design, duration, mode, topology)
        for c in TRACE_CHANNELS:
            if c in recorded:
                assert _same_bits(got.channel(c), want.channel(c)), c
            else:
                assert got.channel(c) is None, c
        assert len(got) == len(want)
        assert got.saturations == want.saturations
        assert got.sample_period == want.sample_period


def test_run_designs_refuses_an_unknown_channel(mtsd_like):
    with pytest.raises(ValueError, match="unknown trace channels"):
        list(run_designs(GridSignalSpec(), [mtsd_like], 0.01,
                         channels=("sin_theta", "f_e")))


def test_designs_with_one_k_and_ts_share_one_filter_pass(mtsd_like, hc_like,
                                                         monkeypatch):
    synthesized = []
    monkeypatch.setattr(sim, "synthesize", lambda *a: synthesized.append(a)
                        or synthesize(*a))
    ts100 = build_design(1.56, 29.5, "ts100us", sample_period=1e-4)
    designs = [mtsd_like, ts100, hc_like]
    # the clipped input drives the fixed16 filter states into their rails
    spec = GridSignalSpec(fundamental_amplitude=1e308)
    mtsd, ts100_trace, hc = run_designs(spec, designs, 0.05, FIXED16)
    assert len(synthesized) == 2
    assert mtsd.v_alpha is hc.v_alpha and mtsd.v_g is hc.v_g
    assert ts100_trace.v_alpha is not mtsd.v_alpha
    assert not np.array_equal(mtsd.sin_theta, hc.sin_theta)
    # each counts the shared filter pass's saturations and its own loop's
    arith = FIXED16.policy()
    HgiFilter(hc_like.hgi, TS, arith=arith).process(
        arith.quantize_input(synthesize(spec, TS, 0.05)), *[[0.0] * 1000] * 2)
    assert arith.saturations > 0
    for design, trace in zip(designs, (mtsd, ts100_trace, hc)):
        assert trace.saturations == oracle.run(spec, design, 0.05,
                                               FIXED16).saturations


def test_float64_run_makes_no_call_through_exact_hooks(hc_like, monkeypatch):
    calls = []

    def counted(name):
        hook = getattr(EXACT, name)
        return staticmethod(lambda x: calls.append(name) or hook(x))

    for name in ("signal", "accumulator", "phase", "trig"):
        monkeypatch.setattr(ExactArithmetic, name, counted(name))
    spec = GridSignalSpec(harmonics=tuple(harmonic_profile(0.05)),
                          dc_offset=0.1)
    for topology in ("hgi", "basic_sogi"):
        got = run(spec, hc_like, 0.02, FLOAT64, topology)
        assert calls == []
        want = oracle.run(spec, hc_like, 0.02, FLOAT64, topology)
        for c in TRACE_CHANNELS:
            assert _same_bits(got.channel(c), want.channel(c)), c
        # the oracle's steps go through the patched hooks
        assert sorted(set(calls)) == ["accumulator", "phase", "signal",
                                      "trig"]
        calls.clear()
    # so do the written passes, on any exact policy: a stage built
    # directly, on EXACT too, runs its written process
    for policy in (ExactArithmetic(), EXACT):
        HgiFilter(hc_like.hgi, TS, arith=policy).step(0.5)
        SrfPll(hc_like.pi, arith=policy).step(0.5, -0.5)
        assert sorted(set(calls)) == ["accumulator", "phase", "signal",
                                      "trig"]
        calls.clear()
    for policy in (EXACT, FIXED16.policy()):
        for stage in (HgiFilter(hc_like.hgi, TS, arith=policy),
                      BasicSogiFilter(hc_like.hgi, TS, arith=policy),
                      SrfPll(hc_like.pi, arith=policy)):
            assert stage.process.__func__ is type(stage).process


def test_run_designs_derives_each_pass_it_runs_once(mtsd_like, hc_like):
    # the two designs share one filter pass; the loop pass is derived
    # once, without the stores to the channels not requested, and only
    # the simulator binds a derived pass
    arith.derived_pass.cache_clear()
    list(run_designs(steady_spec(46.0, 0.05), [mtsd_like, hc_like], 0.05,
                     channels=("sin_theta",)))
    assert arith.derived_pass.cache_info().misses == 2


_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -0.0])


#: The output buffers of each stage's ``process``, in order.
_BUFFERS = {"hgi": ("v_alpha", "v_beta"), "basic_sogi": ("v_alpha", "v_beta"),
            "srf": ("v_d", "v_q", "deviation", "theta", "sin", "cos")}


def _derived_and_written(kind, hc_like, data, derived, written, rails=()):
    """A drawn pass through the stage's derived pass on policy ``derived``,
    without the stores to a drawn set of buffers, which it is given as
    None, and through the written ``process`` on policy ``written``,
    which writes every buffer: for each, the ``SampleError`` index, the
    bits of the buffers both write, the final state and the saturations.
    The inputs are drawn with ``rails`` among them."""
    values = st.one_of(st.floats(-2.5, 2.5), _SPECIAL, *map(st.just, rails))
    n = data.draw(st.integers(0, 60))
    ins = [data.draw(st.lists(values, min_size=n, max_size=n))
           for _ in range(2 if kind == "srf" else 1)]
    dropped = frozenset(data.draw(st.lists(st.sampled_from(_BUFFERS[kind]),
                                           unique=True)))
    results = []
    for policy in (derived, written):
        stage, _ = _stage(kind, hc_like, _Fixed(policy))
        if policy is derived:
            bind_pass(stage, policy, dropped)
            assert stage.process.__func__ is not type(stage).process
        process = stage.process if policy is derived else (
            type(stage).process.__get__(stage))
        outs = {b: None if policy is derived and b in dropped else [0.0] * n
                for b in _BUFFERS[kind]}
        try:
            process(*ins, *outs.values())
            index = None
        except SampleError as exc:
            index = exc.index
        kept = [outs[b] for b in _BUFFERS[kind] if b not in dropped]
        results.append((index, _bits_any_nan(sum(kept, [])),
                        _bits_any_nan(_stage_state(stage)),
                        policy.saturations))
    return results


@settings(max_examples=60)
@given(kind=st.sampled_from(["hgi", "basic_sogi", "srf"]), data=st.data())
def test_float64_pass_equals_the_written_pass(hc_like, kind, data):
    # EXACT binds the derived pass; another ExactArithmetic keeps the
    # written one, with its hooks
    written = ExactArithmetic()
    stage = _stage(kind, hc_like, _Fixed(written))[0]
    bind_pass(stage, written)
    assert stage.process.__func__ is type(stage).process
    derived, written = _derived_and_written(kind, hc_like, data, EXACT,
                                            written)
    assert derived == written


@settings(max_examples=60)
@given(kind=st.sampled_from(["hgi", "basic_sogi", "srf"]),
       fraction_bits=st.integers(8, 15), data=st.data())
def test_fixed16_pass_equals_the_written_pass(hc_like, kind, fraction_bits,
                                              data):
    # the derived pass has the quantizers and the LUT trig in line; the
    # written one calls the hooks of a policy of the same format.  The
    # loop quantizes its first sample's inputs as they are: at a rail,
    # the rail check must pass them
    lsb = 2.0 ** -fraction_bits
    derived, written = _derived_and_written(
        kind, hc_like, data, Fixed16Arithmetic(fraction_bits),
        Fixed16Arithmetic(fraction_bits),
        [(2 ** 15 - 1) * lsb, -(2 ** 15) * lsb])
    assert derived == written


@pytest.mark.parametrize("mode", [FLOAT64, FIXED16])
def test_run_designs_without_source_records_the_requested_channels(
        hc_like, mode, monkeypatch):
    # installed as bytecode only, no pass is derived: the written pass
    # runs and writes every buffer, yet only the requested channels (and
    # omega_e) come back, as from a derived pass
    want = run(GridSignalSpec(), hc_like, 0.01, mode)
    monkeypatch.setattr(linecache, "getlines", lambda *args: [])
    arith.derived_pass.cache_clear()
    try:
        (got,) = run_designs(GridSignalSpec(), [hc_like], 0.01, mode,
                             channels=("sin_theta",))
    finally:
        arith.derived_pass.cache_clear()
    for c in TRACE_CHANNELS:
        if c in ("sin_theta", "omega_e"):
            assert _same_bits(got.channel(c), want.channel(c)), c
        else:
            assert got.channel(c) is None, c
    assert got.saturations == want.saturations


def test_fixed16_run_makes_no_call_through_its_hooks(hc_like, monkeypatch):
    calls = []

    def counted(name, hook):
        return lambda x: calls.append(name) or hook(x)

    def counted_policy(mode):
        policy = Fixed16Arithmetic(mode.fraction_bits)
        for name in ("signal", "accumulator", "phase", "trig"):
            setattr(policy, name, counted(name, getattr(policy, name)))
        for cell, slow in policy._cells.items():
            if cell.endswith("_slow"):
                policy._cells[cell] = counted(cell, slow)
        return policy

    monkeypatch.setattr(ArithmeticMode, "policy", counted_policy)
    # an in-rail scenario: no value takes a slow path
    spec = GridSignalSpec(harmonics=tuple(harmonic_profile(0.05)),
                          dc_offset=0.1)
    for topology in ("hgi", "basic_sogi"):
        got = run(spec, hc_like, 0.02, FIXED16, topology)
        assert calls == []
        assert got.saturations == 0
        want = oracle.run(spec, hc_like, 0.02, FIXED16, topology)
        for c in TRACE_CHANNELS:
            assert _same_bits(got.channel(c), want.channel(c)), c
    # the written passes go through the counted hooks
    filt = HgiFilter(hc_like.hgi, TS, arith=FIXED16.policy())
    HgiFilter.process(filt, [0.5], [0.0], [0.0])
    pll = SrfPll(hc_like.pi, arith=FIXED16.policy())
    SrfPll.process(pll, [0.5], [-0.5], *[[0.0]] * 6)
    assert sorted(set(calls)) == ["accumulator", "phase", "signal", "trig"]


def _bits_any_nan(values):
    """The bits of ``values`` with every NaN made the same: where two NaNs
    meet, which of them a float add or multiply returns depends on whether
    the interpreter has specialized that instruction yet."""
    a = np.array(values, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.tobytes()


class _Fixed:
    """A mode whose policy is the given one."""

    def __init__(self, arith):
        self.arith = arith

    def policy(self):
        return self.arith


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
    # every channel, then trimmed float64 passes, which still record
    # omega_e, the channel that names the sample
    for channels in (TRACE_CHANNELS, ("sin_theta",), ()):
        # samples 0 and 1 are still finite
        (head,) = run_designs(spec, [mtsd_like], 2 * TS, channels=channels)
        assert np.isfinite(head.omega_e).all()
        with pytest.raises(SimulationError,
                           match=r"^numerical divergence at sample 2 "
                                 r"\(t = 0\.0001 s\)$"):
            list(run_designs(spec, [mtsd_like], 0.2, channels=channels))


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
    pll.theta = -1e-17
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
