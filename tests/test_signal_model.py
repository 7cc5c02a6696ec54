import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hgipll import (
    GridSignalSpec,
    HarmonicComponent,
    ScenarioError,
    TimedEvent,
    harmonic_profile,
    load_scenario,
    save_scenario,
    synthesize,
)
from hgipll.signal_model import spec_from_dict, spec_to_dict

TS = 50e-6


def test_clean_synthesis_is_a_sine():
    spec = GridSignalSpec()
    v = synthesize(spec, TS, 0.2)
    t = np.arange(len(v)) * TS
    assert np.allclose(v, np.sin(2 * np.pi * 50 * t), atol=1e-9)


def test_sample_count():
    v = synthesize(GridSignalSpec(), TS, 0.1)
    assert len(v) == 2000


def test_duration_under_half_a_sample_rejected():
    with pytest.raises(ScenarioError, match="at least one sample"):
        synthesize(GridSignalSpec(), TS, 0.4 * TS)
    # from half a sample on, the duration rounds to one sample
    assert len(synthesize(GridSignalSpec(), TS, 0.6 * TS)) == 1


@pytest.mark.parametrize("sample_period, duration", [
    (TS, math.nan), (TS, math.inf), (TS, 0.0), (math.nan, 1.0), (0.0, 1.0),
])
def test_non_finite_or_empty_timing_rejected(sample_period, duration):
    with pytest.raises(ScenarioError):
        synthesize(GridSignalSpec(), sample_period, duration)


def test_dc_offset_shifts_mean():
    v = synthesize(GridSignalSpec(dc_offset=0.1), TS, 1.0)
    assert np.mean(v) == pytest.approx(0.1, abs=1e-3)


def test_harmonics_add_on_shared_phase():
    spec = GridSignalSpec(harmonics=(HarmonicComponent(3, 0.05),))
    v = synthesize(spec, TS, 0.2)
    t = np.arange(len(v)) * TS
    th = 2 * np.pi * 50 * t
    assert np.allclose(v, np.sin(th) + 0.05 * np.sin(3 * th), atol=1e-9)


def test_fundamental_phase_applies_to_fundamental_only():
    spec = GridSignalSpec(fundamental_phase=0.3,
                          harmonics=(HarmonicComponent(3, 0.05),))
    v = synthesize(spec, TS, 0.1)
    t = np.arange(len(v)) * TS
    th = 2 * np.pi * 50 * t
    assert np.allclose(v, np.sin(th + 0.3) + 0.05 * np.sin(3 * th), atol=1e-9)


def test_phase_jump_event():
    spec = GridSignalSpec(events=(TimedEvent(0.05, "phase_jump", math.pi / 2),))
    v = synthesize(spec, TS, 0.1)
    t = np.arange(len(v)) * TS
    expected = np.sin(2 * np.pi * 50 * t + (math.pi / 2) * (t >= 0.05))
    assert np.allclose(v, expected, atol=1e-9)


def test_frequency_step_keeps_phase_continuous():
    spec = GridSignalSpec(events=(TimedEvent(0.05, "frequency_step", 54.0),))
    v = synthesize(spec, TS, 0.1)
    # no sample-to-sample discontinuity beyond the slew of a 54 Hz sine
    dv = np.abs(np.diff(v))
    assert dv.max() < 2 * np.pi * 54 * TS * 1.01


def test_amplitude_and_dc_steps():
    spec = GridSignalSpec(events=(
        TimedEvent(0.05, "amplitude_step", 0.5),
        TimedEvent(0.05, "dc_step", 0.2),
    ))
    v = synthesize(spec, TS, 0.1)
    t = np.arange(len(v)) * TS
    tail = v[t >= 0.06]
    assert np.abs(tail - 0.2).max() == pytest.approx(0.5, rel=1e-3)


def test_events_sorted_by_time():
    spec = GridSignalSpec(events=(
        TimedEvent(0.2, "dc_step", 0.1), TimedEvent(0.1, "dc_step", 0.2),
    ))
    assert [e.time for e in spec.events] == [0.1, 0.2]


def test_harmonic_profile_ratios_and_rss():
    comps = harmonic_profile(0.05)
    assert [c.order for c in comps] == [3, 5, 7, 9]
    # amplitudes fall off as 1/order: v_i / v_j = j / i
    assert comps[0].amplitude * 3 == pytest.approx(comps[1].amplitude * 5)
    rss = math.sqrt(sum(c.amplitude**2 for c in comps))
    assert rss == pytest.approx(0.05, rel=1e-12)
    assert comps[0].amplitude == pytest.approx(0.03887, abs=5e-5)


def test_harmonic_profile_zero_thd():
    assert all(c.amplitude == 0 for c in harmonic_profile(0.0))


def test_harmonic_profile_refuses_an_overflowing_input_thd():
    # the 3rd-harmonic amplitude overflows first, and the refusal names
    # the input THD, not an amplitude the caller never gave
    with pytest.raises(ScenarioError, match=r"^input_thd 1e\+308 overflows"):
        harmonic_profile(1e308)
    assert math.isfinite(harmonic_profile(1e300)[0].amplitude)


@pytest.mark.parametrize("bad", [
    dict(fundamental_frequency=0.0),
    dict(fundamental_frequency=-50.0),
    dict(fundamental_frequency=math.nan),
    dict(fundamental_frequency=math.inf),
    dict(fundamental_amplitude=math.nan),
    dict(fundamental_phase=math.inf),
    dict(dc_offset=-math.inf),
])
def test_invalid_spec_rejected(bad):
    with pytest.raises(ScenarioError):
        GridSignalSpec(**bad)


def test_invalid_harmonic_rejected():
    with pytest.raises(ScenarioError):
        HarmonicComponent(1, 0.1)
    with pytest.raises(ScenarioError):
        HarmonicComponent(3, -0.1)
    for amplitude, phase in ((math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan)):
        with pytest.raises(ScenarioError, match="must be finite"):
            HarmonicComponent(3, amplitude, phase)


@pytest.mark.parametrize("order", [3.7, 2.5, math.nan, math.inf, -math.inf])
def test_non_integer_harmonic_order_rejected(order):
    # from Python as from a scenario file: a fraction is refused, not
    # synthesized at a fractional multiple of theta, and so are NaN and inf
    with pytest.raises(ScenarioError, match="harmonic order must be an "
                                            "integer"):
        HarmonicComponent(order, 0.05)


def test_invalid_event_rejected():
    with pytest.raises(ScenarioError):
        TimedEvent(-1.0, "phase_jump", 0.1)
    with pytest.raises(ScenarioError):
        TimedEvent(0.1, "voltage_sag", 0.1)
    # a frequency step to 0 Hz or below leaves no fundamental to track
    for f in (0.0, -0.0, -50.0):
        with pytest.raises(ScenarioError, match="must be > 0"):
            TimedEvent(0.1, "frequency_step", f)


def test_scenario_round_trip(tmp_path):
    spec = GridSignalSpec(
        fundamental_frequency=46.0,
        fundamental_phase=0.1,
        harmonics=tuple(harmonic_profile(0.05)),
        dc_offset=0.05,
        events=(TimedEvent(0.3, "phase_jump", 1.0),),
    )
    path = tmp_path / "scenario.json"
    save_scenario(spec, path)
    assert load_scenario(path) == spec
    assert json.loads(path.read_text())["schema_version"] == 1


finite = st.floats(allow_nan=False, allow_infinity=False)
#: frequencies whose 2*pi*f is finite and > 0, subnormal ones included
frequencies = st.floats(0.0, 1e307, exclude_min=True)
event_times = st.floats(0.0, allow_infinity=False)
drawn_harmonics = st.builds(HarmonicComponent, order=st.integers(2, 1000),
                            amplitude=st.floats(0.0, allow_infinity=False),
                            phase=finite)
drawn_events = st.one_of(
    st.builds(TimedEvent, time=event_times,
              kind=st.sampled_from(["phase_jump", "amplitude_step",
                                    "dc_step"]),
              value=finite),
    st.builds(TimedEvent, time=event_times, kind=st.just("frequency_step"),
              value=frequencies),
)


@given(spec=st.builds(
    GridSignalSpec, fundamental_amplitude=finite,
    fundamental_frequency=frequencies, fundamental_phase=finite,
    harmonics=st.lists(drawn_harmonics, max_size=5).map(tuple),
    dc_offset=finite, events=st.lists(drawn_events, max_size=4).map(tuple)))
def test_scenario_json_round_trip_property(tmp_path_factory, spec):
    # save_scenario then load_scenario is the identity, and the loaded
    # spec saves to the same bytes
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    save_scenario(spec, path)
    loaded = load_scenario(path)
    assert loaded == spec
    again = path.with_name("again.json")
    save_scenario(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_spec_dict_round_trip():
    spec = GridSignalSpec(harmonics=(HarmonicComponent(5, 0.02, 0.3),))
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_bad_scenario_dict_raises():
    with pytest.raises(ScenarioError):
        spec_from_dict({"harmonics": []})


def test_bundled_scenarios_load():
    from importlib import resources
    names = {
        "clean_50hz.json", "dc_offset_10pct.json", "phase_jump_90deg.json",
        "freq_46hz_thd_5pct.json", "freq_54hz_thd_5pct.json",
    }
    root = resources.files("hgipll") / "scenarios"
    found = {p.name for p in root.iterdir() if p.name.endswith(".json")}
    assert names <= found
    spec = spec_from_dict(json.loads((root / "freq_46hz_thd_5pct.json").read_text()))
    assert spec.fundamental_frequency == 46.0
    # the 5 % input THD of its name
    rss = math.hypot(*(h.amplitude for h in spec.harmonics))
    assert rss / spec.fundamental_amplitude == pytest.approx(0.05, rel=1e-9)
