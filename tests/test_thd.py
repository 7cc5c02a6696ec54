import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from hgipll import (
    AnalyticsError,
    GridSignalSpec,
    HgiParams,
    Phasor,
    TimedEvent,
    harmonic_breakdown,
    harmonic_profile,
    measured_thd,
    pi_from_bandwidth,
    run,
    sequence_decompose,
    spectral_line,
    total_unit_vector_thd,
    transient_metrics,
)
from hgipll.hgi import EULER_GUARD
from hgipll.signal_model import NOMINAL_OMEGA0
from hgipll.thd import ripple_terms

TS = 50e-6
W0 = 2 * math.pi * 50.0


def test_sequence_decomposition_round_trip_exact():
    va = Phasor(0.8, 0.3, 5)
    vb = Phasor(0.6, -1.1, 5)
    (pa, pb), (na, nb) = sequence_decompose(va, vb)
    assert pa.complex + na.complex == pytest.approx(va.complex, abs=1e-15)
    assert pb.complex + nb.complex == pytest.approx(vb.complex, abs=1e-15)
    # each sequence pair is in exact quadrature
    assert pb.complex == pytest.approx(-1j * pa.complex, abs=1e-15)
    assert nb.complex == pytest.approx(1j * na.complex, abs=1e-15)


def test_sequence_decomposition_pure_positive():
    # v_beta = -j * v_alpha is a pure positive-sequence pair
    (pa, _), (na, _) = sequence_decompose(
        Phasor(1.0, 0.0, 1), Phasor(1.0, -math.pi / 2, 1)
    )
    assert pa.amplitude == pytest.approx(1.0, abs=1e-15)
    assert na.amplitude == pytest.approx(0.0, abs=1e-15)


def test_sequence_order_mismatch_rejected():
    with pytest.raises(AnalyticsError):
        sequence_decompose(Phasor(1, 0, 3), Phasor(1, 0, 5))


def deviation_ripple(f_bw, omega):
    """The order-3 deviation term of ``ripple_terms`` at k = 1.56:
    (unit-vector amplitude u3, present)."""
    pi = pi_from_bandwidth(f_bw)
    [(order, r, present)] = ripple_terms(1.56, pi.kp, pi.ki, omega)
    assert order == 3
    return float(abs(r)), bool(present)


def test_freq_dev_ripple_zero_at_nominal():
    assert deviation_ripple(55.0, W0) == (0.0, False)


def test_freq_dev_ripple_known_band_edge():
    # the deviation-only design sits right at the 1% THD limit at 46 Hz
    u3, present = deviation_ripple(55.0, 2 * math.pi * 46)
    assert present
    assert 100 * u3 == pytest.approx(1.0, abs=0.15)


def test_freq_dev_ripple_low_bandwidth_attenuates():
    u3, _ = deviation_ripple(29.0, 2 * math.pi * 46)
    assert 100 * u3 == pytest.approx(0.6, abs=0.15)


def test_freq_dev_ripple_symmetric_band_similar():
    lo, _ = deviation_ripple(55.0, 2 * math.pi * 46)
    hi, _ = deviation_ripple(55.0, 2 * math.pi * 54)
    assert lo > 0 and hi > 0
    assert lo == pytest.approx(hi, rel=0.35)


def harmonic_terms(order, amplitude, fundamental=1.0):
    """``ripple_terms`` at 50 Hz with one input harmonic (phase 0.2): the
    positive- and the negative-sequence pair, as (order, a, present)."""
    pi = pi_from_bandwidth(55.0)
    terms = ripple_terms(1.56, pi.kp, pi.ki, W0, [(order, amplitude, 0.2)],
                         fundamental)
    rows = [(o, float(abs(r)), bool(p)) for o, r, p in terms[1:]]
    return rows[:2], rows[2:]


def test_harmonic_ripple_zero_amplitude_empty():
    pos, neg = harmonic_terms(3, 0.0)
    assert [(a, p) for _, a, p in pos + neg] == [(0.0, False)] * 4


def test_harmonic_ripple_output_orders():
    pos, neg = harmonic_terms(3, 0.01)
    assert [o for o, _, _ in pos] == [1, 3]
    assert [o for o, _, _ in neg] == [3, 5]
    assert all(a >= 0 and p for _, a, p in pos + neg)


def test_harmonic_ripple_rejects_bad_input():
    with pytest.raises(AnalyticsError, match="harmonic order must be >= 2"):
        harmonic_terms(1, 0.01)
    with pytest.raises(AnalyticsError, match="no fundamental reference"):
        harmonic_terms(3, 0.01, fundamental=0.0)
    with pytest.raises(AnalyticsError, match="harmonic amplitude must be finite"):
        harmonic_terms(3, math.nan)


def test_total_thd_zero_for_clean_nominal():
    spec = GridSignalSpec()
    assert total_unit_vector_thd(
        spec, HgiParams(1.56), pi_from_bandwidth(55.0)
    ) == 0.0


def test_total_thd_rejects_events():
    spec = GridSignalSpec(events=(TimedEvent(0.1, "phase_jump", 1.0),))
    with pytest.raises(AnalyticsError):
        total_unit_vector_thd(spec, HgiParams(1.56), pi_from_bandwidth(55.0))


def test_breakdown_excludes_order_one_from_thd():
    spec = GridSignalSpec(harmonics=tuple(harmonic_profile(0.05)))
    hgi, pi = HgiParams(1.56), pi_from_bandwidth(55.0)
    rows = harmonic_breakdown(spec, hgi, pi)
    orders = [o for o, _, _ in rows]
    assert 1 in orders  # reported...
    thd = total_unit_vector_thd(spec, hgi, pi)
    rss = 100 * math.sqrt(sum(a**2 for o, a, _ in rows if o >= 2))
    assert thd == pytest.approx(rss, rel=1e-12)  # ...but not counted


def test_analytical_matches_simulation(mtsd_like):
    # spot-check the analytical model against the time-domain oracle
    harmonics = tuple(harmonic_profile(0.05))
    for f in (46.0, 50.0, 54.0):
        spec = GridSignalSpec(fundamental_frequency=f, harmonics=harmonics)
        analytical = total_unit_vector_thd(spec, mtsd_like.hgi, mtsd_like.pi)
        trace = run(spec, mtsd_like, 1.0)
        sim = transient_metrics(trace, fundamental_hz=f).steady_thd
        assert analytical == pytest.approx(sim, abs=0.2)


def test_measured_thd_on_synthetic_signal():
    t = np.arange(0, 0.4, TS)
    u = np.sin(2 * np.pi * 50 * t) + 0.03 * np.sin(2 * np.pi * 150 * t + 0.4)
    assert measured_thd(u, 50.0, TS) == pytest.approx(3.0, abs=0.01)


def test_measured_thd_ignores_dc_and_scale():
    t = np.arange(0, 0.4, TS)
    u = 2.0 * np.sin(2 * np.pi * 50 * t) + 0.08 * np.sin(2 * np.pi * 250 * t)
    assert measured_thd(u + 0.5, 50.0, TS) == pytest.approx(4.0, abs=0.01)


def test_measured_thd_non_integer_cycle_window():
    # 47 Hz never fits a whole number of 50 us samples per cycle
    t = np.arange(0, 0.5, TS)
    u = np.sin(2 * np.pi * 47 * t) + 0.02 * np.sin(2 * np.pi * 141 * t)
    assert measured_thd(u, 47.0, TS) == pytest.approx(2.0, abs=0.05)


def test_measured_thd_short_trace_rejected():
    t = np.arange(0, 0.05, TS)
    with pytest.raises(AnalyticsError, match="leakage window"):
        measured_thd(np.sin(2 * np.pi * 50 * t), 50.0, TS)


@settings(max_examples=60)
@given(
    f=st.floats(40.0, 70.0),
    ts_frac=st.floats(0.0, 1.0),
    cycles=st.floats(5.01, 40.99),
    fundamental=st.tuples(st.floats(0.2, 2.0), st.floats(-math.pi, math.pi)),
    dc=st.floats(-0.5, 0.5),
    harmonics=st.lists(st.tuples(st.integers(2, 50), st.floats(0.0, 0.1),
                                 st.floats(-math.pi, math.pi)), max_size=6),
    noise=st.floats(0.0, 0.01),
    seed=st.integers(0, 2**32 - 1),
)
def test_measured_thd_matches_basis_fit(f, ts_frac, cycles, fundamental, dc,
                                        harmonics, noise, seed):
    # Ts from 50 us up to the lower of the Euler guard and the highest
    # fitted order staying below Nyquist by 1e-5 cycles per sample
    # (max_order * f * Ts <= 0.5 - 1e-5).  Within about 1e-7 of Nyquist
    # that order's sine column nearly vanishes and the fit is ill-posed:
    # the basis fit turns 1 % noise into 100-500,000 % THD there, and the
    # normal equations, which square the basis' condition number, no
    # longer agree with it.
    ts_max = min(EULER_GUARD / NOMINAL_OMEGA0, (0.5 - 1e-5) / (50 * f))
    ts = 50e-6 + ts_frac * (ts_max - 50e-6)
    # the trace holds a non-whole number of cycles, and a cycle is in
    # general not a whole number of samples
    wt = 2 * np.pi * f * ts * np.arange(int(cycles / (f * ts)))
    u = dc + fundamental[0] * np.sin(wt + fundamental[1])
    for order, amp, phase in harmonics:
        u += amp * np.sin(order * wt + phase)
    u += noise * np.random.default_rng(seed).standard_normal(len(wt))
    assert measured_thd(u, f, ts) == pytest.approx(
        oracle.measured_thd(u, f, ts), abs=1e-9)


def _outcome_or_error(fit):
    try:
        return fit()
    except AnalyticsError as exc:
        return str(exc)


@settings(max_examples=40)
@given(
    f=st.floats(45.0, 55.0),
    ts=st.sampled_from([50e-6, 100e-6]),
    # under five cycles the window leaks
    cycles=st.one_of(st.floats(5.01, 25.0), st.floats(1.0, 4.99)),
    rows=st.lists(st.tuples(
        st.floats(0.2, 2.0), st.floats(-math.pi, math.pi),
        st.lists(st.tuples(st.integers(2, 20), st.floats(0.0, 0.1),
                           st.floats(-math.pi, math.pi)), max_size=3),
        st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
    zero_row=st.one_of(st.none(), st.integers(0, 3)),
)
def test_stacked_measured_thd_equals_one_trace_calls(f, ts, cycles, rows,
                                                     zero_row):
    # each row's own call, on an array of its own, against the stack; a
    # zero row has no fundamental, and the stack raises as its first
    # failing row does
    wt = 2 * np.pi * f * ts * np.arange(int(cycles / (f * ts)))
    traces = []
    for amplitude, phase, harmonics, seed in rows:
        u = amplitude * np.sin(wt + phase)
        for order, amp, gamma in harmonics:
            u += amp * np.sin(order * wt + gamma)
        traces.append(u + 0.001 * np.random.default_rng(seed).standard_normal(
            len(wt)))
    if zero_row is not None and zero_row < len(traces):
        traces[zero_row] = np.zeros(len(wt))
    alone = [_outcome_or_error(lambda: measured_thd(u, f, ts))
             for u in traces]
    stacked = _outcome_or_error(lambda: measured_thd(np.stack(traces), f, ts))
    errors = [a for a in alone if isinstance(a, str)]
    if errors:
        assert stacked == errors[0]
        assert errors[0] in ("leakage window",
                             "no fundamental component in trace")
        assert (errors[0] == "leakage window") == (cycles < 5)
    else:
        assert isinstance(stacked, np.ndarray) and len(stacked) == len(alone)
        assert stacked.tobytes() == np.array(alone).tobytes()
        assert all(type(a) is float for a in alone)


@pytest.mark.parametrize("ts", [200e-6, 250e-6])
def test_measured_thd_aliased_orders_minimum_norm(ts):
    # 50 Hz at 200 us puts order 50 on Nyquist; at 250 us orders 41-50
    # alias onto 39-30.  The aliased columns are dependent, and the fit
    # takes the minimum-norm split as the basis fit does.
    wt = 2 * np.pi * 50.0 * ts * np.arange(int(0.8 / ts))
    u = np.sin(wt) + 0.03 * np.sin(3 * wt) + 0.02 * np.sin(5 * wt + 0.3)
    expected = oracle.measured_thd(u, 50.0, ts)
    assert measured_thd(u, 50.0, ts) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(100 * math.sqrt(0.03**2 + 0.02**2),
                                     abs=1e-9)


@pytest.mark.parametrize("trace, f, kwargs", [
    (np.ones(20000), 0.0, {}),
    (np.ones(20000), 50.0, {"max_order": 1}),
    (np.ones(1900), 50.0, {}),  # 4.75 cycles
    (np.zeros(20000), 50.0, {}),
])
def test_measured_thd_errors_match_basis_fit(trace, f, kwargs):
    with pytest.raises(AnalyticsError) as expected:
        oracle.measured_thd(trace, f, TS, **kwargs)
    with pytest.raises(AnalyticsError) as got:
        measured_thd(trace, f, TS, **kwargs)
    assert str(got.value) == str(expected.value)


def test_spectral_line_amplitude():
    t = np.arange(0, 0.5, TS)
    u = 0.3 * np.sin(2 * np.pi * 50 * t + 1.0) + 0.7
    assert spectral_line(u, 50.0, TS) == pytest.approx(0.3, abs=1e-3)


@pytest.mark.parametrize("fn", [measured_thd, spectral_line],
                         ids=["measured_thd", "spectral_line"])
@pytest.mark.parametrize("f, ts", [(1e308, TS), (math.inf, TS),
                                   (1e307, 50.0)])
def test_overflowing_fundamental_refused(fn, f, ts):
    # 2*pi*f (1e308 Hz, inf) or 2*pi*f*Ts (1e307 Hz at Ts = 50 s) is not
    # finite; measured_thd used to end in a LAPACK LinAlgError after
    # RuntimeWarnings, spectral_line to return NaN
    with pytest.raises(AnalyticsError, match="no finite angle per sample"):
        fn(np.sin(0.01 * np.arange(6000)), f, ts)
