import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgipll import (
    BasicSogiFilter,
    HgiFilter,
    HgiParams,
    NOMINAL_OMEGA0,
    freq_response,
    k_opt_search,
    settling_times,
    synthesize,
    GridSignalSpec,
    TimedEvent,
)
from hgipll.hgi import k_grid
from conftest import CountingArithmetic, CountingFloat
from oracle import step_responses

TS = 50e-6


def test_quadrature_exact_at_center_frequency():
    ga, gb = freq_response(HgiParams(1.56), NOMINAL_OMEGA0)
    assert abs(ga - 1.0) < 1e-12
    assert abs(gb - (-1j)) < 1e-12


def test_beta_is_scaled_derivative_of_alpha():
    # G_beta = -(s / w0) * G_alpha across the band
    params = HgiParams(0.7)
    w = np.linspace(1.0, 2000.0, 400)
    ga, gb = freq_response(params, w)
    assert np.max(np.abs(gb - (-(1j * w) / params.omega0) * ga)) < 1e-12


def test_zero_dc_gain():
    for k in (0.3, 1.56, 3.0):
        ga, gb = freq_response(HgiParams(k), 1e-9)
        assert abs(ga) < 1e-10
        assert abs(gb) < 1e-10


def test_alpha_band_pass_peak():
    params = HgiParams(1.0)
    w = np.linspace(10.0, 3000.0, 5000)
    ga, _ = freq_response(params, w)
    peak = w[np.argmax(np.abs(ga))]
    assert peak == pytest.approx(NOMINAL_OMEGA0, rel=1e-3)


def test_invalid_params():
    with pytest.raises(ValueError):
        HgiParams(0.0)
    with pytest.raises(ValueError):
        HgiParams(1.0, -1.0)
    for args in ((math.nan,), (math.inf,), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            HgiParams(*args)


def test_discrete_filter_tracks_continuous_response():
    params = HgiParams(1.56)
    filt = HgiFilter(params, TS)
    v = synthesize(GridSignalSpec(), TS, 1.0)
    va = np.empty(len(v))
    vb = np.empty(len(v))
    for i, s in enumerate(v):
        va[i], vb[i] = filt.step(s)
    ga, gb = freq_response(params, NOMINAL_OMEGA0)
    tail = slice(-4000, None)
    assert np.abs(va[tail]).max() == pytest.approx(abs(ga), abs=0.02)
    assert np.abs(vb[tail]).max() == pytest.approx(abs(gb), abs=0.02)


def test_discrete_filter_blocks_dc():
    filt = HgiFilter(HgiParams(1.56), TS)
    va = vb = 0.0
    for _ in range(40000):
        va, vb = filt.step(1.0)
    assert abs(va) < 1e-6
    assert abs(vb) < 1e-6


def _run_filter(params, v):
    filt = HgiFilter(params, TS)
    for s in v:
        out = filt.step(s)
    return out


@settings(max_examples=25)
@given(k=st.floats(0.5, 3.0), dc=st.floats(-2.0, 2.0))
def test_discrete_filter_blocks_any_dc(k, dc):
    # 1 s is over 78 time constants of the slowest pole at k = 0.5
    v_alpha, v_beta = _run_filter(HgiParams(k), np.full(20000, dc))
    assert abs(v_alpha) < 1e-9
    assert abs(v_beta) < 1e-9


@settings(max_examples=25)
@given(k=st.floats(0.5, 3.0), dc=st.floats(-2.0, 2.0),
       at=st.floats(0.0, 0.2))
def test_discrete_filter_rejects_a_dc_step(k, dc, at):
    # the filter is linear: with and without the step, both outputs end
    # the same once the step's transient has decayed
    spec = GridSignalSpec(events=(TimedEvent(at, "dc_step", dc),))
    params = HgiParams(k)
    stepped = _run_filter(params, synthesize(spec, TS, 1.0))
    clean = _run_filter(params, synthesize(spec.without_events(), TS, 1.0))
    assert stepped == pytest.approx(clean, abs=1e-9)


def test_basic_sogi_passes_dc_to_quadrature():
    filt = BasicSogiFilter(HgiParams(1.56), TS)
    for _ in range(40000):
        va, vb = filt.step(1.0)
    assert abs(va) < 1e-6
    # low-pass channel keeps the offset, with dc gain k
    assert vb == pytest.approx(1.56, abs=1e-6)


def test_euler_stability_guard():
    with pytest.raises(ValueError):
        HgiFilter(HgiParams(1.0), 1e-3)


def test_step_cost_is_4_muls_6_adds():
    filt = HgiFilter(HgiParams(1.56), TS, arith=CountingArithmetic())
    CountingFloat.counter.reset()
    filt.step(CountingFloat(0.5))
    assert CountingFloat.counter.muls == 4
    assert CountingFloat.counter.adds == 6


def test_basic_sogi_step_cost_is_3_muls_4_adds():
    filt = BasicSogiFilter(HgiParams(1.56), TS, arith=CountingArithmetic())
    CountingFloat.counter.reset()
    filt.step(CountingFloat(0.5))
    assert CountingFloat.counter.muls == 3
    assert CountingFloat.counter.adds == 4


def test_step_responses_settle_to_zero():
    t = np.arange(0, 0.2, 1e-5)
    for k in (0.5, 1.56, 2.5):
        ya, yb = step_responses(HgiParams(k), t)
        assert abs(ya[-1]) < 1e-6
        assert abs(yb[-1]) < 1e-6
        assert yb[0] == pytest.approx(-k, rel=1e-9)  # initial quadrature kick


def test_step_responses_repeated_root():
    t = np.arange(0, 0.1, 1e-5)
    ya, yb = step_responses(HgiParams(2.0), t)
    assert np.all(np.isfinite(ya))
    assert np.all(np.isfinite(yb))


def test_published_settling_times():
    ts_a, ts_b, ts = settling_times(HgiParams(1.56))
    assert ts_a == pytest.approx(14.91e-3, abs=0.2e-3)
    assert ts_b == pytest.approx(15.97e-3, abs=0.2e-3)
    assert ts == pytest.approx(15.97e-3, abs=0.2e-3)


def test_settling_monotone_near_optimum():
    # settling worsens on both sides of the optimum gain
    ts = {k: settling_times(HgiParams(k))[2] for k in (1.2, 1.56, 2.2)}
    assert ts[1.56] < ts[1.2]
    assert ts[1.56] < ts[2.2]


def test_k_opt_search_matches_published_value():
    k_opt, ts = k_opt_search((1.3, 1.9), 0.01)
    assert k_opt == pytest.approx(1.56, abs=0.02)
    assert ts == pytest.approx(16e-3, abs=0.3e-3)


@pytest.mark.parametrize("k", [0.01, 1e-320, 1e-310, 1e20, 1e150, 1e305,
                               1e306])
def test_unsettled_gain_names_k(k):
    # k = 0.01 decays with a 0.64 s time constant: still outside the 2 %
    # band at the 1 s horizon.  The extreme gains have a slow pole of 1 s
    # or longer, and are refused before its rate underflows (1e-320,
    # 1e-310), cancels to 0 (1e20, 1e150) or overflows (1e305, 1e306)
    with pytest.raises(ValueError, match=re.escape(
            f"k = {k:g} does not settle within 1 s")):
        settling_times(HgiParams(k))


@pytest.mark.parametrize("k", [0.1, 0.5, 1.56])
def test_settling_times_refuses_an_unsampled_peak(k):
    # at omega0 = 3e6 rad/s the alpha peak of these gains falls between
    # points of the 2 us grid, which would misplace the settling band
    with pytest.raises(ValueError, match=re.escape(
            f"the 2e-06 s settling grid does not sample the alpha peak of "
            f"the HGI step response at k = {k:g}, omega0 = 3e+06 rad/s")):
        settling_times(HgiParams(k, omega0=3e6))


@pytest.mark.parametrize("args,message", [
    (((0.1, 4.0), math.inf), "resolution must be finite and > 0"),
    (((0.1, 4.0), math.nan), "resolution must be finite and > 0"),
    (((0.1, 4.0), 0.0), "resolution must be finite and > 0"),
    (((0.1, math.inf),), "grid range must be finite"),
])
def test_k_opt_search_refuses_a_non_finite_grid(args, message):
    with pytest.raises(ValueError, match=message):
        k_opt_search(*args)


@pytest.mark.parametrize("args", [
    (0.1, 4.0, math.inf), (0.1, 4.0, math.nan), (0.1, 4.0, -0.01),
    (0.1, math.inf, 0.01), (-math.inf, 4.0, 0.01), (math.nan, 4.0, 0.01),
])
def test_k_grid_refuses_a_non_finite_range_or_resolution(args):
    with pytest.raises(ValueError, match="finite"):
        k_grid(*args)


def test_k_grid_includes_endpoints():
    g = k_grid(0.1, 4.0, 0.01)
    assert g[0] == pytest.approx(0.1)
    assert g[-1] == pytest.approx(4.0)
    assert len(g) == 391


def test_settling_overdamped_gain_finite():
    # large k drags a slow real pole but must still settle
    ts = settling_times(HgiParams(4.0))[2]
    assert 0.02 < ts < 0.2
