"""The array-native THD kernel and settling times against the scalar
oracles in ``oracle.py``, and the design procedures' feasibility masks
against ``DesignConstraints.thd_ok``."""

import cmath
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from hgipll import (
    DesignConstraints,
    GridSignalSpec,
    HarmonicComponent,
    HgiParams,
    InfeasibleDesignError,
    Phasor,
    build_design,
    freq_response,
    harmonic_breakdown,
    hc_mtsd_design,
    load_scenario,
    mtsd_design,
    pi_from_bandwidth,
    predicted_thd,
    total_unit_vector_thd,
)
from hgipll.design import THD_COMPARE_DECIMALS, steady_thd
from hgipll import design as design_mod, hgi
from hgipll.hgi import (DESIGN_SETTLING_DT, NOMINAL_OMEGA0, _settling_grids,
                        design_settling_times, k_grid, settling_times)
from hgipll.thd import unit_vector_thd
from conftest import ripple_terms

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "hgipll" / "scenarios"
W0 = 2 * math.pi * 50.0

phases = st.floats(-math.pi, math.pi)
harmonics = st.lists(
    st.tuples(st.integers(2, 25), st.floats(0.0, 0.2), phases), max_size=5)


@settings(max_examples=300)
@given(
    k=st.floats(0.1, 4.0),
    f_bw=st.floats(5.0, 100.0),
    rel_freq=st.floats(0.5, 1.5, exclude_min=True, exclude_max=True),
    amplitude=st.floats(0.1, 2.0),
    phase=phases,
    components=harmonics,
)
def test_kernel_matches_scalar_oracle(k, f_bw, rel_freq, amplitude, phase,
                                      components):
    spec = GridSignalSpec(
        fundamental_amplitude=amplitude,
        fundamental_frequency=50.0 * rel_freq,
        fundamental_phase=phase,
        harmonics=tuple(HarmonicComponent(*c) for c in components),
    )
    hgi, pi = HgiParams(k), pi_from_bandwidth(f_bw)
    expected = oracle.total_unit_vector_thd(spec, hgi, pi)
    assert total_unit_vector_thd(spec, hgi, pi) == pytest.approx(
        expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
@pytest.mark.parametrize("k,f_bw", [(1.56, 55.0), (1.56, 29.5), (0.7, 40.0)])
def test_terms_and_breakdown_match_oracle(name, k, f_bw):
    spec = load_scenario(SCENARIOS / f"{name}.json").without_events()
    hgi, pi = HgiParams(k), pi_from_bandwidth(f_bw)
    terms = ripple_terms(
        k, pi.kp, pi.ki, 2 * math.pi * spec.fundamental_frequency,
        [(c.order, c.amplitude, c.phase) for c in spec.harmonics],
        spec.fundamental_amplitude, spec.fundamental_phase)
    got = [(o, abs(r), np.angle(r)) for o, r, present in terms if present]
    want = oracle.unit_vector_ripple_terms(spec, hgi, pi)
    assert [o for o, _, _ in got] == [t.output_order for t in want]
    for (_, a, phi), w in zip(got, want):
        assert a == pytest.approx(w.a, rel=1e-12, abs=1e-15)
        assert math.remainder(phi - w.phi, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-9)
    rows = harmonic_breakdown(spec, hgi, pi)
    ref = oracle.harmonic_breakdown(spec, hgi, pi)
    assert [r[0] for r in rows] == [r[0] for r in ref]
    for (_, a, p), (_, ra, rp) in zip(rows, ref):
        assert a == pytest.approx(ra, rel=1e-12, abs=1e-15)
        if ra > 1e-12:
            assert math.remainder(p - rp, 2 * math.pi) == pytest.approx(
                0.0, abs=1e-9)


def _sequence_pair(hgi, order, amplitude, phase, omega):
    """Positive- and negative-sequence alpha phasors of one input
    component after the HGI, formed as the scalar oracle forms them."""
    gains = [amplitude * g * cmath.exp(1j * phase)
             for g in freq_response(hgi, order * omega)]
    (pos, _), (neg, _) = oracle.sequence_decompose(
        *(Phasor(abs(z), cmath.phase(z), order) for z in gains))
    return pos, neg


def test_scalar_ripple_functions_match_oracle():
    # ripple_terms term by term against the scalar oracle functions
    hgi = HgiParams(1.56)
    for f_bw in (29.5, 55.0):
        pi = pi_from_bandwidth(f_bw)
        for f in (26.0, 46.0, 50.0, 54.0, 74.0):
            omega = 2 * math.pi * f
            [(order, r, _)] = ripple_terms(hgi.k, pi.kp, pi.ki, omega)
            u3, phi = abs(r), np.angle(r)
            rterm, ru3 = oracle.freq_dev_ripple(hgi, pi, omega)
            assert order == rterm.output_order
            assert (float(u3), float(phi)) == pytest.approx(
                (ru3, rterm.phi), rel=1e-12, abs=1e-15)
        omega = 2 * math.pi * 47
        v_1plus, _ = _sequence_pair(hgi, 1, 0.98, -0.2, omega)
        for h in (2, 3, 7):
            terms = ripple_terms(hgi.k, pi.kp, pi.ki, omega, [(h, 0.01, 0.4)],
                                 0.98, -0.2)
            sequences = zip(("positive", "negative"),
                            _sequence_pair(hgi, h, 0.01, 0.4, omega))
            want = [t for seq, p in sequences
                    for t in oracle.harmonic_ripple(
                        h, seq, p.amplitude, p.phase, v_1plus.amplitude,
                        v_1plus.phase, pi, omega)]
            assert [(o, float(abs(r)), float(np.angle(r)))
                    for o, r, _ in terms[1:]] == [
                pytest.approx((t.output_order, t.a, t.phi), rel=1e-12)
                for t in want]


#: Below this |cos(c)| the oracle's magnitude/phase form loses about
#: 1e-16/|cos(c)| relative, and the deviation term's amplitude is checked
#: against the 40-digit value instead.
_DEVIATION_COS_C_BOUND = 1e-2


@settings(max_examples=300)
@given(
    k=st.floats(0.1, 4.0),
    f_bw=st.floats(5.0, 100.0),
    rel_freq=st.floats(0.5, 1.5, exclude_min=True, exclude_max=True),
)
# cos(c) = -4.35e-6: the oracle is 2.1e-13 off the 40-digit value, which
# the kernel matches
@example(k=1.8375291342946605, f_bw=100.0, rel_freq=0.970703125)
def test_deviation_term_matches_oracle(k, f_bw, rel_freq):
    # the order-3 deviation term alone, against the old closed form
    pi = pi_from_bandwidth(f_bw)
    omega = W0 * rel_freq
    [(order, r, _)] = ripple_terms(k, pi.kp, pi.ki, omega)
    u3, phi = abs(r), np.angle(r)
    rterm, ru3 = oracle.freq_dev_ripple(HgiParams(k), pi, omega)
    assert order == rterm.output_order == 3
    ga, gb = freq_response(HgiParams(k), omega)
    if abs(math.cos(_ripple_angle(pi.kp, pi.ki, 2 * omega,
                                  (ga - 1j * gb) / 2))) < (
            _DEVIATION_COS_C_BOUND):
        mp = pytest.importorskip("mpmath")
        ru3 = _mp_ripple_amplitude(mp, k, pi.kp, pi.ki, omega, 1, "negative")
    assert float(u3) == pytest.approx(ru3, rel=0, abs=1e-13)
    if u3 > 1e-12:
        assert math.remainder(float(phi) - rterm.phi, 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-9))


def _mp_ripple_amplitude(mp, k, kp, ki, omega, order, sequence, v_h=0.0,
                         gamma=0.0, amplitude=1.0, phase=0.0):
    """|a_h| of the magnitude/phase ratio 0.5*|z|*m*cos(c) / (cos(phi_h)
    + A*cos(phi_h + x)), c = x + arg(z), at 40 digits from the same float
    inputs as ``ripple_terms``; order 1 is the deviation term of a unit
    fundamental."""
    with mp.workdps(40):
        j = mp.mpc(0, 1)
        k, kp, ki, omega, v_h, gamma, amplitude, phase, w0 = map(
            mp.mpf, (k, kp, ki, omega, v_h, gamma, amplitude, phase, W0))

        def gains(w):
            s = j * w
            den = s * s + k * w0 * s + w0 * w0
            return k * s * w0 / den, -k * s * s / den

        ga, gb = gains(omega)
        if order == 1:
            v1p, z, n = (ga + j * gb) / 2, (ga - j * gb) / 2, 2
        else:
            v1p = amplitude * mp.expj(phase) * (ga + j * gb) / 2
            gah, gbh = gains(order * omega)
            sign, n = (1, order - 1) if sequence == "positive" else (-1, order + 1)
            z = v_h * mp.expj(gamma) * (gah + sign * j * gbh) / 2
        w = n * omega
        g = ki / (w * w) + j * kp / w
        m, x = abs(g), mp.arg(g)
        a_coef = m * abs(v1p) * mp.cos(mp.arg(v1p))
        alpha, beta = 1 + a_coef * mp.cos(x), a_coef * mp.sin(x)
        c = x + mp.arg(z)
        phi = mp.atan2(alpha * mp.sin(c) - beta * mp.cos(c),
                       beta * mp.sin(c) + alpha * mp.cos(c))
        a = abs(z) * m * mp.cos(c) / 2 / (mp.cos(phi) + a_coef * mp.cos(phi + x))
        return float(abs(a))


def _ripple_angle(kp, ki, w, z):
    """x + arg(z): the loop-gain phase at w plus the component's phase."""
    return math.atan2(kp / w, ki / (w * w)) + cmath.phase(z)


def test_ripple_amplitude_exact_where_ratio_is_0_over_0():
    # the magnitude/phase form divides cos(c) by a factor that vanishes
    # with it; at |cos(c)| = 1e-7 it loses about 1e-16/1e-7 relative
    mp = pytest.importorskip("mpmath")
    hgi = HgiParams(1.56)
    for f_bw in (29.5, 55.0):
        pi = pi_from_bandwidth(f_bw)
        for f in (46.0, 50.0, 54.0):
            omega = 2 * math.pi * f
            for order in (3, 5, 7):
                ga, gb = freq_response(hgi, order * omega)
                for i, (sequence, n, z0) in enumerate((
                        ("positive", order - 1, (ga + 1j * gb) / 2),
                        ("negative", order + 1, (ga - 1j * gb) / 2))):
                    for c in (math.pi / 2 + 1e-7, -math.pi / 2 - 1e-7):
                        gamma = math.remainder(
                            c - _ripple_angle(pi.kp, pi.ki, n * omega, z0),
                            2 * math.pi)
                        terms = ripple_terms(hgi.k, pi.kp, pi.ki, omega,
                                             [(order, 0.2, gamma)], 0.98, -0.2)
                        want = _mp_ripple_amplitude(
                            mp, hgi.k, pi.kp, pi.ki, omega, order, sequence,
                            0.2, gamma, 0.98, -0.2)
                        assert abs(terms[1 + 2 * i][1]) == pytest.approx(
                            want, rel=1e-12), (f_bw, f, order, sequence, c)
    # the deviation term reaches c = +-pi/2 just below nominal frequency
    for k, f_bw in ((1.56, 55.0), (3.0, 100.0)):
        pi = pi_from_bandwidth(f_bw)

        def cos_c(omega):
            ga, gb = freq_response(HgiParams(k), omega)
            return math.cos(_ripple_angle(pi.kp, pi.ki, 2 * omega,
                                          (ga - 1j * gb) / 2))

        for target in (1e-7, -1e-7):
            lo, hi = 0.9 * W0, 0.9999 * W0
            side = cos_c(lo) > target
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if (cos_c(mid) > target) == side else (lo, mid)
            [(_, r, _)] = ripple_terms(k, pi.kp, pi.ki, lo)
            want = _mp_ripple_amplitude(mp, k, pi.kp, pi.ki, lo, 1, "negative")
            assert abs(r) == pytest.approx(want, rel=1e-12), (k, f_bw, target)


@settings(max_examples=200)
@given(
    k=st.floats(0.1, 4.0),
    f_bw=st.floats(5.0, 100.0),
    rel_freq=st.floats(0.55, 1.45),
    amplitude=st.floats(0.1, 2.0),
    phase=phases,
    # orders 2-15: a positive-sequence h and a negative-sequence h - 2
    # share the loop multiple h - 1
    components=st.lists(
        st.tuples(st.integers(2, 15), st.floats(0.0, 0.2), phases),
        min_size=1, max_size=6),
)
@example(k=1.56, f_bw=29.5, rel_freq=0.92, amplitude=1.0, phase=0.0,
         components=[(3, 0.0, 0.0), (5, 0.02, 0.3), (7, 0.01, -1.0)])
@example(k=1.56, f_bw=55.0, rel_freq=1.0, amplitude=1.0, phase=0.0,
         components=[(3, 0.04, 0.0), (5, 0.024, 0.0), (7, 0.017, 0.0),
                     (9, 0.013, 0.0)])
def test_grouped_sums_equal_per_term_phasors(k, f_bw, rel_freq, amplitude,
                                             phase, components):
    # the kernel's two views: unit_vector_thd sums each loop multiple's
    # components before its loop factor, ripple_terms lists every term
    spec = GridSignalSpec(
        fundamental_amplitude=amplitude,
        fundamental_frequency=50.0 * rel_freq,
        fundamental_phase=phase,
        harmonics=tuple(HarmonicComponent(*c) for c in components),
    )
    pi = pi_from_bandwidth(f_bw)
    args = (k, pi.kp, pi.ki, 2 * math.pi * spec.fundamental_frequency,
            components, amplitude, phase)
    terms = ripple_terms(*args)
    by_order, scale = {}, {}
    for o, r, _ in terms:
        by_order[o] = by_order.get(o, 0j) + complex(r)
        scale[o] = scale.get(o, 0.0) + abs(complex(r))
    want = 100 * math.sqrt(sum(abs(z) ** 2 for o, z in by_order.items()
                               if o >= 2))
    # where phasors of one order cancel, the two summation orders part by
    # rounding relative to the phasors, not to their sum
    uncancelled = 100 * math.sqrt(sum(a ** 2 for o, a in scale.items()
                                      if o >= 2))
    assert float(unit_vector_thd(*args)) == pytest.approx(
        want, rel=1e-13, abs=1e-13 * uncancelled)
    rows = harmonic_breakdown(spec, HgiParams(k), pi)
    assert [o for o, _, _ in rows] == sorted({o for o, _, p in terms if p})


def test_grid_evaluation_matches_single_points():
    c = DesignConstraints()
    pi = pi_from_bandwidth(55.0)
    freqs, thds = np.array([46.0, 50.0, 53.3]), np.array([0.0, 0.025, 0.05])
    grid = steady_thd(1.56, pi.kp, pi.ki, freqs[:, None], thds)
    for i, f in enumerate(freqs):
        for j, h in enumerate(thds):
            assert grid[i, j] == pytest.approx(
                predicted_thd(1.56, 55.0, f, h, c), rel=1e-14, abs=1e-15)
            assert grid[i, j] == pytest.approx(
                oracle.predicted_thd(1.56, 55.0, f, h, c), rel=1e-12, abs=1e-12)


def test_one_point_call_rounds_as_the_design_cube():
    # alone, this point took numpy's one-element complex arithmetic and
    # read ...1022, where the cube's vector loops read ...1024
    pi = pi_from_bandwidth(48.328125)
    cube = steady_thd(np.array([1.6, 1.65]), pi.kp, pi.ki, 50.0, 0.0625)
    point = predicted_thd(1.6, 48.328125, 50.0, 0.0625, DesignConstraints())
    assert point == cube[0] == 1.1306723372001024


def _with(values, i, value):
    return np.array(values[:i] + [value] + values[i:])


@settings(max_examples=60)
@given(
    k=st.floats(0.1, 4.0),
    f_bw=st.floats(10.0, 80.0),
    f=st.floats(46.0, 54.0),
    input_thd=st.floats(0.0, 0.1),
    ks=st.lists(st.floats(0.1, 4.0), max_size=3),
    f_bws=st.lists(st.floats(10.0, 80.0), max_size=2),
    fs=st.lists(st.floats(46.0, 54.0), max_size=3),
    data=st.data(),
)
def test_a_point_alone_equals_the_point_in_a_grid(k, f_bw, f, input_thd, ks,
                                                  f_bws, fs, data):
    # the (bandwidth x frequency x k) layout of the design cube, the point
    # at a drawn place on each axis; alone, as scalars or as one-element
    # arrays of that layout, it gets the same bits
    pi = pi_from_bandwidth(f_bw)
    alone = predicted_thd(k, f_bw, f, input_thd, DesignConstraints())
    kp, ki = design_mod._pi_gains(np.array([f_bw]))
    cube_of_one = steady_thd(np.array([k]), kp, ki, np.array([[f]]), input_thd)
    assert cube_of_one.shape == (1, 1, 1)
    i, j, m = (data.draw(st.integers(0, len(x))) for x in (f_bws, fs, ks))
    kp, ki = design_mod._pi_gains(_with(f_bws, i, f_bw))
    grid = steady_thd(_with(ks, m, k), kp, ki, _with(fs, j, f)[:, None],
                      input_thd)
    assert alone == cube_of_one[0, 0, 0] == grid[i, j, m]
    assert alone == float(steady_thd(k, pi.kp, pi.ki, f, input_thd))


def test_settling_times_equal_oracle_on_whole_grids():
    # every k of the design grid, and a dense band around the repeated
    # root (k = 2)
    near_critical = np.concatenate([np.linspace(1.95, 2.05, 101),
                                    2.0 + np.array([-1e-6, -1e-9, 1e-9, 1e-6])])
    for k in np.concatenate([k_grid(0.1, 4.0, 0.01), near_critical]):
        params = HgiParams(float(k))
        assert settling_times(params) == oracle.settling_times(params), k


def _settling_or_unsettled(settle, params):
    try:
        return settle(params)
    except (ValueError, RuntimeError):
        return "unsettled"


@settings(max_examples=60)
@given(k=st.floats(math.log(0.0249), math.log(314.0)).map(math.exp))
def test_settling_times_equal_oracle_property(k):
    # the gains the slow-pole guard accepts (0.0064 < k < 314.2) from the
    # first that settles within the 1 s horizon: the table and the
    # one-gain call give the oracle's whole-grid times bit for bit, and
    # refuse what the oracle finds unsettled
    params = HgiParams(k)
    want = _settling_or_unsettled(oracle.settling_times, params)
    assert _settling_or_unsettled(settling_times, params) == want
    table = _settling_or_unsettled(
        lambda p: tuple(design_settling_times([p.k])), params)
    assert table == (want if want == "unsettled" else (want[2],))


def _lobe_top_and_grid_hit(k, dt, channel, m):
    """Analytic top of lobe m of one underdamped step response, relative to
    the band of the whole grid, and whether a grid point of that lobe lies
    outside the band."""
    sigma, wd = k * W0 / 2, W0 * math.sqrt(4 - k * k) / 2
    theta = math.atan(sigma / wd)
    if channel == 0:
        top = (math.pi / 2 - theta + m * math.pi) / wd
        start, end = m * math.pi / wd, (m + 1) * math.pi / wd
    else:
        top = (m * math.pi - 2 * theta) / wd
        start = ((m - 0.5) * math.pi - theta) / wd
        end = ((m + 0.5) * math.pi - theta) / wd
    horizon = min(1.0, 12 / sigma + 0.005)
    t = np.arange(0.0, horizon, dt)
    y = np.abs(oracle.step_responses(HgiParams(k), t)[channel])
    band = 0.02 * y.max()
    lobe = (t > start) & (t < end)
    return k * math.exp(-sigma * top) / band - 1, bool((y[lobe] > band).any())


@pytest.mark.parametrize("k,channel,m", [
    # the top clears the band by 1e-8, between two grid points
    (1.057087894067627, 0, 2),
    (0.7667304352784301, 0, 3),
    (1.2409436010374497, 1, 2),
    # the top clears the band by about 1e-15
    (1.5594065360937428, 0, 1),
    (1.0570878960149146, 0, 2),
    (1.2409436034664305, 1, 2),
])
def test_settling_lobe_top_just_above_the_band(k, channel, m):
    # the last lobe whose top exceeds the band has no grid point outside
    # it, so the last exit is read from the lobe before
    excess, hit = _lobe_top_and_grid_hit(k, 2e-6, channel, m)
    assert 0 < excess < 2e-8
    assert not hit
    params = HgiParams(k)
    assert settling_times(params) == oracle.settling_times(params)


@pytest.mark.parametrize("k", [0.0249, 0.02491, 0.025, 0.03])
def test_settling_last_exit_near_the_horizon(k):
    # below k = 0.0249048 a lobe above the band reaches past the last grid
    # point before the 1 s horizon; just above it the last exit is at 0.996 s
    params = HgiParams(k)
    if k < 0.0249048:
        with pytest.raises(ValueError, match=re.escape(
                f"k = {k:g} does not settle within 1 s")):
            settling_times(params)
        with pytest.raises(RuntimeError):
            oracle.settling_times(params)
    else:
        got = settling_times(params)
        assert 0.8 < got[2] < 1.0
        assert got == oracle.settling_times(params)


#: gains of every kind the settling table meets: underdamped, the repeated
#: root k = 2 exactly and within 1e-9 of it, and overdamped up to k = 8
table_gains = st.one_of(
    st.floats(0.1, 2.0, exclude_max=True),
    st.just(2.0),
    st.floats(-1e-9, 1e-9).map(lambda d: 2.0 + d),
    st.floats(2.0, 8.0, exclude_min=True),
)


@settings(max_examples=25)
@given(ks=st.lists(table_gains, min_size=1, max_size=8).flatmap(st.permutations))
def test_settling_table_equals_oracle_per_gain(ks):
    # one array pass over a shuffled mix of gains gives each gain the
    # oracle's whole-grid settling time
    table = design_settling_times(ks)
    assert table.shape == (len(ks),)
    for got, gain in zip(table, ks):
        assert got == oracle.settling_times(HgiParams(gain))[2], gain


def test_settling_table_of_no_gains_is_empty():
    table = design_settling_times([])
    assert isinstance(table, np.ndarray) and table.shape == (0,)


@pytest.mark.parametrize("ks,first", [
    ([1.56, 0.01, 2.5], 0.01),
    ([1.56, 3.0, 1e-320, 0.01], 1e-320),
    ([0.5, 0.0249, 1e-320], 0.0249),
    ([2.0, 1e306, 0.0249, 1.0], 1e306),
])
def test_settling_table_raises_for_the_first_unsettled_gain(ks, first):
    # the table names the first gain in array order that does not settle,
    # whether it is refused before its pole arithmetic (1e-320, 1e306) or
    # found unsettled at the end of its grid (0.01, 0.0249), and not a
    # later offending gain of either kind
    message = f"k = {first:g} does not settle within 1 s"
    with pytest.raises(ValueError, match=re.escape(message)):
        settling_times(HgiParams(first))
    with pytest.raises(ValueError, match=re.escape(message)):
        design_settling_times(ks)


def _grid_length(k):
    """Length of the settling grid of the gain k."""
    _, (n,), _ = _settling_grids(np.array([k]), NOMINAL_OMEGA0)
    return n


def test_settling_grid_length_is_arange_length():
    ks = k_grid(0.1, 4.0, 0.01)
    horizons, lengths, error = _settling_grids(ks, NOMINAL_OMEGA0)
    assert error is None and len(lengths) == len(ks)
    for k, horizon, n in zip(ks, horizons, lengths):
        assert n == len(np.arange(0.0, horizon, DESIGN_SETTLING_DT)), k


def _evaluated_points(monkeypatch, settle, *args):
    """Grid points of each closed-form step-response evaluation of
    ``settle(*args)``, counted at the three closed forms, whether the
    module or a damping kind's ``form`` calls them."""
    counts = []
    for name in ("_complex_pair", "_real_pair", "_repeated_root"):
        form = getattr(hgi, name)

        def counted(sigma, root, t, form=form):
            counts.append(t.size)
            return form(sigma, root, t)

        monkeypatch.setattr(hgi, name, counted)
        for kind in vars(hgi).values():
            if isinstance(kind, type) and getattr(
                    vars(kind).get("form"), "__func__", None) is form:
                monkeypatch.setattr(kind, "form", staticmethod(counted))
    settle(*args)
    monkeypatch.undo()
    return counts


def test_settling_evaluates_logarithmically_many_points(monkeypatch):
    # each channel takes the two grid points around its peak and around
    # the top of its last lobe above the band, a bisection over the grid
    # indices of that lobe's fall, and a closed-form lobe top or two: about
    # 1.5*log2(n) points of its grid of n, the repeated root k = 2 included
    grid = k_grid(0.1, 4.0, 0.01)
    log_n = np.log2([_grid_length(k) for k in grid])
    for k, bits in zip(grid, log_n):
        counts = _evaluated_points(monkeypatch, settling_times,
                                   HgiParams(float(k)))
        assert sum(counts) <= 3 * bits, k
    # the whole table at once: each damping kind evaluates all its rows in
    # one call per step, so the call count does not grow with the gains
    counts = _evaluated_points(monkeypatch, design_settling_times, grid)
    assert len(counts) <= 3 * (max(log_n) + 4)
    assert sum(counts) <= 3 * sum(log_n)


@pytest.mark.parametrize("kwargs", [
    {}, {"uthd_limit": 0.015}, {"uthd_limit": 0.0123},
])
def test_thd_threshold_is_thd_ok(kwargs):
    c = DesignConstraints(**kwargs)
    t = c.thd_threshold()
    near = [t]
    for direction in (math.inf, -math.inf):
        x = t
        for _ in range(4):
            x = math.nextafter(x, direction)
            near.append(x)
    rng = np.random.default_rng(0)
    for x in near + list(rng.uniform(0.0, 3.0, 200)) + [math.nan, math.inf]:
        assert c.thd_ok(x) == (x <= t), x


def _rounding_sample(thd: np.ndarray, decimals: int) -> np.ndarray:
    """Flat indices of every point within 1e-6 pp of a rounding boundary,
    the point closest to each boundary, and a strided subset of about 200
    of the rest."""
    flat = thd.ravel()
    scaled = flat * 10**decimals
    distance = np.abs(scaled - np.floor(scaled) - 0.5) / 10**decimals
    picked = set(np.flatnonzero(distance < 1e-6))
    boundary = np.floor(scaled)
    for b in np.unique(boundary):
        members = np.flatnonzero(boundary == b)
        picked.add(members[np.argmin(distance[members])])
    picked.update(range(0, flat.size, max(1, flat.size // 200)))
    return np.array(sorted(picked))


@pytest.mark.parametrize("constraints,ks", [
    (DesignConstraints(delta_f=0.08, uthd_limit=0.01), np.array([1.56])),
    (DesignConstraints(delta_f=0.08, input_thd=0.05, uthd_limit=0.01),
     k_grid(0.1, 4.0, 0.01)),
], ids=["criterion2", "criterion3"])
def test_feasibility_mask_matches_thd_ok_at_rounding_boundaries(constraints, ks):
    freqs = np.array(constraints.sweep_frequencies())
    f_bws = constraints.bandwidth_grid()
    cube = np.empty((len(f_bws), len(ks), len(freqs)))
    for i, f_bw in enumerate(f_bws):
        pi = pi_from_bandwidth(f_bw)
        cube[i] = steady_thd(ks[:, None], pi.kp, pi.ki, freqs,
                             constraints.input_thd)
    # the design mask is the per-point mask reduced over the band
    worst, _ = oracle.band_worst_thd(ks, f_bws, constraints)
    assert np.array_equal(worst, cube.max(axis=2))
    mask = cube <= constraints.thd_threshold()
    picked = _rounding_sample(cube, THD_COMPARE_DECIMALS)
    assert len(picked) >= min(cube.size, 200)
    for i, j, m in zip(*np.unravel_index(picked, cube.shape)):
        want = oracle.predicted_thd(float(ks[j]), f_bws[i], freqs[m],
                                    constraints.input_thd, constraints)
        assert mask[i, j, m] == constraints.thd_ok(want), (f_bws[i], ks[j],
                                                          freqs[m], want)


def _same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == w[0] and g[2] == w[2] and g[3] == w[3]
        assert g[1] == w[1] or (math.isnan(g[1]) and math.isnan(w[1]))


@pytest.mark.parametrize("procedure,sweep,constraints", [
    (mtsd_design, oracle.mtsd_sweep,
     DesignConstraints(k_range=(1.3, 1.9), f_bw_range=(45.0, 58.0),
                       f_bw_step=1.0)),
    (hc_mtsd_design, oracle.hc_mtsd_sweep,
     DesignConstraints(input_thd=0.05, k_range=(1.0, 2.2), k_step=0.04,
                       f_bw_range=(24.0, 36.0), f_bw_step=1.0)),
], ids=["mtsd", "hc-mtsd"])
def test_design_procedures_match_point_by_point_oracle(procedure, sweep,
                                                       constraints):
    design, report = procedure(constraints)
    swept, (k, f_bw, t_s_hgi) = sweep(constraints)
    _same_rows(report.swept, swept)
    feasible = [row[0] for row in report.swept if row[3]]
    assert feasible == [row[0] for row in swept if row[3]] and feasible
    assert (design.k, design.f_bw, design.t_s_hgi) == (k, f_bw, t_s_hgi)
    # the reported binding point is the chosen design's worst band THD
    band = [oracle.predicted_thd(k, f_bw, f, constraints.input_thd,
                                 constraints)
            for f in constraints.sweep_frequencies()]
    assert report.worst_thd == pytest.approx(max(band), rel=1e-12)
    assert report.binding_hz == constraints.sweep_frequencies()[
        int(np.argmax(band))]


def _cube_procedure(constraints):
    """Both procedures at ``constraints`` by ``oracle.cube_sweep``:
    (method, procedure, its constraints, swept rows, chosen point or
    None) each; the deviation-only one runs at input THD 0."""
    ks = k_grid(*constraints.k_range, constraints.k_step)
    ts = design_settling_times(ks)
    k_opt, t_s_hgi = hgi.k_opt_search(constraints.k_range, constraints.k_step)
    clean = dataclasses.replace(constraints, input_thd=0.0)
    return [
        ("hc-mtsd", hc_mtsd_design, constraints,
         *oracle.cube_sweep(ks, ts, constraints,
                            lambda f_bw, t: (f_bw, math.nan, math.inf, False))),
        ("mtsd", mtsd_design, clean,
         *oracle.cube_sweep(np.array([k_opt]), np.array([t_s_hgi]), clean,
                            lambda f_bw, t: (f_bw, k_opt, t_s_hgi + t, False))),
    ]


@settings(max_examples=100, deadline=None)
@given(
    # one band frequency (delta_f = 0) makes one-point kernel calls likely
    delta_f=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
    input_thd=st.floats(0.0, 0.1),
    uthd_limit=st.floats(0.002, 0.02),
    f_bw_lo=st.floats(10.0, 60.0),
    f_bw_span=st.floats(0.0, 80.0),
    f_bw_step=st.sampled_from([0.5, 1.0, 2.0]),
    k_lo=st.floats(0.1, 2.0),
    k_span=st.floats(0.0, 2.0),
    k_step=st.sampled_from([0.01, 0.02, 0.05]),
)
# a partly infeasible grid (14 of 201 rows), a wholly infeasible one, two
# gains of equal settling time, where the smaller k wins, and one
# bandwidth at one frequency, with 21 gains and with one
@example(delta_f=0.08, input_thd=0.05, uthd_limit=0.01, f_bw_lo=20.0,
         f_bw_span=100.0, f_bw_step=0.5, k_lo=0.1, k_span=3.9, k_step=0.01)
@example(delta_f=0.08, input_thd=0.05, uthd_limit=0.001, f_bw_lo=20.0,
         f_bw_span=35.0, f_bw_step=0.5, k_lo=0.1, k_span=3.9, k_step=0.01)
@example(delta_f=0.08, input_thd=0.05, uthd_limit=0.01, f_bw_lo=20.0,
         f_bw_span=35.0, f_bw_step=0.5, k_lo=1.28, k_span=0.05, k_step=0.05)
@example(delta_f=0.0, input_thd=0.0625, uthd_limit=0.015625,
         f_bw_lo=48.328125, f_bw_span=0.0, f_bw_step=0.5, k_lo=1.0,
         k_span=1.0, k_step=0.05)
@example(delta_f=0.0, input_thd=0.0625, uthd_limit=0.015625,
         f_bw_lo=48.328125, f_bw_span=0.0, f_bw_step=0.5, k_lo=1.6,
         k_span=0.0, k_step=0.05)
def test_design_search_equals_whole_cube_argmin(delta_f, input_thd, uthd_limit,
                                                f_bw_lo, f_bw_span, f_bw_step,
                                                k_lo, k_span, k_step):
    # the search in settling order picks what the masked argmin over the
    # whole cube picks, down to the bits of the binding point's THD
    constraints = DesignConstraints(
        delta_f=delta_f, input_thd=input_thd, uthd_limit=uthd_limit,
        f_bw_range=(f_bw_lo, f_bw_lo + f_bw_span), f_bw_step=f_bw_step,
        k_range=(k_lo, min(4.0, k_lo + k_span)), k_step=k_step)
    for method, procedure, c, swept, chosen in _cube_procedure(constraints):
        if chosen is None:
            with pytest.raises(InfeasibleDesignError):
                procedure(c)
            continue
        design, report = procedure(c)
        _same_rows(report.swept, swept)
        k, f_bw, worst, binding = chosen
        assert design == build_design(k, f_bw, method)
        assert (report.worst_thd, report.binding_hz) == (worst, binding)


def test_design_search_evaluates_to_first_feasible_only(monkeypatch):
    # the published constraints: the harmonic-aware search stops well
    # short of the 71 x 391 x 5 cube, and the deviation-only one, with
    # its one gain, evaluates each of its 71 bandwidths' 5 frequencies once
    counts = []

    def counted(*args):
        thd = steady_thd(*args)
        counts.append(thd.size)
        return thd

    monkeypatch.setattr(design_mod, "steady_thd", counted)
    hc_mtsd_design(DesignConstraints(input_thd=0.05))
    assert sum(counts) <= 75_000
    counts.clear()
    mtsd_design(DesignConstraints())
    assert sum(counts) == 355


#: The published constraints of both procedures, then the @example rows
#: of ``test_design_search_equals_whole_cube_argmin`` as (delta_f,
#: input_thd, uthd_limit, f_bw_range, f_bw_step, k_range, k_step).
_SLAB_CASES = [DesignConstraints(input_thd=0.05), DesignConstraints()] + [
    DesignConstraints(delta_f=d, input_thd=h, uthd_limit=u, f_bw_range=fr,
                      f_bw_step=fs, k_range=kr, k_step=ks)
    for d, h, u, fr, fs, kr, ks in [
        (0.08, 0.05, 0.01, (20.0, 120.0), 0.5, (0.1, 4.0), 0.01),
        (0.08, 0.05, 0.001, (20.0, 55.0), 0.5, (0.1, 4.0), 0.01),
        (0.08, 0.05, 0.01, (20.0, 55.0), 0.5, (1.28, 1.33), 0.05),
        (0.0, 0.0625, 0.015625, (48.328125, 48.328125), 0.5, (1.0, 2.0),
         0.05),
        (0.0, 0.0625, 0.015625, (48.328125, 48.328125), 0.5, (1.6, 1.6),
         0.05),
    ]]


def _search_bits(procedure, constraints):
    """What ``procedure`` returns at ``constraints``, its floats as bits,
    or the infeasible error's message."""
    try:
        design, report = procedure(constraints)
    except InfeasibleDesignError as exc:
        return str(exc)
    swept = [np.array(row[:3]).tobytes() + bytes([row[3]])
             for row in report.swept]
    return (design, swept,
            np.array([report.worst_thd, report.binding_hz]).tobytes())


@pytest.mark.parametrize("constraints", _SLAB_CASES)
def test_design_search_does_not_depend_on_the_slab_size(monkeypatch,
                                                        constraints):
    # each slab size cuts the rounds into other kernel calls, and every
    # pick, swept row, worst THD and binding frequency keeps its bits
    clean = dataclasses.replace(constraints, input_thd=0.0)
    results = []
    for points in (2 ** 10, design_mod.THD_SLAB_POINTS, 2 ** 15):
        monkeypatch.setattr(design_mod, "THD_SLAB_POINTS", points)
        results.append((_search_bits(hc_mtsd_design, constraints),
                        _search_bits(mtsd_design, clean)))
    assert results[0] == results[1] == results[2]


def test_design_search_traced_peak_memory():
    # the published harmonic-aware search, once its caches are warm,
    # allocates at most 2.5 MB at a time (4.6 MB with 2**15-point slabs)
    constraints = DesignConstraints(input_thd=0.05)
    hc_mtsd_design(constraints)
    tracemalloc.start()
    try:
        hc_mtsd_design(constraints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
