import math

import numpy as np
import pytest

from hgipll import (
    PiParams,
    SrfPll,
    pi_from_bandwidth,
    srf_settling_time,
)
from hgipll.srf import NOMINAL_OMEGA0, SRF_ADDS_PER_STEP, SRF_MULS_PER_STEP
from conftest import CountingArithmetic, CountingFloat

TS = 50e-6


def test_pi_tuning_values():
    pi = pi_from_bandwidth(55.0)
    w_bw = 2 * math.pi * 55.0
    assert pi.kp == pytest.approx(w_bw)
    assert pi.ki == pytest.approx(w_bw * TS * w_bw**2)
    assert pi.ki == pytest.approx(2063.5, abs=0.5)


def test_pi_tuning_scales_with_amplitude():
    assert pi_from_bandwidth(55.0, v_m=2.0).kp == pytest.approx(
        pi_from_bandwidth(55.0).kp / 2
    )


def test_settling_time_is_4_over_bandwidth():
    assert srf_settling_time(100.0) == pytest.approx(0.04)


def test_invalid_params():
    with pytest.raises(ValueError):
        PiParams(0.0, 1.0, TS)
    for kp, ki, ts in ((math.nan, 1.0, TS), (1.0, math.inf, TS),
                       (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            PiParams(kp, ki, ts)
    with pytest.raises(ValueError):
        pi_from_bandwidth(-1.0)
    with pytest.raises(ValueError):
        srf_settling_time(0.0)


def test_park_detects_phase_error():
    # locked convention: v_alpha = sin(theta), v_beta = -cos(theta)
    theta = 0.7
    pll = SrfPll(pi_from_bandwidth(55.0))
    pll.reset(theta=theta)
    pll.step(math.sin(theta), -math.cos(theta))
    assert pll.v_d == pytest.approx(0.0, abs=1e-12)
    assert pll.v_q == pytest.approx(-1.0, abs=1e-12)
    # small phase lead shows up on the d axis
    pll.reset(theta=theta)
    pll.step(math.sin(theta + 0.01), -math.cos(theta + 0.01))
    assert pll.v_d == pytest.approx(0.01, abs=1e-4)


def test_equilibrium_at_lock():
    pll = SrfPll(pi_from_bandwidth(55.0))
    pll.reset(theta=0.0)
    n = 20000
    for _ in range(n):
        th = pll.theta
        pll.step(math.sin(th), -math.cos(th))
        assert abs(pll.v_d) < 1e-9
    assert pll.omega_e == pytest.approx(NOMINAL_OMEGA0, abs=1e-6)


@pytest.mark.parametrize("f_in", [46.0, 50.0, 54.0])
def test_frequency_estimate_unbiased_at_lock(f_in):
    # ideal quadrature input anywhere in the +/-8% band: steady-state
    # mean of the frequency estimate matches the input within 0.01 Hz
    pll = SrfPll(pi_from_bandwidth(55.0))
    w = 2 * math.pi * f_in
    n = int(1.0 / TS)
    fe = np.empty(n)
    for i in range(n):
        t = i * TS
        pll.step(math.sin(w * t), -math.cos(w * t))
        fe[i] = pll.omega_e / (2 * math.pi)
    assert np.mean(fe[n // 2:]) == pytest.approx(f_in, abs=0.01)


def test_converges_to_46hz_within_50ms():
    pll = SrfPll(pi_from_bandwidth(55.0))
    w = 2 * math.pi * 46.0
    n = int(0.05 / TS)
    for i in range(n):
        t = i * TS
        pll.step(math.sin(w * t), -math.cos(w * t))
    assert pll.omega_e == pytest.approx(w, rel=0.005)


def test_theta_stays_wrapped():
    pll = SrfPll(pi_from_bandwidth(55.0))
    for i in range(int(0.5 / TS)):
        t = i * TS
        w = NOMINAL_OMEGA0
        pll.step(math.sin(w * t), -math.cos(w * t))
        assert 0.0 <= pll.theta < 2 * math.pi


def test_step_cost_is_7_muls_6_adds():
    pll = SrfPll(pi_from_bandwidth(55.0), arith=CountingArithmetic())
    # theta = 0 keeps the wrap branch out of the count
    CountingFloat.counter.reset()
    pll.step(CountingFloat(0.1), CountingFloat(-0.99))
    assert CountingFloat.counter.muls == SRF_MULS_PER_STEP == 7
    assert CountingFloat.counter.adds == SRF_ADDS_PER_STEP == 6


def test_reset_clears_state():
    pll = SrfPll(pi_from_bandwidth(55.0))
    pll.step(0.5, -0.8)
    pll.reset()
    assert pll.theta == 0.0
    assert pll.accumulator == 0.0
    assert pll.deviation == 0.0
