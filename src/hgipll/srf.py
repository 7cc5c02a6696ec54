"""Embedded synchronous-reference-frame PLL.

The quadrature pair from the HGI is rotated into the dq frame; a PI
controller plus integrator drives the d-axis error to zero, producing the
frequency and phase estimates and the unit vectors sin/cos(theta_e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import EXACT, SampleError, bind_pass
from .signal_model import NOMINAL_OMEGA0, TWO_PI

#: Per-sample arithmetic budget of the loop update, trig lookups excluded.
SRF_MULS_PER_STEP = 7
SRF_ADDS_PER_STEP = 6

#: Sample period of the published designs (20 kHz).
SAMPLE_PERIOD = 50e-6


@dataclass(frozen=True)
class PiParams:
    """PI controller gains of the phase loop.

    ``ki`` is the continuous-equivalent integral gain; its design value
    carries an explicit sample-period factor (see ``pi_from_bandwidth``),
    so the discrete integrator increments by ``ki * sample_period * error``
    each sample.
    """

    kp: float
    ki: float
    sample_period: float

    def __post_init__(self):
        if not (0 < self.kp < math.inf and 0 < self.ki < math.inf):
            raise ValueError("kp and ki must be finite and > 0")
        if not 0 < self.sample_period < math.inf:
            raise ValueError("sample_period must be finite and > 0")


def pi_from_bandwidth(f_bw: float,
                      sample_period: float = SAMPLE_PERIOD) -> PiParams:
    """PI gains for a target loop bandwidth.

    kp = w_bw / V_m and ki = kp * Ts * w_bw^2 for the 1 pu input peak
    V_m, which places the PI zero low enough that the closed loop settles
    in about 4 / w_bw.
    """
    if not 0 < f_bw < math.inf:
        raise ValueError("f_bw must be finite and > 0")
    kp = w_bw = TWO_PI * f_bw
    try:
        ki = kp * sample_period * w_bw**2
    except OverflowError:
        # a float ** raises past about 2.1e153 Hz; PiParams refuses the
        # gain as it refuses any other non-finite one
        ki = math.inf
    return PiParams(kp=kp, ki=ki, sample_period=sample_period)


def srf_settling_time(omega_bw: float) -> float:
    """Settling time of the phase loop, 4 / bandwidth."""
    if not omega_bw > 0:
        raise ValueError("omega_bw must be > 0")
    return 4.0 / omega_bw


class SrfPll:
    """Discrete SRF-PLL loop: Park transform, PI, phase integrator.

    The loop runs in per-unit of the nominal frequency: the PI output is
    the relative frequency deviation, added to the feedforward 1.0 pu.
    Per-sample cost is 7 multiplications and 6 additions, trig excluded.
    ``process`` runs the loop over a whole quadrature sequence; ``step``
    is its one-sample call.

    ``arith`` is an arithmetic policy (see ``hgipll.arith``), exact
    float64 by default, run through the hook-free form of ``process``
    (``arith.float64_pass``); its ``trig`` maps theta to (sin, cos).
    """

    def __init__(self, pi: PiParams, omega0: float = NOMINAL_OMEGA0,
                 arith=None):
        self.pi = pi
        self.omega0 = omega0
        q = arith if arith is not None else EXACT
        bind_pass(self, q)
        self._trig = q.trig
        self._signal = q.signal
        self._accumulator = q.accumulator
        self._phase = q.phase
        ts = pi.sample_period
        self._kp_pu = q.coeff(pi.kp / omega0)
        self._ki_pu = q.coeff(pi.ki * ts / omega0)
        # nominal phase increment per sample
        self._c_w = q.coeff(omega0 * ts)
        self.reset()

    def reset(self):
        self.theta = 0.0
        self.accumulator = 0.0
        self.deviation = 0.0             # pu frequency deviation, PI output
        self.v_d = 0.0
        self.v_q = 0.0

    def step(self, v_alpha, v_beta):
        """Advance one sample; returns the unit vectors (sin, cos) used."""
        sin, cos = [0.0], [0.0]
        # v_d, v_q, deviation and theta are kept on the loop itself
        rest = [0.0]
        self.process([v_alpha], [v_beta], rest, rest, rest, rest, sin, cos)
        return sin[0], cos[0]

    def process(self, v_alpha, v_beta, v_d, v_q, deviation, theta, sin, cos):
        """Advance over every sample of the quadrature pair, writing sample
        i's v_d, v_q, pu deviation and updated theta, and the unit vectors
        (sin, cos) it used, at index i of the six output buffers.  A sample
        whose arithmetic raises raises ``SampleError``; the state then
        stays as it was before the pass."""
        trig, signal = self._trig, self._signal
        accumulator, phase = self._accumulator, self._phase
        kp, ki, c_w = self._kp_pu, self._ki_pu, self._c_w
        th, acc = self.theta, self.accumulator
        vd, vq, dev = self.v_d, self.v_q, self.deviation
        try:
            for i, (va, vb) in enumerate(zip(v_alpha, v_beta)):
                s, c = trig(th)
                # Park transform; with v_alpha = sin(theta), v_beta =
                # -cos(theta) the d axis carries the phase error
                vd = signal(va * c + vb * s)
                vq = signal(vb * c - va * s)
                acc = accumulator(acc + ki * vd)
                dev = signal(kp * vd + acc)
                th = phase(th + c_w + c_w * dev)
                if th >= TWO_PI:
                    th -= TWO_PI         # subtraction wrap, fixed-point safe
                elif th < 0.0:
                    th += TWO_PI
                v_d[i] = vd
                v_q[i] = vq
                deviation[i] = dev
                theta[i] = th
                sin[i] = s
                cos[i] = c
        except (ValueError, OverflowError) as exc:
            raise SampleError(i) from exc
        self.theta, self.accumulator = th, acc
        self.v_d, self.v_q, self.deviation = vd, vq, dev
