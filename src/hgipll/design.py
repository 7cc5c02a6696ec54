"""Worst-case design procedures for the HGI-PLL parameters.

Two sweeps produce a complete parameter set (k, loop bandwidth, PI gains):

* ``hc_mtsd_design`` assumes a worst-case input THD and searches the
  (bandwidth, k) grid for the smallest additive settling time that keeps
  the predicted unit-vector THD within the limit for every frequency in
  the deviation band.
* ``mtsd_design`` is the same search with k fixed at the fastest-settling
  gain and harmonics ignored; the loop settling time falls with
  bandwidth, so it picks the highest feasible bandwidth.

THD feasibility is checked at the resolution the limit is stated in
(one decimal of a percent), matching how the published design
points were read off their constraint curves.  Both procedures try each
bandwidth's gains in settling order and stop at the first one whose worst
band THD meets the limit: the array-native kernel evaluates rounds of
1, 2, 4, ... candidates over the bandwidths still open.  At the published
harmonic-aware constraints that is 62,085 of the (bandwidth x k x
frequency) cube's 138,805 points.  The report keeps each bandwidth's
pick, not the cube.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hgi as hgi_mod
from .hgi import (K_RANGE, K_STEP, HgiParams, check_euler,
                  design_settling_times, k_grid, settling_times)
from .signal_model import (DEFAULT_HARMONIC_ORDERS, NOMINAL_FREQ_HZ,
                           SCHEMA_VERSION, TWO_PI, GridSignalSpec,
                           harmonic_profile, write_json)
from .srf import SAMPLE_PERIOD, PiParams, pi_from_bandwidth, srf_settling_time
from .thd import unit_vector_thd

#: Spacing (Hz) of the frequency grid over the deviation band.
BAND_FREQ_STEP_HZ = 2.0

#: Spacing (Hz) of the loop-bandwidth grid both procedures search; the
#: k grid's is ``hgi.K_STEP``.
F_BW_STEP = 0.5

#: Decimals of a percent at which THD is compared against the limit.
THD_COMPARE_DECIMALS = 1

#: Largest number of (bandwidth, k, frequency) points each round of the
#: design search passes to the THD kernel in one call.  At about 200 B a
#: point the kernel's arrays fit a 2 MB cache; smaller slabs spend more
#: on numpy's per-call overhead than they save.
THD_SLAB_POINTS = 2 ** 13


class InfeasibleDesignError(ValueError):
    """No parameter combination satisfies the THD constraint."""


@dataclass(frozen=True)
class DesignConstraints:
    """Inputs to either design procedure."""

    delta_f: float = 0.08            # max relative frequency deviation
    input_thd: float = 0.0           # worst-case input THD (fraction)
    uthd_limit: float = 0.01         # unit-vector THD limit (fraction)
    f_bw_range: tuple[float, float] = (20.0, 55.0)
    k_range: tuple[float, float] = K_RANGE

    def __post_init__(self):
        for name in ("f_bw_range", "k_range"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # written so that NaN fails them too
        if not 0 < self.uthd_limit < 1:
            raise ValueError("uthd_limit must be in (0, 1)")
        if not 0 <= self.delta_f < 0.5:
            raise ValueError("delta_f must be in [0, 0.5)")
        if not 0 <= self.input_thd < math.inf:
            raise ValueError("input_thd must be >= 0 and finite")
        if not 0 < self.f_bw_range[0] <= self.f_bw_range[1] < math.inf:
            raise ValueError("invalid f_bw_range")
        if not 0 < self.k_range[0] <= self.k_range[1] < math.inf:
            raise ValueError("invalid k_range")

    def sweep_frequencies(self) -> list[float]:
        """Deviation-band frequency grid, band edges and nominal included."""
        lo = NOMINAL_FREQ_HZ * (1 - self.delta_f)
        hi = NOMINAL_FREQ_HZ * (1 + self.delta_f)
        freqs = list(np.arange(lo, hi + 1e-9, BAND_FREQ_STEP_HZ))
        for f in (NOMINAL_FREQ_HZ, hi):
            if not any(abs(f - g) < 1e-9 for g in freqs):
                freqs.append(f)
        return sorted(freqs)

    def bandwidth_grid(self) -> np.ndarray:
        return k_grid(*self.f_bw_range, F_BW_STEP)

    def thd_ok(self, thd_percent: float) -> bool:
        limit = 100.0 * self.uthd_limit
        return round(thd_percent, THD_COMPARE_DECIMALS) <= limit + 1e-12

    def thd_threshold(self) -> float:
        """The largest THD (percent) that ``thd_ok`` accepts.

        Python's ``round`` is correctly rounded and monotone, so
        ``thd_ok(x) == (x <= thd_threshold())`` for every float x; a whole
        grid is tested with one comparison and no ``np.round``, which
        scales by 10**decimals and can differ at an x.x5 boundary.
        """
        limit = 100.0 * self.uthd_limit + 1e-12
        scale = 10.0 ** THD_COMPARE_DECIMALS
        # start at the rounding boundary above the limit, then settle on
        # the exact float where thd_ok flips
        t = (math.floor(limit * scale) + 0.5) / scale
        while not self.thd_ok(t):
            t = math.nextafter(t, -math.inf)
        while self.thd_ok(math.nextafter(t, math.inf)):
            t = math.nextafter(t, math.inf)
        return t


@dataclass(frozen=True)
class PllDesign:
    """Complete parameter set produced by a design procedure."""

    k: float
    f_bw: float
    pi: PiParams
    t_s_hgi: float
    t_s_srf: float
    t_sd: float
    method: str = ""

    @property
    def hgi(self) -> HgiParams:
        return HgiParams(self.k)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            "k": self.k,
            "f_bw_hz": self.f_bw,
            "kp": self.pi.kp,
            "ki": self.pi.ki,
            "sample_period_s": self.pi.sample_period,
            "t_s_hgi_s": self.t_s_hgi,
            "t_s_srf_s": self.t_s_srf,
            "t_sd_s": self.t_sd,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PllDesign":
        """The mapping's design with its own PI gains; k is checked and the
        settling times recomputed as in ``build_design``, not read."""
        pi = PiParams(
            kp=float(data["kp"]),
            ki=float(data["ki"]),
            sample_period=float(data["sample_period_s"]),
        )
        return _design(float(data["k"]), float(data["f_bw_hz"]), pi,
                       str(data.get("method", "")))


@dataclass
class DesignReport:
    """Sweep artifacts kept alongside the chosen design: one swept row per
    bandwidth, (f_bw, its fastest feasible k, t_sd, feasible)."""

    method: str
    swept: list[tuple[float, float, float, bool]] = field(default_factory=list)
    # the chosen point's worst unit-vector THD over the deviation band
    # (percent) and the frequency where it occurs
    worst_thd: float = math.nan
    binding_hz: float = math.nan


def steady_spec(frequency_hz: float, input_thd: float) -> GridSignalSpec:
    """Event-free scenario: the fundamental plus the worst-case harmonic
    profile of the given input THD (fraction)."""
    harmonics = tuple(harmonic_profile(input_thd)) if input_thd else ()
    return GridSignalSpec(
        fundamental_frequency=frequency_hz, harmonics=harmonics
    )


def steady_thd(k, kp, ki, frequency_hz, input_thd) -> np.ndarray:
    """Analytical unit-vector THD (percent) of the scenarios ``steady_spec``
    describes, over a whole grid: the HGI gain ``k``, the PI gains, the
    frequencies (Hz) and the input THDs (fractions) broadcast."""
    thds = np.asarray(input_thd, dtype=float)
    # each input THD's harmonic profile; the profile's phases are all zero
    amps = np.array([[c.amplitude for c in harmonic_profile(float(h))]
                     for h in thds.ravel()])
    harmonics = [(o, amps[:, i].reshape(thds.shape), 0.0)
                 for i, o in enumerate(DEFAULT_HARMONIC_ORDERS)]
    # a frequency past about 2.9e307 Hz overflows to an omega of inf,
    # which unit_vector_thd refuses as not finite
    with np.errstate(over="ignore"):
        omega = TWO_PI * np.asarray(frequency_hz, dtype=float)
    return unit_vector_thd(k, kp, ki, omega, harmonics)


def predicted_thd(
    k: float,
    f_bw: float,
    frequency_hz: float,
    input_thd: float,
    constraints: DesignConstraints,
) -> float:
    """Analytical unit-vector THD (percent) at one grid point; the point's
    THD does not depend on ``constraints``."""
    pi = pi_from_bandwidth(f_bw)
    HgiParams(k)  # validates k
    return float(steady_thd(k, pi.kp, pi.ki, frequency_hz, input_thd))


def _pi_gains(f_bws) -> tuple[np.ndarray, np.ndarray]:
    """The PI gains of each bandwidth, on the leading axis of a
    (bandwidth x frequency x k) slab."""
    pis = [pi_from_bandwidth(f_bw) for f_bw in f_bws]
    return (np.array([pi.kp for pi in pis])[:, None, None],
            np.array([pi.ki for pi in pis])[:, None, None])


def build_design(k: float, f_bw: float, method: str = "",
                 sample_period: float = SAMPLE_PERIOD) -> PllDesign:
    """Design at (k, f_bw): PI gains from the bandwidth, the HGI settling
    time at the design step ``DESIGN_SETTLING_DT`` and the loop settling
    time from the bandwidth.  Raises ``ValueError`` for an invalid gain
    or bandwidth, for a sample period the forward-Euler filter is not
    stable at (``check_euler``) and for a k whose step response does not
    settle."""
    pi = pi_from_bandwidth(f_bw, sample_period=sample_period)
    return _design(k, f_bw, pi, method)


def _design(k: float, f_bw: float, pi: PiParams, method: str) -> PllDesign:
    hgi = HgiParams(k)
    check_euler(hgi, pi.sample_period)
    t_s_hgi = settling_times(hgi)[2]
    t_s_srf = srf_settling_time(TWO_PI * f_bw)
    return PllDesign(
        k=k, f_bw=f_bw, pi=pi,
        t_s_hgi=t_s_hgi, t_s_srf=t_s_srf, t_sd=t_s_hgi + t_s_srf,
        method=method,
    )


def _first_feasible(ks: np.ndarray, ts_hgi: np.ndarray, f_bws: np.ndarray,
                    constraints: DesignConstraints):
    """Per bandwidth, the index into ``ks`` of the fastest-settling gain
    whose worst band THD meets the limit (-1 where none does), with that
    point's worst band THD (percent) and binding frequency (Hz).

    The gains are tried in settling order, equal times at the smaller k,
    in rounds of 1, 2, 4, ... candidates; each round evaluates only the
    bandwidths with no feasible gain yet, in slabs of at most
    ``THD_SLAB_POINTS`` points (at least one bandwidth), so memory stays
    bounded whatever the grid, and a bandwidth closes at its first
    feasible candidate.  The kernel gives a point the same bits in any
    grid (``thd._evaluate``), so every THD compared is that point's value
    in the whole (bandwidth x frequency x k) cube.
    """
    freqs = np.array(constraints.sweep_frequencies())
    kp, ki = _pi_gains(f_bws)
    threshold = constraints.thd_threshold()
    order = np.argsort(ts_hgi, kind="stable")
    best_k = np.full(len(f_bws), -1)
    worst = np.full(len(f_bws), math.nan)
    binding = np.full(len(f_bws), math.nan)
    open_rows = np.arange(len(f_bws))
    start, size = 0, 1
    while open_rows.size and start < len(ks):
        cand = order[start:start + size]
        rows = max(1, THD_SLAB_POINTS // (len(cand) * len(freqs)))
        for i in range(0, len(open_rows), rows):
            slab = open_rows[i:i + rows]
            # (bandwidth x frequency x candidate): the long k axis innermost
            thd = steady_thd(ks[cand], kp[slab], ki[slab], freqs[:, None],
                             constraints.input_thd)
            band = thd.max(axis=1)
            ok = band <= threshold
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            closed = slab[hit]
            best_k[closed] = cand[first]
            worst[closed] = band[hit, first]
            binding[closed] = freqs[thd.argmax(axis=1)[hit, first]]
        open_rows = open_rows[best_k[open_rows] < 0]
        start += size
        size *= 2
    return best_k, worst, binding


def _sweep(method: str, ks: np.ndarray, ts_hgi: np.ndarray,
           constraints: DesignConstraints, infeasible_row,
           point: str) -> tuple[PllDesign, DesignReport]:
    """The design with the smallest additive settling time over the
    (bandwidth, k) grid whose worst band THD meets the limit; ``ts_hgi``
    is the HGI settling time of each k in ``ks``.  Each bandwidth's
    fastest feasible k comes from ``_first_feasible``, which evaluates
    only the gains up to it in settling order.

    ``infeasible_row(f_bw, t_s_srf)`` is the report row of a bandwidth
    at which no k meets the limit, and ``point`` names a grid point in
    the error raised when none meets it.
    """
    f_bws = constraints.bandwidth_grid()
    best_k, worst, binding = _first_feasible(ks, ts_hgi, f_bws, constraints)
    report = DesignReport(method=method)
    t_sd = np.full(len(f_bws), np.inf)
    for i, f_bw in enumerate(f_bws):
        t_s_srf = srf_settling_time(TWO_PI * f_bw)
        if best_k[i] < 0:
            report.swept.append(infeasible_row(float(f_bw), t_s_srf))
            continue
        t_sd[i] = ts_hgi[best_k[i]] + t_s_srf
        report.swept.append(
            (float(f_bw), float(ks[best_k[i]]), float(t_sd[i]), True))
    if (best_k < 0).all():
        raise InfeasibleDesignError(
            f"constraints infeasible: no {point} meets the THD limit")
    # the first minimum keeps ties at the lower bandwidth
    i = int(np.argmin(t_sd))
    report.worst_thd, report.binding_hz = worst[i], binding[i]
    return build_design(float(ks[best_k[i]]), float(f_bws[i]), method), report


def mtsd_design(
    constraints: DesignConstraints = DesignConstraints(),
) -> tuple[PllDesign, DesignReport]:
    """Fastest design under the frequency-deviation THD constraint alone:
    the sweep on the one-gain grid of the fastest-settling k."""
    if constraints.input_thd != 0.0:
        raise ValueError("the deviation-only design requires input_thd = 0")
    k_opt, t_s_hgi = hgi_mod.k_opt_search(constraints.k_range, K_STEP)
    return _sweep(
        "mtsd", np.array([k_opt]), np.array([t_s_hgi]), constraints,
        lambda f_bw, t_s_srf: (f_bw, k_opt, t_s_hgi + t_s_srf, False),
        "bandwidth")


def hc_mtsd_design(
    constraints: DesignConstraints = DesignConstraints(input_thd=0.05),
) -> tuple[PllDesign, DesignReport]:
    """Fastest design under joint deviation and input-harmonic constraints."""
    ks = k_grid(*constraints.k_range, K_STEP)
    return _sweep(
        "hc-mtsd", ks, design_settling_times(ks), constraints,
        lambda f_bw, t_s_srf: (f_bw, math.nan, math.inf, False),
        "(bandwidth, k)")


def save_design(design: PllDesign, path) -> None:
    write_json(design.to_dict(), path)


def load_design(path) -> PllDesign:
    with open(path) as fh:
        return PllDesign.from_dict(json.load(fh))
