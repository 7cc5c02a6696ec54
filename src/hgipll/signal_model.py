"""Declarative single-phase grid-voltage scenarios and their synthesis.

A scenario is a fundamental sinusoid (per-unit of the nominal peak) plus a
list of harmonics, a dc offset and optional timed events.  Synthesis
integrates the instantaneous frequency so that phase stays continuous
across frequency steps, which the transient scenarios rely on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

SCHEMA_VERSION = 1

TWO_PI = 2 * math.pi

#: Nominal grid frequency, in Hz and in rad/s.
NOMINAL_FREQ_HZ = 50.0
NOMINAL_OMEGA0 = TWO_PI * NOMINAL_FREQ_HZ

#: Low-order odd harmonics of every harmonic profile.
DEFAULT_HARMONIC_ORDERS = (3, 5, 7, 9)

EVENT_KINDS = ("phase_jump", "frequency_step", "amplitude_step", "dc_step")


class ScenarioError(ValueError):
    """Raised for an invalid scenario description."""


@dataclass(frozen=True)
class HarmonicComponent:
    """One voltage harmonic, amplitude in per-unit of the fundamental peak."""

    order: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        # a fraction, NaN or inf leaves a remainder (NaN for the last two)
        if self.order % 1 != 0:
            raise ScenarioError(
                f"harmonic order must be an integer, got {self.order}")
        if self.order < 2:
            raise ScenarioError(f"harmonic order must be >= 2, got {self.order}")
        # written so that NaN fails them too
        if not 0 <= self.amplitude < math.inf:
            raise ScenarioError("harmonic amplitude must be finite and >= 0")
        if not math.isfinite(self.phase):
            raise ScenarioError("harmonic phase must be finite")


@dataclass(frozen=True)
class TimedEvent:
    """Instantaneous change applied to the signal at a given time.

    ``phase_jump`` adds ``value`` radians to the running phase; the other
    kinds set the fundamental frequency (Hz), fundamental amplitude (pu)
    or dc offset (pu) to ``value``; a frequency must be > 0, as the
    fundamental's is.
    """

    time: float
    kind: str
    value: float

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise ScenarioError("event time must be finite and >= 0")
        if self.kind not in EVENT_KINDS:
            raise ScenarioError(f"unknown event kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ScenarioError("event value must be finite")
        # 2*pi*f must be finite too: the phase integrates it
        if (self.kind == "frequency_step"
                and not 0 < TWO_PI * self.value < math.inf):
            raise ScenarioError("frequency_step value must be > 0")


@dataclass(frozen=True)
class GridSignalSpec:
    """Full description of the test grid voltage."""

    fundamental_amplitude: float = 1.0
    fundamental_frequency: float = NOMINAL_FREQ_HZ
    fundamental_phase: float = 0.0
    harmonics: tuple[HarmonicComponent, ...] = ()
    dc_offset: float = 0.0
    events: tuple[TimedEvent, ...] = ()

    def __post_init__(self):
        # 2*pi*f must be finite too: the phase integrates it
        if not 0 < TWO_PI * self.fundamental_frequency < math.inf:
            raise ScenarioError("fundamental frequency must be finite and > 0")
        values = (self.fundamental_amplitude, self.fundamental_phase,
                  self.dc_offset)
        if not all(map(math.isfinite, values)):
            raise ScenarioError("fundamental amplitude, phase and dc offset "
                                "must be finite")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        events = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", events)

    def without_events(self) -> "GridSignalSpec":
        return replace(self, events=())


def harmonic_profile(input_thd: float) -> list[HarmonicComponent]:
    """Build harmonics of the ``DEFAULT_HARMONIC_ORDERS`` whose amplitudes
    fall off as 1/order.

    Amplitudes satisfy ``v_i / v_j = j / i`` and their root-sum-square
    equals ``input_thd`` (per-unit of a 1 pu fundamental).  Phases are
    zero; callers can replace individual components for other phases.
    """
    if not 0 <= input_thd < math.inf:
        raise ScenarioError("input_thd must be >= 0 and finite")
    orders = DEFAULT_HARMONIC_ORDERS
    ref = orders[0]
    base = input_thd / math.sqrt(sum((ref / o) ** 2 for o in orders))
    # every amplitude is base * ref / o: refused where base * ref overflows
    if not base * ref < math.inf:
        raise ScenarioError(
            f"input_thd {input_thd:g} overflows the harmonic amplitudes")
    return [HarmonicComponent(o, base * ref / o) for o in orders]


def synthesize(
    spec: GridSignalSpec, sample_period: float, duration: float
) -> np.ndarray:
    """Sample the scenario voltage on a uniform grid.

    Returns ``round(duration / sample_period)`` samples starting at t = 0.
    The fundamental phase is the trapezoidal integral of the instantaneous
    frequency, so it is continuous across frequency steps; phase jumps are
    applied as explicit offsets.
    """
    # written so that NaN fails them too
    if not sample_period > 0:
        raise ScenarioError("sample_period must be > 0")
    if not 0 < duration < math.inf:
        raise ScenarioError("duration must be finite and > 0")
    span = duration / sample_period
    # also an inf span, which round() cannot convert
    if not span < np.iinfo(np.intp).max:
        raise ScenarioError("duration spans more samples than an array "
                            "can index")
    n = int(round(span))
    if n < 1:
        raise ScenarioError("duration must span at least one sample")
    t = np.arange(n) * sample_period

    freq = np.full(n, spec.fundamental_frequency)
    amp = np.full(n, spec.fundamental_amplitude)
    dc = np.full(n, spec.dc_offset)
    phase_offset = np.zeros(n)
    for ev in spec.events:
        on = t >= ev.time
        if ev.kind == "phase_jump":
            phase_offset[on] += ev.value
        elif ev.kind == "frequency_step":
            freq[on] = ev.value
        elif ev.kind == "amplitude_step":
            amp[on] = ev.value
        elif ev.kind == "dc_step":
            dc[on] = ev.value

    # trapezoidal phase integration keeps theta continuous at freq steps
    omega = TWO_PI * freq
    theta = np.empty(n)
    theta[0] = 0.0
    np.cumsum(0.5 * (omega[1:] + omega[:-1]) * sample_period, out=theta[1:])
    theta += phase_offset

    # the fundamental phase offset applies to the fundamental only
    v = amp * np.sin(theta + spec.fundamental_phase)
    for h in spec.harmonics:
        v += h.amplitude * np.sin(h.order * theta + h.phase)
    return v + dc


# --- JSON scenario files -------------------------------------------------

def spec_to_dict(spec: GridSignalSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "fundamental": {
            "amplitude": spec.fundamental_amplitude,
            "frequency_hz": spec.fundamental_frequency,
            "phase_rad": spec.fundamental_phase,
        },
        "harmonics": [
            {"order": h.order, "amplitude": h.amplitude, "phase_rad": h.phase}
            for h in spec.harmonics
        ],
        "dc_offset": spec.dc_offset,
        "events": [
            {"time_s": e.time, "kind": e.kind, "value": e.value}
            for e in spec.events
        ],
    }


def _order(value):
    """``value`` as a harmonic order: an int where it is whole, else the
    float, which ``HarmonicComponent`` refuses rather than cut."""
    order = int(value)
    return order if order == float(value) else float(value)


def spec_from_dict(data: dict) -> GridSignalSpec:
    try:
        fund = data["fundamental"]
        harmonics = tuple(
            HarmonicComponent(_order(h["order"]), float(h["amplitude"]),
                              float(h.get("phase_rad", 0.0)))
            for h in data.get("harmonics", [])
        )
        events = tuple(
            TimedEvent(float(e["time_s"]), str(e["kind"]), float(e["value"]))
            for e in data.get("events", [])
        )
        return GridSignalSpec(
            fundamental_amplitude=float(fund.get("amplitude", 1.0)),
            fundamental_frequency=float(fund["frequency_hz"]),
            fundamental_phase=float(fund.get("phase_rad", 0.0)),
            harmonics=harmonics,
            dc_offset=float(data.get("dc_offset", 0.0)),
            events=events,
        )
    except ScenarioError:
        raise                            # its message as it stands
    except (KeyError, TypeError, AttributeError, ValueError,
            OverflowError) as exc:
        raise ScenarioError(f"invalid scenario file: {exc}") from exc


def load_scenario(path) -> GridSignalSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def save_scenario(spec: GridSignalSpec, path) -> None:
    write_json(spec_to_dict(spec), path)


def write_json(payload: dict, path) -> None:
    """Write ``payload`` as JSON indented by 2, ending in a newline: the
    layout of every JSON file the toolkit writes."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
