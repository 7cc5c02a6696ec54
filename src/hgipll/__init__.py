"""Design and simulation toolkit for a dc-immune single-phase PLL.

The quadrature generator is a high-pass generalized integrator (band-pass
in-phase channel, high-pass quadrature channel, both with zero dc gain)
feeding a synchronous-reference-frame phase loop.  The package provides:

* declarative grid-voltage scenarios (``signal_model``),
* the arithmetic policies, float64 and emulated fixed point (``arith``),
* the filter pair, its discrete realization and settling analysis (``hgi``),
* the phase loop and PI tuning (``srf``),
* closed-form unit-vector THD prediction and measurement (``thd``),
* worst-case constrained design procedures (``design``),
* the closed-loop simulator (``sim``),
* a batch command-line front end (``cli``).
"""

from .arith import FIXED16, FLOAT64, ArithmeticMode, Fixed16Arithmetic
from .design import (
    DesignConstraints,
    DesignReport,
    InfeasibleDesignError,
    PllDesign,
    build_design,
    hc_mtsd_design,
    load_design,
    mtsd_design,
    predicted_thd,
    save_design,
)
from .hgi import (
    BasicSogiFilter,
    HgiFilter,
    HgiParams,
    NOMINAL_OMEGA0,
    freq_response,
    k_opt_search,
    settling_times,
)
from .signal_model import (
    GridSignalSpec,
    HarmonicComponent,
    ScenarioError,
    TimedEvent,
    harmonic_profile,
    load_scenario,
    save_scenario,
    synthesize,
)
from .sim import (
    SimTrace,
    SimulationError,
    TransientMetrics,
    fixed_vs_float_drift,
    run,
    run_designs,
    transient_metrics,
)
from .srf import PiParams, SrfPll, pi_from_bandwidth, srf_settling_time
from .thd import (
    AnalyticsError,
    Phasor,
    harmonic_breakdown,
    line_fit,
    sequence_decompose,
    spectral_line,
    total_unit_vector_thd,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticMode", "AnalyticsError", "BasicSogiFilter", "DesignConstraints",
    "DesignReport", "FIXED16", "FLOAT64", "Fixed16Arithmetic",
    "GridSignalSpec", "HarmonicComponent", "HgiFilter", "HgiParams",
    "InfeasibleDesignError", "NOMINAL_OMEGA0", "Phasor", "PiParams",
    "PllDesign", "ScenarioError", "SimTrace", "SimulationError", "SrfPll",
    "TimedEvent", "TransientMetrics", "build_design", "fixed_vs_float_drift",
    "freq_response", "harmonic_breakdown", "harmonic_profile",
    "hc_mtsd_design", "k_opt_search", "line_fit",
    "load_design", "load_scenario", "mtsd_design",
    "pi_from_bandwidth", "predicted_thd", "run", "run_designs", "save_design",
    "save_scenario", "sequence_decompose", "settling_times", "spectral_line",
    "srf_settling_time", "synthesize",
    "total_unit_vector_thd", "transient_metrics",
]
