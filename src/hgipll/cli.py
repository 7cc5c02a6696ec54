"""Command-line front end.

Subcommands: ``design`` (run a design procedure, emit design.json and the
sweep CSV), ``simulate`` (run a scenario against a design, emit trace.csv
and metrics.json), ``analyze`` (per-order analytical ripple breakdown),
``sweep`` (THD grid over frequency and input THD), ``compare``
(analytical vs simulated THD table for one or both designs).

Exit codes: 0 success, 2 infeasible design, 3 input schema error,
failed analysis or input too large to allocate, 4 numerical divergence.
The output directory defaults to the current directory and can be
overridden by ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import design as design_mod
from .design import (
    DesignConstraints,
    InfeasibleDesignError,
    PllDesign,
    build_design,
    load_design,
    save_design,
    steady_spec,
    steady_thd,
    write_thd_grid_csv,
)
from .signal_model import GridSignalSpec, ScenarioError, load_scenario
from .sim import (
    ArithmeticMode,
    SimulationError,
    run as run_sim,
    transient_metrics,
)
from .thd import AnalyticsError, harmonic_breakdown, total_unit_vector_thd

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SCHEMA = 3
EXIT_DIVERGENCE = 4

#: ``sweep`` and ``compare`` default frequencies (Hz): the published table's.
DEFAULT_FREQUENCIES_HZ = (46.0, 48.0, 50.0, 52.0, 54.0)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _constraints(args) -> DesignConstraints:
    kwargs = {}
    if args.delta_f is not None:
        kwargs["delta_f"] = args.delta_f
    if args.input_thd is not None:
        kwargs["input_thd"] = args.input_thd
    if args.uthd_limit is not None:
        kwargs["uthd_limit"] = args.uthd_limit
    if args.f_bw_range is not None:
        kwargs["f_bw_range"] = tuple(args.f_bw_range)
    if args.k_range is not None:
        kwargs["k_range"] = tuple(args.k_range)
    try:
        return DesignConstraints(**kwargs)
    except ValueError as exc:
        raise CliError(f"invalid constraints: {exc}", EXIT_SCHEMA)


def _load_design_file(path) -> PllDesign:
    try:
        return load_design(path)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"invalid design file {path}: {exc}", EXIT_SCHEMA)


def _load_design_arg(args) -> PllDesign:
    """Design from --design JSON, or inline --k/--f-bw parameters."""
    if args.design is not None:
        return _load_design_file(args.design)
    if args.k is None or args.f_bw is None:
        raise CliError("need --design FILE or both --k and --f-bw",
                       EXIT_SCHEMA)
    try:
        return build_design(args.k, args.f_bw, "inline")
    except ValueError as exc:
        raise CliError(f"invalid parameters: {exc}", EXIT_SCHEMA)


def _load_scenario_arg(path) -> GridSignalSpec:
    try:
        return load_scenario(path)
    except (OSError, ScenarioError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid scenario {path}: {exc}", EXIT_SCHEMA)


def cmd_design(args) -> int:
    constraints = _constraints(args)
    try:
        if args.method == "mtsd":
            design, report = design_mod.mtsd_design(constraints)
        else:
            design, report = design_mod.hc_mtsd_design(constraints)
    except InfeasibleDesignError:
        raise
    except ValueError as exc:
        # a k range with a gain that never settles, or mtsd with input THD
        raise CliError(f"invalid constraints: {exc}", EXIT_SCHEMA)
    out = _out_dir(args)
    save_design(design, out / "design.json")
    report.write_sweep_csv(out / "sweep.csv")
    print(f"method={design.method} k={design.k:.2f} f_bw={design.f_bw:g} Hz "
          f"t_sd={design.t_sd * 1e3:.2f} ms")
    # the margin is to the largest THD the rounded limit check accepts
    accepted = constraints.thd_threshold()
    print(f"binding f={report.binding_hz:g} Hz: worst THD "
          f"{report.worst_thd:.3f} % against the "
          f"{100 * constraints.uthd_limit:g} % limit (accepted up to "
          f"{accepted:.4g} %), margin {accepted - report.worst_thd:.3f} pp")
    print(f"wrote {out / 'design.json'} and {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_scenario_arg(args.scenario)
    design = _load_design_arg(args)
    mode = ArithmeticMode(args.mode)
    trace = run_sim(spec, design, args.duration, mode, args.topology)
    event_time = spec.events[0].time if spec.events else 0.0
    metrics = transient_metrics(
        trace, event_time=event_time,
        fundamental_hz=spec.fundamental_frequency,
    )
    out = _out_dir(args)
    trace.write_csv(out / "trace.csv")
    payload = {
        "schema_version": 1,
        "scenario": str(args.scenario),
        "topology": args.topology,
        "mode": args.mode,
        "saturations": trace.saturations,
        **metrics.to_dict(),
    }
    with open(out / "metrics.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    thd = ("n/a" if metrics.steady_thd is None
           else f"{metrics.steady_thd:.3f} %")
    print(f"settle={metrics.settle_time * 1e3:.1f} ms "
          f"ripple={metrics.freq_ripple_peak:.4f} Hz thd={thd}")
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.json'}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    spec = _load_scenario_arg(args.scenario)
    design = _load_design_arg(args)
    rows = harmonic_breakdown(spec.without_events(), design.hgi, design.pi)
    thd = total_unit_vector_thd(spec.without_events(), design.hgi, design.pi)
    out = _out_dir(args)
    with open(out / "breakdown.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["order", "amplitude_pu", "phase_rad"])
        for order, amp, phase in rows:
            w.writerow([order, f"{amp:.6e}", f"{phase:.6f}"])
    print(f"{'order':>5} {'amplitude':>12} {'phase_rad':>10}")
    for order, amp, phase in rows:
        print(f"{order:>5} {amp:>12.3e} {phase:>10.4f}")
    print(f"unit-vector THD: {thd:.3f} %")
    print(f"wrote {out / 'breakdown.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    design = _load_design_arg(args)
    freqs = args.frequencies
    thds = args.input_thds
    if not freqs or not thds:
        raise CliError("empty sweep", EXIT_SCHEMA)
    grid = steady_thd(design.k, design.pi.kp, design.pi.ki,
                      np.array(freqs)[:, None], np.array(thds) / 100.0)
    rows = [(f, h, float(grid[i, j]))
            for i, f in enumerate(freqs) for j, h in enumerate(thds)]
    out = _out_dir(args)
    path = out / "thd_grid.csv"
    write_thd_grid_csv(path, rows)
    print(f"wrote {path} ({len(freqs) * len(thds)} grid points)")
    return EXIT_OK


def cmd_compare(args) -> int:
    designs = [_load_design_file(path) for path in args.designs]
    freqs = args.frequencies
    if not freqs:
        raise CliError("empty sweep", EXIT_SCHEMA)
    rows = []
    for d in designs:
        label = d.method or f"k={d.k:g},f_bw={d.f_bw:g}"
        analytical = steady_thd(d.k, d.pi.kp, d.pi.ki, freqs, args.input_thd)
        for f, a in zip(freqs, analytical):
            trace = run_sim(steady_spec(f, args.input_thd), d, args.duration)
            m = transient_metrics(trace, fundamental_hz=f)
            if m.steady_thd is None:
                raise AnalyticsError(m.steady_thd_reason)
            rows.append((label, f, float(a), m.steady_thd))
    path = _out_dir(args) / "compare.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["design", "frequency_hz", "analytical_thd_pct",
                    "simulated_thd_pct"])
        for label, f, a, s in rows:
            w.writerow([label, f"{f:g}", f"{a:.4f}", f"{s:.4f}"])
    print(f"{'design':>10} {'f_hz':>6} {'analytical':>11} {'simulated':>10}")
    for label, f, a, s in rows:
        print(f"{label:>10} {f:>6g} {a:>11.2f} {s:>10.2f}")
    print(f"wrote {path}")
    return EXIT_OK


def _add_common_out(p):
    p.add_argument("--out", default=".", help="output directory")


def _add_design_source(p):
    p.add_argument("--design", help="design.json produced by the design command")
    p.add_argument("--k", type=float, help="inline HGI gain")
    p.add_argument("--f-bw", type=float, help="inline loop bandwidth (Hz)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgipll",
        description="Design and simulate the dc-immune quadrature-filter PLL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="run a design procedure")
    p.add_argument("--method", choices=("mtsd", "hc-mtsd"), default="mtsd")
    p.add_argument("--delta-f", type=float, default=None,
                   help="max relative frequency deviation (e.g. 0.08)")
    p.add_argument("--input-thd", type=float, default=None,
                   help="worst-case input THD as a fraction (e.g. 0.05)")
    p.add_argument("--uthd-limit", type=float, default=None,
                   help="unit-vector THD limit as a fraction (e.g. 0.01)")
    p.add_argument("--f-bw-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--k-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    _add_common_out(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="simulate a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    _add_design_source(p)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--mode", choices=("float64", "fixed16"), default="float64")
    p.add_argument("--topology", choices=("hgi", "basic_sogi"), default="hgi")
    _add_common_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="analytical ripple breakdown")
    p.add_argument("--scenario", required=True)
    _add_design_source(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="analytical THD grid")
    _add_design_source(p)
    p.add_argument("--frequencies", type=float, nargs="*",
                   default=DEFAULT_FREQUENCIES_HZ, metavar="HZ")
    p.add_argument("--input-thds", type=float, nargs="*",
                   default=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                   metavar="PCT", help="input THD values in percent")
    _add_common_out(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="analytical vs simulated THD")
    p.add_argument("--designs", nargs="+", required=True,
                   metavar="DESIGN_JSON")
    p.add_argument("--frequencies", type=float, nargs="*",
                   default=DEFAULT_FREQUENCIES_HZ, metavar="HZ")
    p.add_argument("--input-thd", type=float, default=0.05,
                   help="input THD fraction used for both columns")
    p.add_argument("--duration", type=float, default=1.0)
    _add_common_out(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one place maps each error a command reports to its exit code
    try:
        return args.func(args)
    except CliError as exc:
        message, code = exc, exc.code
    except InfeasibleDesignError as exc:
        message, code = exc, EXIT_INFEASIBLE
    except AnalyticsError as exc:
        message, code = f"analysis failed: {exc}", EXIT_SCHEMA
    except ScenarioError as exc:
        message, code = f"invalid scenario: {exc}", EXIT_SCHEMA
    except SimulationError as exc:
        message, code = exc, EXIT_DIVERGENCE
    except MemoryError:
        # a grid or trace the input sizes beyond what can be allocated
        message, code = "input too large: out of memory", EXIT_SCHEMA
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
