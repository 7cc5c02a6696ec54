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
)
from .signal_model import ScenarioError, load_scenario, write_json
from .sim import (
    ArithmeticMode,
    SimulationError,
    run as run_sim,
    run_designs,
    tail_thds,
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


#: What reading and parsing an input file can raise: unreadable or
#: undecodable bytes, malformed or nested-too-deep JSON, an integer past
#: the digit limit and a value the schema or its checks refuse.
_INPUT_FILE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError,
                      OverflowError, RecursionError)


def _load_file(load, path, kind):
    """``load(path)``; a file it cannot read or parse is refused with
    exit 3, its message prefixed by ``kind`` and the path."""
    try:
        return load(path)
    except _INPUT_FILE_ERRORS as exc:
        raise CliError(f"invalid {kind} {path}: {exc}", EXIT_SCHEMA)


def _load_design_arg(args) -> PllDesign:
    """Design from --design JSON, or inline --k/--f-bw parameters."""
    if args.design is not None:
        return _load_file(load_design, args.design, "design file")
    if args.k is None or args.f_bw is None:
        raise CliError("need --design FILE or both --k and --f-bw",
                       EXIT_SCHEMA)
    try:
        return build_design(args.k, args.f_bw, "inline")
    except ValueError as exc:
        raise CliError(f"invalid parameters: {exc}", EXIT_SCHEMA)


def _finite(thd):
    """``thd``, an analytical THD (percent) or a grid of them; refused
    where any of it overflows."""
    if not np.isfinite(thd).all():
        raise AnalyticsError("the predicted unit-vector THD overflows")
    return thd


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as a csv table, rows ending ``\\r\\n``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_design(args) -> int:
    kwargs = {name: value for name in ("delta_f", "input_thd", "uthd_limit",
                                       "f_bw_range", "k_range")
              if (value := getattr(args, name)) is not None}
    try:
        constraints = DesignConstraints(**kwargs)
        if args.method == "mtsd":
            design, report = design_mod.mtsd_design(constraints)
        else:
            design, report = design_mod.hc_mtsd_design(constraints)
    except InfeasibleDesignError:
        raise
    except ValueError as exc:
        # a constraint out of range, a k range with a gain that never
        # settles, or mtsd with input THD
        raise CliError(f"invalid constraints: {exc}", EXIT_SCHEMA)
    out = _out_dir(args)
    save_design(design, out / "design.json")
    _write_csv(out / "sweep.csv", ["f_bw_hz", "k", "t_sd_ms", "feasible"],
               [(f"{f_bw:g}", f"{k:g}", f"{t_sd * 1e3:.4f}", int(ok))
                for f_bw, k, t_sd, ok in report.swept])
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
    spec = _load_file(load_scenario, args.scenario, "scenario")
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
    write_json(payload, out / "metrics.json")
    ripple = ("n/a" if metrics.freq_ripple_peak is None
              else f"{metrics.freq_ripple_peak:.4f} Hz")
    thd = ("n/a" if metrics.steady_thd is None
           else f"{metrics.steady_thd:.3f} %")
    print(f"settle={metrics.settle_time * 1e3:.1f} ms "
          f"ripple={ripple} thd={thd}")
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.json'}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    spec = _load_file(load_scenario, args.scenario, "scenario")
    design = _load_design_arg(args)
    rows = harmonic_breakdown(spec.without_events(), design.hgi, design.pi)
    thd = _finite(total_unit_vector_thd(spec.without_events(), design.hgi,
                                        design.pi))
    out = _out_dir(args)
    _write_csv(out / "breakdown.csv", ["order", "amplitude_pu", "phase_rad"],
               [(order, f"{amp:.6e}", f"{phase:.6f}")
                for order, amp, phase in rows])
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
    grid = _finite(steady_thd(design.k, design.pi.kp, design.pi.ki,
                              np.array(freqs)[:, None],
                              np.array(thds) / 100.0))
    path = _out_dir(args) / "thd_grid.csv"
    _write_csv(path, ["frequency_hz", "input_thd_pct", "unit_vector_thd_pct"],
               [(f"{f:g}", f"{h:g}", f"{grid[i, j]:.4f}")
                for i, f in enumerate(freqs) for j, h in enumerate(thds)])
    print(f"wrote {path} ({len(freqs) * len(thds)} grid points)")
    return EXIT_OK


def cmd_compare(args) -> int:
    designs = [_load_file(load_design, path, "design file")
               for path in args.designs]
    freqs = args.frequencies
    if not freqs:
        raise CliError("empty sweep", EXIT_SCHEMA)
    # every analytical column first: a frequency or input THD the
    # analysis refuses is refused before anything is simulated
    analytical = [_finite(steady_thd(d.k, d.pi.kp, d.pi.ki, freqs,
                                     args.input_thd)) for d in designs]
    # one frequency at a time, every design on one scenario, so designs
    # that share the HGI gain and sample period share its filter pass;
    # only sin_theta is read, and the steady tails of the designs that
    # share a sample period are fitted as one stack
    simulated = [[] for _ in designs]
    for f in freqs:
        tails, diverged = {}, None       # sample period -> {design: tail}
        try:
            for i, trace in enumerate(run_designs(
                    steady_spec(f, args.input_thd), designs, args.duration,
                    channels=("sin_theta",))):
                tails.setdefault(trace.sample_period, {})[i] = (
                    trace.sin_theta[trace.steady_slice()])
        except SimulationError as exc:
            diverged = exc
        thds = {}
        for ts, rows in tails.items():
            thds.update(zip(rows, tail_thds(list(rows.values()), f, ts)))
        # the first failure in design order is the one reported
        for i in sorted(thds):
            thd, reason = thds[i]
            if thd is None:
                raise AnalyticsError(reason)
            simulated[i].append(thd)
        if diverged is not None:
            raise diverged
    rows = [(d.method or f"k={d.k:g},f_bw={d.f_bw:g}", f, float(a), s)
            for d, column_a, column_s in zip(designs, analytical, simulated)
            for f, a, s in zip(freqs, column_a, column_s)]
    path = _out_dir(args) / "compare.csv"
    _write_csv(path, ["design", "frequency_hz", "analytical_thd_pct",
                      "simulated_thd_pct"],
               [(label, f"{f:g}", f"{a:.4f}", f"{s:.4f}")
                for label, f, a, s in rows])
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
