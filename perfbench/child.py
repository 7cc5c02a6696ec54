"""Run one ``hgipll`` CLI command in this (fresh) process and report its cost.

Usage::

    python3 perfbench/child.py RESULT_JSON TRACE(0|1) -- <hgipll arguments>

The process times ``import hgipll`` (the command's set-up), then times
``hgipll.cli.main`` from call to return (wall and CPU time), and writes
to RESULT_JSON its exit code, these times and the process's peak RSS.  With TRACE=1 it first
wraps the public functions of the package (see ``TARGETS``) and adds a
per-layer summary of the recorded spans.  The package itself is not
modified: the wrappers are installed from here, under every name a caller
looks the function up by.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
import traceback

#: (module, function) pairs wrapped in a traced run.  The span name is
#: "<module>.<function>".
TARGETS = (
    ("signal_model", "load_scenario"),
    ("signal_model", "synthesize"),
    ("hgi", "settling_times"),
    ("hgi", "k_opt_search"),
    ("thd", "total_unit_vector_thd"),
    ("thd", "harmonic_breakdown"),
    ("thd", "measured_thd"),
    ("thd", "spectral_line"),
    ("design", "predicted_thd"),
    ("design", "mtsd_design"),
    ("design", "hc_mtsd_design"),
    ("sim", "run"),
    ("sim", "transient_metrics"),
)

#: Modules searched for bindings of each target.
MODULES = ("signal_model", "hgi", "srf", "thd", "design", "sim", "cli")


def _sim_run_attrs(args, kwargs, trace):
    """Arithmetic mode, topology, sample count and saturations of a run."""
    mode = args[3] if len(args) > 3 else kwargs.get("mode")
    topology = args[4] if len(args) > 4 else kwargs.get("topology", "hgi")
    return {
        "key": f"{getattr(mode, 'mode', 'float64')}.{topology}",
        "samples": len(trace),
        "saturations": int(getattr(trace, "saturations", 0)),
    }


ATTRS = {"sim.run": _sim_run_attrs}


class Tracer:
    """Spans kept in memory as parallel lists: name, parent index, start
    and end time, plus attributes for the spans that have them.

    The parent of a span is the span open on the stack when it started;
    everything runs on one thread, so children are disjoint and nested in
    their parent.  The lists hold only strings, ints and floats, so the
    garbage collector does not rescan 10^5 span records on every pass.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name):
        names, parents, starts, ends = (
            self.names, self.parents, self.starts, self.ends)
        stack, clock = self._stack, time.perf_counter
        span_attrs, get_attrs = self.attrs, ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if get_attrs is not None:
                span_attrs[i] = get_attrs(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls, busy time and self time, plus run attributes.

        busy_s counts only the outermost span of a name, so a recursive
        call is not counted twice; self_s is a span's duration minus the
        time its direct children cover.
        """
        names, parents = self.names, self.parents
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for parent, dur in zip(parents, durations):
            if parent >= 0:
                child[parent] += dur
        layers: dict[str, dict] = {}
        for i, (name, dur) in enumerate(zip(names, durations)):
            layer = layers.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += dur - child[i]
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                layer["busy_s"] += dur
        runs: dict[str, dict] = {}
        for i, attrs in self.attrs.items():
            run = runs.setdefault(attrs["key"], {
                "calls": 0, "samples": 0, "saturations": 0, "busy_s": 0.0})
            run["calls"] += 1
            run["samples"] += attrs["samples"]
            run["saturations"] += attrs["saturations"]
            run["busy_s"] += durations[i]
        return {
            "layers": layers,
            "sim_runs": runs,
            "spans": len(names),
            "root_s": sum(d for p, d in zip(parents, durations) if p < 0),
        }


def install(tracer: Tracer) -> None:
    """Replace each target, in every module that binds it, by a wrapper."""
    modules = [importlib.import_module(f"hgipll.{m}") for m in MODULES]
    modules.append(importlib.import_module("hgipll"))
    for home, fname in TARGETS:
        fn = getattr(importlib.import_module(f"hgipll.{home}"), fname, None)
        if fn is None:
            continue
        wrapped = tracer.wrap(fn, f"{home}.{fname}")
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
    sim = importlib.import_module("hgipll.sim")
    trace_cls = getattr(sim, "SimTrace", None)
    if trace_cls is not None and hasattr(trace_cls, "write_csv"):
        trace_cls.write_csv = tracer.wrap(trace_cls.write_csv, "cli.write_trace")


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result_path, traced, cli_args = argv[0], argv[1] == "1", argv[3:]

    start = time.perf_counter()
    import hgipll.cli
    import_s = time.perf_counter() - start

    tracer = Tracer() if traced else None
    entry = hgipll.cli.main
    if tracer is not None:
        install(tracer)
        entry = tracer.wrap(entry, f"cli.{cli_args[0]}")

    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        code = entry(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    cmd_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    result = {
        "exit_code": code,
        "import_s": import_s,
        "cmd_s": cmd_s,
        "cpu_s": cpu_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
