"""Benchmark of the hgipll workflows: design, simulate and compare.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {design,simulate,compare} \\
        --seed N --seconds S --trace {0,1} [--report FILE]

Each pass of a workload runs its ``hgipll`` commands one at a time, each
in a fresh Python process (``child.py``) with its outputs in a temporary
directory under ``.perfbench_tmp/``, and checks every command's outputs
(``checks.py``).  Passes repeat until ``--seconds`` have elapsed.
Untraced passes also time three ``hgipll --help`` runs, which add only
import-time samples to ``setup_s``.

With ``--trace 0`` every pass is untraced and the last line of standard
output reports the end-to-end metrics.  With ``--trace 1`` untraced and
traced passes alternate; the last line reports the per-layer metrics
from the traced passes, the workload-specific end-to-end figures from the
untraced ones, and the tracing overhead as the difference of their wall
times.  The environment (git SHA, Python, numpy, OpenBLAS, cores, BLAS
threads) is printed on the line before.  ``--report FILE`` also writes
every pass's figures and the environment to FILE.

The program under test is built from source: ``src/`` is put on the
children's ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One OpenBLAS thread here and in every command process (they inherit the
# environment).  On a 2-core machine a second thread made measured_thd's
# least-squares solve no faster (148 vs 150 ms) and, with the other core
# busy, once made it 10x slower (1.64 s): the timings would measure the
# neighbours, not the code.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread setting)

import checks  # noqa: E402
from workloads import BENCH_DIR, ROOT, SIM_DURATION_S, WORKLOADS, Command

#: A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0
#: No pass starts if the previous one suggests it would end after this.
RUN_LIMIT_S = 150.0
#: Import-only runs (``hgipll --help``) added to each untraced pass, so
#: that set-up time is a median over enough fresh processes even on the
#: design workload, which has only two commands.
SETUP_PROBES = 3
SETUP_PROBE = Command("setup.probe", ["--help"])

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-layer figures taken from each traced pass: span name -> fields.
LAYER_FIELDS = {
    "thd.total_unit_vector_thd": ("calls", "busy_s", "self_s"),
    "design.predicted_thd": ("calls", "busy_s", "self_s"),
    "hgi.settling_times": ("calls", "busy_s"),
    "hgi.k_opt_search": ("busy_s", "self_s"),
    "design.hc_mtsd_design": ("busy_s", "self_s"),
    "design.mtsd_design": ("busy_s", "self_s"),
    "sim.run": ("calls", "busy_s", "self_s"),
    "sim.transient_metrics": ("busy_s", "self_s"),
    "thd.measured_thd": ("calls", "busy_s"),
    "thd.spectral_line": ("calls", "busy_s"),
    "thd.harmonic_breakdown": ("busy_s",),
    "signal_model.synthesize": ("calls", "busy_s"),
    "signal_model.load_scenario": ("busy_s",),
    "cli.write_trace": ("calls", "busy_s"),
    "cli.design": ("self_s",),
    "cli.simulate": ("self_s",),
    "cli.analyze": ("self_s",),
    "cli.sweep": ("self_s",),
    "cli.compare": ("self_s",),
}
SIM_KEYS = ("float64.hgi", "float64.basic_sogi",
            "fixed16.hgi", "fixed16.basic_sogi")
#: Workload-level figures from the untraced passes; 0 where the workload
#: runs no such command.
HEADLINE = {
    "design_hc_s": "s",
    "design_mtsd_s": "s",
    "sim_rtf_float64": "s/s",
    "sim_rtf_fixed16": "s/s",
    "compare_points_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    units = dict(HEADLINE)
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            units[f"{name}.{f}"] = "count" if f == "calls" else "s"
    units["sim.samples"] = "count"
    units["sim.saturations"] = "count"
    for key in SIM_KEYS:
        units[f"sim.samples_per_s.{key}"] = "1/s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


# --- running commands ----------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRIDLOCK_OUT", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_command(cmd, out: Path, traced: bool) -> dict:
    """Run one command in a fresh process; returns the child's report."""
    result_path = out / "result.json"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
            "1" if traced else "0", "--", *cmd.argv]
    if cmd is not SETUP_PROBE:
        argv += ["--out", str(out)]
    with open(out / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "error": "timeout"}
    if proc.returncode != 0 or not result_path.exists():
        return {"exit_code": None,
                "error": f"runner exited {proc.returncode}"}
    return json.loads(result_path.read_text())


def evaluate(commands, outs, results) -> None:
    """Attach each command's output problems to its result; a command
    with any problem counts as a failed op."""
    for cmd, out, res in zip(commands, outs, results):
        if res.get("exit_code") != 0:
            tail = (out / "stderr.txt").read_text()[-300:].strip()
            res["problems"] = [f"exit code {res.get('exit_code')} "
                               f"{res.get('error', '')} {tail}".strip()]
        else:
            res["problems"] = checks.check(cmd.kind, out, cmd.info)
    # fixed16 against the float64 run of the same scenario and topology
    by_label = {c.label: i for i, c in enumerate(commands)}
    for i, cmd in enumerate(commands):
        if cmd.kind != "simulate" or cmd.info["mode"] != "fixed16":
            continue
        j = by_label[cmd.label.replace(".fixed16", ".float64")]
        if results[i]["problems"] or results[j]["problems"]:
            continue
        try:
            results[i]["problems"] = checks.check_fixed_vs_float(
                outs[j], outs[i], cmd.info)
        except (OSError, ValueError, KeyError) as exc:
            results[i]["problems"] = [f"fixed16 vs float64: {exc!r}"]


def run_pass(commands, pass_dir: Path, traced: bool) -> list[dict]:
    if not traced:
        commands = commands + [SETUP_PROBE] * SETUP_PROBES
    outs = []
    results = []
    for i, cmd in enumerate(commands):
        out = pass_dir / f"{i:02d}"
        out.mkdir(parents=True)
        outs.append(out)
        results.append(run_command(cmd, out, traced))
    evaluate(commands, outs, results)
    shutil.rmtree(pass_dir)
    for cmd, res in zip(commands, results):
        res["label"] = cmd.label
    return results


# --- metrics ---------------------------------------------------------------

def _ok(results):
    return [r for r in results if r.get("exit_code") == 0]


def _commands_only(results):
    return [r for r in results if r["label"] != SETUP_PROBE.label]


def pass_wall(results) -> float:
    return sum(r["cmd_s"] for r in _ok(_commands_only(results)))


def headline(commands, results) -> dict[str, float]:
    """Workload-level figures of one untraced pass."""
    t = {c.label: r.get("cmd_s", 0.0) for c, r in zip(commands, results)}
    figures = dict.fromkeys(HEADLINE, 0.0)
    figures["design_hc_s"] = t.get("design.hc-mtsd", 0.0)
    figures["design_mtsd_s"] = t.get("design.mtsd", 0.0)
    for mode in ("float64", "fixed16"):
        busy = sum(t[c.label] for c in commands
                   if c.kind == "simulate" and c.info["mode"] == mode)
        count = sum(1 for c in commands
                    if c.kind == "simulate" and c.info["mode"] == mode)
        if busy > 0:
            figures[f"sim_rtf_{mode}"] = count * SIM_DURATION_S / busy
    busy = sum(t[c.label] for c in commands if c.kind == "compare")
    rows = sum(2 * len(c.info["freqs"]) for c in commands if c.kind == "compare")
    if busy > 0:
        figures["compare_points_per_s"] = rows / busy
    return figures


def layer_figures(results) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its commands."""
    layers: dict[str, dict] = {}
    runs: dict[str, dict] = {}
    spans = 0
    for res in _ok(_commands_only(results)):
        tr = res["trace"]
        spans += tr["spans"]
        for name, stats in tr["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(stats, 0))
            for k, v in stats.items():
                acc[k] += v
        for key, stats in tr["sim_runs"].items():
            acc = runs.setdefault(key, dict.fromkeys(stats, 0))
            for k, v in stats.items():
                acc[k] += v
    figures = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            figures[f"{name}.{f}"] = layers.get(name, {}).get(f, 0)
    figures["sim.samples"] = sum(r["samples"] for r in runs.values())
    figures["sim.saturations"] = sum(r["saturations"] for r in runs.values())
    for key in SIM_KEYS:
        r = runs.get(key)
        figures[f"sim.samples_per_s.{key}"] = (
            r["samples"] / r["busy_s"] if r and r["busy_s"] > 0 else 0.0)
    figures["trace.spans"] = spans
    return figures


def accounted_share(results) -> float:
    """Sum of every layer's self time over the sum of command spans: 1
    when child busy time plus self time accounts for each command."""
    total_self = sum(stats["self_s"] for r in _ok(results)
                     for stats in r["trace"]["layers"].values())
    total_root = sum(r["trace"]["root_s"] for r in _ok(results))
    return total_self / total_root if total_root > 0 else 0.0


def _median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


# --- environment -------------------------------------------------------------

def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --- main loop ---------------------------------------------------------------

@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ``.perfbench_tmp/``, removed afterwards."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:  # another run is still using it
            pass


def measure(workload: str, seed: int, seconds: float, traced: bool,
            tmp: Path) -> tuple[dict, list[dict]]:
    commands = WORKLOADS[workload](seed, tmp)
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        untraced = [p for p in passes if not p["traced"]]
        traced_done = [p for p in passes if p["traced"]]
        enough = passes and (not traced or traced_done)
        if enough and (elapsed >= seconds or elapsed + longest > RUN_LIMIT_S):
            break
        trace_this = traced and len(untraced) > len(traced_done)
        t0 = time.perf_counter()
        results = run_pass(commands, tmp / f"pass{len(passes)}", trace_this)
        longest = max(longest, time.perf_counter() - t0)
        p = {"traced": trace_this, "results": results,
             "wall_s": pass_wall(results)}
        if not trace_this:
            p["headline"] = headline(commands, results)
        else:
            p["layers"] = layer_figures(results)
            p["accounted_share"] = accounted_share(results)
        passes.append(p)
        failed = sum(1 for r in results if r["problems"])
        print(f"pass {len(passes)} ({'traced' if trace_this else 'untraced'}):"
              f" {len(results)} commands, {failed} failed, "
              f"wall {p['wall_s']:.4f} s", flush=True)
        for r in results:
            for problem in r["problems"]:
                print(f"  FAILED {r['label']}: {problem}", file=sys.stderr)

    untraced = [p for p in passes if not p["traced"]]
    all_results = [r for p in passes for r in p["results"]]
    ok_untraced = [r for p in untraced for r in _ok(p["results"])]
    if traced:
        traced_passes = [p for p in passes if p["traced"]]
        units = per_layer_units()
        values = {}
        for key in HEADLINE:
            values[key] = _median_of([p["headline"] for p in untraced], key)
        for key in units:
            if key not in values and key != "trace.overhead_s":
                values[key] = _median_of([p["layers"] for p in traced_passes],
                                         key)
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced_passes)
            - statistics.median(p["wall_s"] for p in untraced))
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(r["import_s"] for r in ok_untraced)
            if ok_untraced else 0.0,
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "peak_rss_mb": max((r["max_rss_kb"]
                                for r in _commands_only(ok_untraced)),
                               default=0) / 1024.0,
        }
    failed = sum(1 for r in all_results if r["problems"])
    summary = {
        "correct": failed == 0,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return summary, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path,
                        help="also write every pass's figures to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hgipll" / "cli.py").is_file():
        print(f"error: no hgipll sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with scratch_dir() as tmp:
        summary, passes = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), tmp)
    env = environment()
    if args.report is not None:
        args.report.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": env, "summary": summary, "passes": passes,
        }, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
