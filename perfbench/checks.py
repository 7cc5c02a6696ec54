"""Output checks for each benchmarked command.

The checks use the acceptance gate's published numbers and tolerances,
not exact bytes, so a fix that moves a last digit or renames a metric
still passes.  Each check returns a list of problems; an empty list means
the command's outputs are correct.  Seed-0 (published) inputs get the
table checks; other seeds get finiteness and the 0.2 pp model agreement.
The checks compute from the output files with numpy alone and call
nothing in ``hgipll``, so a defect in the package cannot pass its own check.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import BENCH_DIR, SAMPLE_RATE_HZ, SIM_DURATION_S

# published unit-vector THD (%) at 5 % input THD, as in the acceptance gate
TABLE_FREQS = (46.0, 48.0, 50.0, 52.0, 54.0)
TABLE_ANALYTICAL = {
    "mtsd": (1.7, 1.3, 1.0, 0.8, 0.9),
    "hc-mtsd": (1.0, 0.8, 0.6, 0.5, 0.5),
}
TABLE_SIMULATION = {
    "mtsd": (1.6, 1.3, 1.0, 0.8, 0.7),
    "hc-mtsd": (0.9, 0.7, 0.6, 0.4, 0.4),
}
TABLE_TOL_PP = 0.2
MODEL_AGREEMENT_PP = 0.2
DESIGN_POINTS = {"hc-mtsd": (1.56, 29.5), "mtsd": (1.56, 55.0)}

STEADY_FROM_S = 0.2          # start-up excluded, as in the simulator
FREQ_BAND_HZ = 0.5           # settling band on f_e (criterion 7)
PHASE_JUMP_SETTLE_S = (30e-3, 7e-3)
DC_LINE_MAX_HZ = 0.05        # criterion 6
FIXED_VS_FLOAT_HZ = 0.1      # fixed16 vs float64 drift bounds
FIXED_VS_FLOAT_UNIT = 1e-3
EVENT_EXCLUDE_S = 0.1        # transient after an event, excluded from drift


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def check_design(out: Path, info: dict) -> list[str]:
    method = info["method"]
    data = json.loads((out / "design.json").read_text())
    problems = []
    k, f_bw = DESIGN_POINTS[method]
    if (data.get("k"), data.get("f_bw_hz")) != (k, f_bw):
        problems.append(f"{method}: design k={data.get('k')} "
                        f"f_bw={data.get('f_bw_hz')}, expected {k}, {f_bw}")
    cols = ("f_bw_hz", "k", "feasible")
    got = [tuple(r.get(c) for c in cols) for r in _rows(out / "sweep.csv")]
    ref = [tuple(r[c] for c in cols)
           for r in _rows(BENCH_DIR / "reference" / f"sweep_{method}.csv")]
    if got != ref:
        problems.append(f"{method}: sweep.csv f_bw_hz/k/feasible columns "
                        "differ from the reference")
    return problems


def load_trace(out: Path) -> dict[str, np.ndarray]:
    with open(out / "trace.csv") as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def _spectral_line(x: np.ndarray, freq_hz: float, ts: float) -> float:
    """Amplitude of one line, projected over whole cycles at the tail."""
    n = int(round(int(len(x) * ts * freq_hz) / (freq_hz * ts)))
    window = x[-n:] - np.mean(x[-n:])
    t = np.arange(n) * ts
    return float(2 * abs(np.sum(window * np.exp(-2j * np.pi * freq_hz * t))) / n)


def _settle_after(f_e: np.ndarray, i0: int, ts: float) -> float:
    """Last exit of f_e from the band around its mean over the last 0.1 s."""
    final = np.mean(f_e[-int(round(0.1 / ts)):])
    outside = np.nonzero(np.abs(f_e[i0:] - final) > FREQ_BAND_HZ)[0]
    return 0.0 if len(outside) == 0 else (outside[-1] + 1) * ts


def check_simulate(out: Path, info: dict) -> list[str]:
    trace = load_trace(out)
    ts = 1.0 / SAMPLE_RATE_HZ
    n = int(round(SIM_DURATION_S / ts))
    problems = []
    for required in ("time_s", "omega_e", "sin_theta"):
        if required not in trace:
            return [f"trace.csv has no {required} column"]
    if len(trace["time_s"]) != n:
        problems.append(f"trace.csv has {len(trace['time_s'])} rows, not {n}")
    bad = [c for c, v in trace.items() if not np.isfinite(v).all()]
    if bad:
        return problems + [f"non-finite trace channels: {bad}"]
    if not info.get("published") or info["topology"] != "hgi":
        return problems
    f_e = trace["omega_e"] / (2 * np.pi)
    if "event_s" in info:
        settle = _settle_after(f_e, int(round(info["event_s"] / ts)), ts)
        nominal, tol = PHASE_JUMP_SETTLE_S
        if abs(settle - nominal) > tol:
            problems.append(f"phase jump settles in {settle * 1e3:.1f} ms, "
                            f"not {nominal * 1e3:g}+/-{tol * 1e3:g} ms")
    if info.get("dc"):
        line = _spectral_line(f_e[int(round(STEADY_FROM_S / ts)):],
                              info["freq_hz"], ts)
        if line > DC_LINE_MAX_HZ:
            problems.append(f"{info['freq_hz']:g} Hz line on f_e is "
                            f"{line:.4f} Hz > {DC_LINE_MAX_HZ} Hz at dc offset")
    return problems


def check_fixed_vs_float(float_out: Path, fixed_out: Path, info: dict) -> list[str]:
    """Steady-state agreement of the two arithmetic modes."""
    a, b = load_trace(float_out), load_trace(fixed_out)
    keep = a["time_s"] >= STEADY_FROM_S
    if "event_s" in info:
        t = a["time_s"]
        keep &= (t < info["event_s"]) | (t >= info["event_s"] + EVENT_EXCLUDE_S)
    df = np.max(np.abs(a["omega_e"][keep] - b["omega_e"][keep])) / (2 * np.pi)
    du = np.max(np.abs(a["sin_theta"][keep] - b["sin_theta"][keep]))
    if df < FIXED_VS_FLOAT_HZ and du < FIXED_VS_FLOAT_UNIT:
        return []
    return [f"fixed16 vs float64 steady drift {df:.4f} Hz / {du:.2e} "
            f"(bounds {FIXED_VS_FLOAT_HZ} Hz / {FIXED_VS_FLOAT_UNIT:g})"]


def check_compare(out: Path, info: dict) -> list[str]:
    rows = _rows(out / "compare.csv")
    freqs = info["freqs"]
    problems = []
    if len(rows) != 2 * len(freqs):
        problems.append(f"compare.csv has {len(rows)} rows, not {2 * len(freqs)}")
    table = {}
    for r in rows:
        a, s = float(r["analytical_thd_pct"]), float(r["simulated_thd_pct"])
        if not _finite((a, s)):
            problems.append(f"non-finite row {r}")
            continue
        if abs(a - s) > MODEL_AGREEMENT_PP:
            problems.append(f"{r['design']} {r['frequency_hz']} Hz: analytical "
                            f"{a:.3f} vs simulated {s:.3f} differ by more "
                            f"than {MODEL_AGREEMENT_PP} pp")
        table[(r["design"], float(r["frequency_hz"]))] = (a, s)
    if info.get("published") and info["input_thd"] == 0.05:
        for method in TABLE_ANALYTICAL:
            for i, f in enumerate(TABLE_FREQS):
                got = table.get((method, f))
                want = (TABLE_ANALYTICAL[method][i], TABLE_SIMULATION[method][i])
                if got is None or any(abs(g - w) > TABLE_TOL_PP
                                      for g, w in zip(got, want)):
                    problems.append(f"{method} {f:g} Hz: {got} not within "
                                    f"{TABLE_TOL_PP} pp of the table {want}")
    return problems


def check_sweep(out: Path, info: dict) -> list[str]:
    rows = _rows(out / "thd_grid.csv")
    problems = []
    if len(rows) != 6 * len(info["freqs"]):
        problems.append(f"thd_grid.csv has {len(rows)} rows")
    if not _finite(r["unit_vector_thd_pct"] for r in rows):
        problems.append("non-finite THD in thd_grid.csv")
    if info.get("published"):
        grid = {(float(r["frequency_hz"]), float(r["input_thd_pct"])):
                float(r["unit_vector_thd_pct"]) for r in rows}
        for f, want in zip(TABLE_FREQS, TABLE_ANALYTICAL[info["method"]]):
            got = grid.get((f, 5.0))
            if got is None or abs(got - want) > TABLE_TOL_PP:
                problems.append(f"{info['method']} {f:g} Hz at 5 %: {got} "
                                f"not within {TABLE_TOL_PP} pp of {want}")
    return problems


def check_analyze(out: Path, info: dict) -> list[str]:
    rows = _rows(out / "breakdown.csv")
    amps = [(int(r["order"]), float(r["amplitude_pu"])) for r in rows]
    if not rows or not _finite(a for _, a in amps):
        return ["breakdown.csv is empty or non-finite"]
    if not info.get("published"):
        return []
    thd = 100 * math.sqrt(sum(a * a for o, a in amps if o >= 2))
    want = TABLE_ANALYTICAL[info["method"]][TABLE_FREQS.index(info["freq_hz"])]
    if abs(thd - want) > TABLE_TOL_PP:
        return [f"breakdown THD {thd:.3f} % not within {TABLE_TOL_PP} pp "
                f"of {want}"]
    return []


CHECKS = {
    "design": check_design,
    "simulate": check_simulate,
    "compare": check_compare,
    "sweep": check_sweep,
    "analyze": check_analyze,
}


def check(kind: str, out: Path, info: dict) -> list[str]:
    """Problems with a command's outputs; a missing or unreadable output
    file is a problem, not a crash.  A command that writes no outputs
    (``--help``) is checked by its exit code alone."""
    if kind not in CHECKS:
        return []
    try:
        return CHECKS[kind](out, info)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{kind} outputs unreadable: {exc!r}"]
