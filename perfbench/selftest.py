"""Self-test of the benchmark's output checks and tracer.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs a few cheap seed-0 commands, confirms their outputs pass the checks,
then corrupts one output at a time and confirms that exactly one command
is counted as a failed op.  Also runs one command traced and confirms
that self time plus child busy time accounts for the command's time.
Exits non-zero on the first mismatch.  Takes about 15 s.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run
import workloads
from workloads import ROOT, Command


def _commands() -> list[Command]:
    design = [c for c in workloads.design(0, None) if c.label == "design.mtsd"]
    sim = [c for c in workloads.simulate(0, None)
           if c.info["topology"] == "hgi"
           and c.info["scenario"] in ("phase_jump_90deg", "dc_offset_10pct")]
    compare = [c for c in workloads.compare(0, None)
               if c.label in ("compare.thd5", "sweep.hc-mtsd", "analyze.46hz")]
    table = ["46", "48", "50", "52", "54"]
    for c in compare:
        if c.kind in ("compare", "sweep"):
            i = c.argv.index("--frequencies") + 1
            c.argv[i:i + 9] = table
            c.info["freqs"] = [float(f) for f in table]
    bad = Command("simulate.missing_scenario", [
        "simulate", "--scenario", str(ROOT / "no_such_scenario.json"),
        "--design", str(workloads.DESIGNS["hc-mtsd"])],
        {"topology": "hgi", "mode": "float64"})
    return design + sim + compare + [bad]


def _edit_trace(out: Path, fn) -> None:
    path = out / "trace.csv"
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    fn({n: data[:, i] for i, n in enumerate(names)})
    np.savetxt(path, data, delimiter=",", fmt="%.10g",
               header="\n".join(lines[:2]), comments="")


def _edit_csv(path: Path, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path: Path, key: str, value) -> None:
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


def _flip_last_flag(rows) -> None:
    rows[-1][-1] = "0" if rows[-1][-1] == "1" else "1"


def _shift_first_row(column: int, delta: float):
    def fn(rows):
        rows[1][column] = f"{float(rows[1][column]) + delta:.4f}"
    return fn


def _double_amplitudes(rows) -> None:
    for row in rows[1:]:
        row[1] = f"{2 * float(row[1]):.6e}"


def _bump_omega(t0: float, t1: float, hz: float, freq: float = 0.0):
    def fn(tr):
        on = (tr["time_s"] >= t0) & (tr["time_s"] < t1)
        tr["omega_e"][on] += 2 * np.pi * hz * (
            np.cos(2 * np.pi * freq * tr["time_s"][on]) if freq else 1.0)
    return fn


def corruptions(outs: dict[str, Path]):
    """(name, label of the command that must fail, corrupting action)."""
    pj64 = "simulate.phase_jump_90deg.hgi.float64"
    pj16 = "simulate.phase_jump_90deg.hgi.fixed16"
    dc64 = "simulate.dc_offset_10pct.hgi.float64"
    return [
        ("design k", "design.mtsd", lambda: _edit_json(
            outs["design.mtsd"] / "design.json", "k", 1.57)),
        ("sweep feasibility", "design.mtsd", lambda: _edit_csv(
            outs["design.mtsd"] / "sweep.csv", _flip_last_flag)),
        ("non-finite trace", pj64, lambda: _edit_trace(
            outs[pj64], lambda tr: tr["v_q"].__setitem__(5000, np.nan))),
        ("slow phase-jump settling", pj64, lambda: _edit_trace(
            outs[pj64], _bump_omega(0.5, 0.55, 2.0))),
        ("fixed16 drift", pj16, lambda: _edit_trace(
            outs[pj16], lambda tr: tr["sin_theta"].__iadd__(
                0.01 * (tr["time_s"] > 0.3)))),
        ("dc line on f_e", dc64, lambda: _edit_trace(
            outs[dc64], _bump_omega(0.0, 2.0, 0.1, 50.0))),
        ("compare model agreement", "compare.thd5", lambda: _edit_csv(
            outs["compare.thd5"] / "compare.csv", _shift_first_row(3, 0.5))),
        ("sweep grid row", "sweep.hc-mtsd", lambda: _edit_csv(
            outs["sweep.hc-mtsd"] / "thd_grid.csv", list.pop)),
        ("analyze breakdown", "analyze.46hz", lambda: _edit_csv(
            outs["analyze.46hz"] / "breakdown.csv", _double_amplitudes)),
    ]


def main() -> int:
    with run.scratch_dir() as tmp:
        return _selftest(tmp)


def _failed(commands, outs, results) -> list[str]:
    for r in results:
        r.pop("problems", None)
    run.evaluate(commands, outs, results)
    return [c.label for c, r in zip(commands, results) if r["problems"]]


def _selftest(tmp: Path) -> int:
    commands = _commands()
    outs, results = [], []
    for i, cmd in enumerate(commands):
        out = tmp / f"{i:02d}"
        out.mkdir()
        outs.append(out)
        results.append(run.run_command(cmd, out, traced=False))
    failed = _failed(commands, outs, results)
    if failed != ["simulate.missing_scenario"]:
        print(f"FAIL: clean outputs counted as failed: {failed}")
        for c, r in zip(commands, results):
            print(c.label, r.get("problems"))
        return 1
    print("ok: clean outputs pass; a non-zero exit counts as a failed op")

    by_label = dict(zip((c.label for c in commands), outs))
    backup = tmp / "backup"
    for name, label, corrupt in corruptions(by_label):
        shutil.copytree(by_label[label], backup)
        corrupt()
        failed = _failed(commands, outs, results)
        shutil.rmtree(by_label[label])
        backup.rename(by_label[label])
        if failed != sorted({label, "simulate.missing_scenario"},
                            key=[c.label for c in commands].index):
            print(f"FAIL: corrupted {name} in {label}; failed ops: {failed}")
            return 1
        print(f"ok: corrupted {name} -> {label} counted as failed")

    cmd = next(c for c in commands if c.kind == "compare")
    out = tmp / "traced"
    out.mkdir()
    res = run.run_command(cmd, out, traced=True)
    share = run.accounted_share([res])
    root = res["trace"]["root_s"]
    if abs(share - 1.0) > 1e-9 or not 0 < root <= res["cmd_s"]:
        print(f"FAIL: traced compare: self+children share {share}, "
              f"span {root} s vs command {res['cmd_s']} s")
        return 1
    print(f"ok: traced compare: self + child time = command span "
          f"({root:.3f} s of {res['cmd_s']:.3f} s measured)")
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
