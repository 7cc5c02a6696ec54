"""The benchmark's workloads: which ``hgipll`` commands one pass runs.

Every workload is closed-loop: one command at a time, each in a fresh
process, from a single harness.  Seed 0 runs the published inputs; any
other seed draws the frequencies and the phase-jump time from the same
46-54 Hz band (the jump itself stays at 50 Hz, see ``simulate``), so a
claim can be re-checked on inputs not used while the change was written.  The design workload has no seeded inputs: its
constraints are the paper's.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
INPUTS = BENCH_DIR / "inputs"
ROOT = BENCH_DIR.parent
SCENARIOS = ROOT / "src" / "hgipll" / "scenarios"

#: Published design points (k = 1.56; f_bw = 55 Hz and 29.5 Hz), as
#: written by ``hgipll design``.
DESIGNS = {"mtsd": INPUTS / "mtsd.json", "hc-mtsd": INPUTS / "hc-mtsd.json"}

BAND_HZ = (46.0, 54.0)
SIM_DURATION_S = 1.0
SAMPLE_RATE_HZ = 20_000.0
INPUT_THD = 0.05

#: The 5 % input-THD harmonic profile the shipped scenarios use
#: (orders 3, 5, 7, 9 with amplitude falling as 1/order).
_ORDERS = (3, 5, 7, 9)
_BASE = INPUT_THD / sum((3 / o) ** 2 for o in _ORDERS) ** 0.5


@dataclass
class Command:
    """One CLI invocation and what its checks need to know about it."""

    label: str
    argv: list[str]
    info: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]


def _scenario(freq_hz, thd=0.0, dc=0.0, events=()) -> dict:
    return {
        "schema_version": 1,
        "fundamental": {"amplitude": 1.0, "frequency_hz": freq_hz,
                        "phase_rad": 0.0},
        "harmonics": [
            {"order": o, "amplitude": thd / INPUT_THD * _BASE * 3 / o,
             "phase_rad": 0.0}
            for o in _ORDERS
        ] if thd else [],
        "dc_offset": dc,
        "events": [{"time_s": t, "kind": k, "value": v} for t, k, v in events],
    }


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def _frequencies(rng: random.Random | None, n: int) -> list[float]:
    if rng is None:
        return [46.0 + i for i in range(n)]
    return sorted(round(rng.uniform(*BAND_HZ), 2) for _ in range(n))


def design(seed: int, tmp: Path) -> list[Command]:
    return [
        Command("design.hc-mtsd", [
            "design", "--method", "hc-mtsd", "--delta-f", "0.08",
            "--input-thd", "0.05", "--uthd-limit", "0.01"],
            {"method": "hc-mtsd"}),
        Command("design.mtsd", [
            "design", "--method", "mtsd", "--delta-f", "0.08",
            "--uthd-limit", "0.01"],
            {"method": "mtsd"}),
    ]


def simulate(seed: int, tmp: Path) -> list[Command]:
    """5 scenarios x {float64, fixed16} with hgi, plus the dc-offset
    scenario with the basic SOGI in both modes: 12 commands."""
    if seed == 0:
        scenarios = {
            name: (str(SCENARIOS / f"{name}.json"), info)
            for name, info in (
                ("clean_50hz", {"freq_hz": 50.0}),
                ("dc_offset_10pct", {"freq_hz": 50.0, "dc": 0.1}),
                ("phase_jump_90deg", {"freq_hz": 50.0, "event_s": 0.5}),
                ("freq_46hz_thd_5pct", {"freq_hz": 46.0}),
                ("freq_54hz_thd_5pct", {"freq_hz": 54.0}),
            )
        }
    else:
        rng = random.Random(seed)
        f = [round(rng.uniform(*BAND_HZ), 2) for _ in range(4)]
        t_jump = round(rng.uniform(0.4, 0.6), 4)
        specs = {
            "clean": (_scenario(f[0]), {"freq_hz": f[0]}),
            "dc_offset_10pct": (_scenario(f[1], dc=0.1),
                                {"freq_hz": f[1], "dc": 0.1}),
            # The jump keeps the nominal fundamental: off nominal, the f_e
            # ripple never enters the +/-0.5 Hz settling band and simulate
            # exits 1 with AnalyticsError("leakage window") (ROADMAP item 4).
            "phase_jump_90deg": (
                _scenario(50.0, events=[(t_jump, "phase_jump", math.pi / 2)]),
                {"freq_hz": 50.0, "event_s": t_jump}),
            "thd_5pct_a": (_scenario(f[2], thd=INPUT_THD), {"freq_hz": f[2]}),
            "thd_5pct_b": (_scenario(f[3], thd=INPUT_THD), {"freq_hz": f[3]}),
        }
        scenarios = {
            name: (_write(tmp / f"{name}.json", data), info)
            for name, (data, info) in specs.items()
        }
    runs = [(name, "hgi") for name in scenarios]
    runs.append((next(n for n in scenarios if n.startswith("dc_offset")),
                 "basic_sogi"))
    commands = []
    for name, topology in runs:
        path, info = scenarios[name]
        for mode in ("float64", "fixed16"):
            commands.append(Command(
                f"simulate.{name}.{topology}.{mode}",
                ["simulate", "--scenario", path, "--design",
                 str(DESIGNS["hc-mtsd"]), "--duration", str(SIM_DURATION_S),
                 "--mode", mode, "--topology", topology],
                {**info, "scenario": name, "topology": topology, "mode": mode,
                 "published": seed == 0},
            ))
    return commands


def compare(seed: int, tmp: Path) -> list[Command]:
    """compare at 0 % and 5 % input THD over 9 frequencies (36 rows),
    sweep on both designs, analyze at two distorted frequencies."""
    rng = None if seed == 0 else random.Random(seed)
    freqs = _frequencies(rng, 9)
    fargs = [f"{f:g}" for f in freqs]
    designs = [str(DESIGNS["mtsd"]), str(DESIGNS["hc-mtsd"])]
    common = {"freqs": freqs, "published": seed == 0}
    commands = [
        Command(f"compare.thd{int(thd * 100)}", [
            "compare", "--designs", *designs, "--frequencies", *fargs,
            "--input-thd", f"{thd:g}", "--duration", str(SIM_DURATION_S)],
            {**common, "input_thd": thd})
        for thd in (0.0, INPUT_THD)
    ]
    commands += [
        Command(f"sweep.{method}", [
            "sweep", "--design", str(DESIGNS[method]), "--frequencies", *fargs],
            {**common, "method": method})
        for method in DESIGNS
    ]
    if seed == 0:
        analyze = [(f, str(SCENARIOS / f"freq_{f:g}hz_thd_5pct.json"))
                   for f in (46.0, 54.0)]
    else:
        analyze = [
            (f, _write(tmp / f"analyze_{i}.json", _scenario(f, thd=INPUT_THD)))
            for i, f in enumerate(_frequencies(rng, 2))
        ]
    commands += [
        Command(f"analyze.{f:g}hz", [
            "analyze", "--scenario", path, "--design", str(DESIGNS["hc-mtsd"])],
            {"freq_hz": f, "method": "hc-mtsd", "published": seed == 0})
        for f, path in analyze
    ]
    return commands


WORKLOADS = {"design": design, "simulate": simulate, "compare": compare}
