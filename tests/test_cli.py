import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hgipll import build_design, line_fit, load_design, run, save_design
from hgipll import cli as cli_mod, sim
from hgipll.design import steady_spec
from hgipll.signal_model import (GridSignalSpec, TimedEvent, harmonic_profile,
                                 save_scenario)
from hgipll.cli import main
from hgipll.sim import SimulationError, steady_thds, transient_metrics
from hgipll.srf import SAMPLE_PERIOD

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "hgipll" / "scenarios"


@pytest.fixture(scope="module")
def design_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("design")
    code = main(["design", "--method", "mtsd", "--out", str(out)])
    assert code == 0
    return out


def _run_module(*args, cwd):
    """``python -m hgipll`` with the package from the source tree."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hgipll", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_python_m_hgipll_runs_the_cli(tmp_path):
    proc = _run_module("--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hgipll")
    proc = _run_module("simulate", "--scenario",
                       str(SCENARIOS / "clean_50hz.json"), "--k", "-1",
                       "--f-bw", "29.5", cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: invalid parameters")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_design_outputs(design_dir):
    data = json.loads((design_dir / "design.json").read_text())
    assert data["schema_version"] == 1
    assert data["method"] == "mtsd"
    assert data["f_bw_hz"] == pytest.approx(55.0, abs=0.5)
    assert data["k"] == pytest.approx(1.56, abs=0.02)
    sweep = (design_dir / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "f_bw_hz,k,t_sd_ms,feasible"
    assert len(sweep) > 10


def test_design_reports_binding_point(tmp_path, capsys):
    code = main(["design", "--method", "mtsd", "--out", str(tmp_path)])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[1]
    # 1.029 % rounds to 1.0 %, so it meets the 1 % limit checked at one
    # decimal; the margin is to 1.05 %, where the rounding flips
    assert line == ("binding f=46 Hz: worst THD 1.029 % against the 1 % "
                    "limit (accepted up to 1.05 %), margin 0.021 pp")


def test_design_infeasible_exit_code(tmp_path, capsys):
    # the harmonic-aware case tries every gain at every bandwidth
    for args in (["--method", "mtsd", "--uthd-limit", "0.001",
                  "--f-bw-range", "50", "55"],
                 ["--method", "hc-mtsd", "--input-thd", "0.05",
                  "--uthd-limit", "0.001"],
                 # a THD that overflows meets no limit, and warns of nothing
                 ["--method", "hc-mtsd", "--input-thd", "1e200"],
                 ["--method", "hc-mtsd", "--input-thd", "1e300"]):
        code = main(["design", *args, "--out", str(tmp_path)])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err


def test_design_invalid_constraints_exit_code(tmp_path):
    code = main(["design", "--delta-f", "0.9", "--out", str(tmp_path)])
    assert code == 3


def test_simulate_round_trips_design_json(design_dir, tmp_path):
    code = main([
        "simulate", "--scenario", str(SCENARIOS / "dc_offset_10pct.json"),
        "--design", str(design_dir / "design.json"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["freq_line_hz"] < 0.05
    assert metrics["settled"] is True
    # the reason keys are written only beside a null THD, line or ripple
    assert metrics["steady_thd_pct"] >= 0
    assert metrics["freq_ripple_peak_hz"] >= metrics["freq_line_hz"]
    assert "steady_thd_reason" not in metrics
    assert "freq_line_reason" not in metrics
    assert "freq_ripple_peak_reason" not in metrics
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("time_s,v_g,")


def test_simulate_inline_parameters(tmp_path):
    code = main([
        "simulate", "--scenario", str(SCENARIOS / "clean_50hz.json"),
        "--k", "1.56", "--f-bw", "55", "--duration", "0.5",
        "--out", str(tmp_path),
    ])
    assert code == 0


def test_simulate_bad_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"harmonics": []}')
    code = main([
        "simulate", "--scenario", str(bad), "--k", "1.56", "--f-bw", "55",
        "--out", str(tmp_path),
    ])
    assert code == 3


def test_simulate_leakage_window_writes_null_thd(tmp_path, capsys):
    # 0.65 s leaves three whole cycles after the jump, too few for the
    # THD fit: the run still writes its trace and every other metric
    code = main([
        "simulate", "--scenario", str(SCENARIOS / "phase_jump_90deg.json"),
        "--k", "1.56", "--f-bw", "29.5", "--duration", "0.65",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out, err = capsys.readouterr()
    assert "thd=n/a" in out
    assert err == ""
    assert (tmp_path / "trace.csv").stat().st_size > 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["steady_thd_pct"] is None
    assert metrics["steady_thd_reason"].startswith("leakage window")
    assert metrics["settled"] is True
    assert math.isfinite(metrics["peak_freq_excursion_hz"])


def test_simulate_tail_under_one_cycle_writes_null_line(tmp_path, capsys):
    # 0.6 s leaves 19 ms after the settled jump, under one 50 Hz cycle:
    # neither the line nor the THD is measured, the ripple peak is, and
    # the run still writes its trace and every other metric
    code = main([
        "simulate", "--scenario", str(SCENARIOS / "phase_jump_90deg.json"),
        "--k", "1.56", "--f-bw", "29.5", "--duration", "0.6",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out, err = capsys.readouterr()
    assert re.search(r"line=n/a ripple=\d+\.\d{4} Hz thd=n/a", out)
    assert err == ""
    assert (tmp_path / "trace.csv").stat().st_size > 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["freq_line_hz"] is None
    assert metrics["freq_line_reason"] == (
        "trace shorter than one cycle in the 0.0193 s steady tail of 50 Hz")
    assert math.isfinite(metrics["freq_ripple_peak_hz"])
    assert "freq_ripple_peak_reason" not in metrics
    assert metrics["steady_thd_pct"] is None
    assert metrics["steady_thd_reason"].startswith("leakage window")
    assert metrics["settled"] is True
    assert math.isfinite(metrics["peak_freq_excursion_hz"])


def test_simulate_short_trace_after_event_exit_code(tmp_path, capsys):
    # 0.55 s leaves less than 0.1 s after the 0.5 s jump
    code = main([
        "simulate", "--scenario", str(SCENARIOS / "phase_jump_90deg.json"),
        "--k", "1.56", "--f-bw", "29.5", "--duration", "0.55",
        "--out", str(tmp_path),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert ("error: analysis failed: trace must extend at least 0.1 s past "
            "the event") in err
    assert "Traceback" not in err


def test_simulate_divergence_exit_code(tmp_path, capsys):
    # an absurd input amplitude overflows the loop states
    scenario = json.loads((SCENARIOS / "clean_50hz.json").read_text())
    scenario["fundamental"]["amplitude"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "simulate", "--scenario", str(path), "--k", "1.56",
            "--f-bw", "29.5", "--duration", "0.2", "--out", str(out),
        ])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numerical divergence at sample ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (out / "metrics.json").exists()


def test_simulate_missing_design_exit_code(tmp_path):
    code = main([
        "simulate", "--scenario", str(SCENARIOS / "clean_50hz.json"),
        "--out", str(tmp_path),
    ])
    assert code == 3


CLEAN = str(SCENARIOS / "clean_50hz.json")


@pytest.mark.parametrize("command", ["design", "simulate", "analyze",
                                     "sweep", "compare"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unwritable_out_exit_code(design_dir, tmp_path, capsys, command,
                                  under):
    # --out names an existing file, or a directory below one: an output
    # that cannot be written exits 3 with its path, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    argv = {
        "design": ["design", "--method", "mtsd"],
        "simulate": ["simulate", "--scenario", CLEAN, "--k", "1.56",
                     "--f-bw", "55", "--duration", "0.3"],
        "analyze": ["analyze", "--scenario", CLEAN, "--k", "1.56",
                    "--f-bw", "55"],
        "sweep": ["sweep", "--k", "1.56", "--f-bw", "55"],
        "compare": ["compare", "--designs", str(design_dir / "design.json"),
                    "--frequencies", "50", "--duration", "0.4"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 3
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert blocker.read_text() == ""


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """A valid design file, one with a NaN ``kp``, three with an HGI gain
    whose step response never settles (1e305, 1e306 and the subnormal
    1e-320), one sampled at 2 ms (omega0 * Ts = 0.63, past the
    forward-Euler guard), one at the subnormal 5e-324 s, two with an
    ``f_bw_hz`` of Infinity and NaN, a scenario with a NaN fundamental
    frequency, one at 1e308 Hz
    (2*pi*f overflows) and one at a subnormal 1e-320 Hz, two with a NaN
    event value, one with an infinite event time and two with a frequency
    step to 0 Hz and below.  Malformed ones: a design file holding a
    list, one with a null ``kp`` and one with a 401-digit integer ``kp``;
    a scenario whose fundamental is a list, one with a string frequency
    and three with a harmonic order that is a string fraction, 1e400
    (inf) and the fraction 3.7.  Two scenarios whose harmonic amplitudes
    are 1e200 and 1.7e308: the predicted THD overflows.  Unreadable ones:
    a scenario that is not UTF-8, one with a 5,000-digit integer amplitude
    (past Python's integer-digit limit) and a file of 100,000 nested
    ``[``, given as a scenario and as a design file."""
    tmp = tmp_path_factory.mktemp("inputs")
    files = {name: tmp / f"{name}.json"
             for name in ("design", "nan_design", "k1e305_design",
                          "k1e306_design", "k1e-320_design", "ts2ms_design",
                          "ts5e-324_design", "inf_f_bw_design",
                          "nan_f_bw_design", "nan_scenario",
                          "huge_frequency_scenario", "tiny_frequency_scenario",
                          "nan_phase_jump",
                          "nan_frequency_step", "inf_event_time",
                          "zero_frequency_step", "negative_frequency_step",
                          "list_design", "null_kp_design", "big_kp_design",
                          "list_fundamental", "string_frequency",
                          "string_order", "inf_order", "fraction_order",
                          "big_harmonics", "huge_harmonics",
                          "latin1_scenario", "big_int_scenario", "nested")}
    design = build_design(1.56, 55.0, "inline")
    save_design(design, files["design"])
    files["nan_design"].write_text(
        json.dumps({**design.to_dict(), "kp": float("nan")}))
    for k in ("1e305", "1e306", "1e-320"):
        files[f"k{k}_design"].write_text(
            json.dumps({**design.to_dict(), "k": float(k)}))
    for name, ts in (("ts2ms", 2e-3), ("ts5e-324", 5e-324)):
        files[f"{name}_design"].write_text(
            json.dumps({**design.to_dict(), "sample_period_s": ts}))
    for name in ("inf", "nan"):
        files[f"{name}_f_bw_design"].write_text(
            json.dumps({**design.to_dict(), "f_bw_hz": float(name)}))
    scenario = json.loads((SCENARIOS / "clean_50hz.json").read_text())
    for name, f in (("nan", math.nan), ("huge_frequency", 1e308),
                    ("tiny_frequency", 1e-320)):
        scenario["fundamental"]["frequency_hz"] = f
        files[f"{name}_scenario"].write_text(json.dumps(scenario))
    scenario = json.loads((SCENARIOS / "phase_jump_90deg.json").read_text())
    for kind in ("phase_jump", "frequency_step"):
        scenario["events"] = [{"time_s": 0.5, "kind": kind,
                               "value": float("nan")}]
        files[f"nan_{kind}"].write_text(json.dumps(scenario))
    scenario["events"] = [{"time_s": float("inf"), "kind": "phase_jump",
                           "value": 1.0}]
    files["inf_event_time"].write_text(json.dumps(scenario))
    for name, f in (("zero", 0.0), ("negative", -50.0)):
        scenario["events"] = [{"time_s": 0.5, "kind": "frequency_step",
                               "value": f}]
        files[f"{name}_frequency_step"].write_text(json.dumps(scenario))
    files["list_design"].write_text("[]")
    files["null_kp_design"].write_text(
        json.dumps({**design.to_dict(), "kp": None}))
    files["big_kp_design"].write_text(
        json.dumps({**design.to_dict(), "kp": 0}).replace(
            '"kp": 0', '"kp": 1' + "0" * 400))
    scenario = json.loads((SCENARIOS / "clean_50hz.json").read_text())
    files["list_fundamental"].write_text(
        json.dumps({**scenario, "fundamental": []}))
    files["string_frequency"].write_text(json.dumps(
        {**scenario, "fundamental": {"frequency_hz": "abc"}}))
    for name, order in (("string", '"3.7"'), ("inf", "1e400"),
                        ("fraction", "3.7")):
        files[f"{name}_order"].write_text(json.dumps(
            {**scenario, "harmonics": [{"order": 0, "amplitude": 0.01}]}
        ).replace('"order": 0', f'"order": {order}'))
    scenario = json.loads((SCENARIOS / "freq_46hz_thd_5pct.json").read_text())
    for name, amplitude in (("big", 1e200), ("huge", 1.7e308)):
        for h in scenario["harmonics"]:
            h["amplitude"] = amplitude
        files[f"{name}_harmonics"].write_text(json.dumps(scenario))
    files["latin1_scenario"].write_bytes(
        b'{"fundamental": {"frequency_hz": 50.0}, "note": "caf\xe9"}')
    scenario = json.loads((SCENARIOS / "clean_50hz.json").read_text())
    files["big_int_scenario"].write_text(json.dumps(
        {**scenario, "harmonics": [{"order": 3, "amplitude": 0}]}
    ).replace('"amplitude": 0', '"amplitude": 1' + "0" * 4999))
    files["nested"].write_text("[" * 100_000)
    return files


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--scenario", CLEAN, "--k", "0.01", "--f-bw", "30",
      "--duration", "0.3"],
     "invalid parameters: the HGI step response at k = 0.01 does not "
     "settle within 1 s"),
    # a slow-pole time constant of 1 s or more is refused before the pole
    # arithmetic, which underflows, divides by zero or overflows there
    (["simulate", "--scenario", CLEAN, "--k", "1e-310", "--f-bw", "29.5"],
     "invalid parameters: the HGI step response at k = 1e-310 does not "
     "settle within 1 s"),
    (["simulate", "--scenario", CLEAN, "--k", "1e150", "--f-bw", "29.5"],
     "invalid parameters: the HGI step response at k = 1e+150 does not "
     "settle within 1 s"),
    (["design", "--k-range", "0.01", "0.02"],
     "invalid constraints: the HGI step response at k = 0.01 does not "
     "settle within 1 s"),
    (["design", "--method", "mtsd", "--input-thd", "0.05"],
     "invalid constraints: the deviation-only design requires input_thd = 0"),
    (["simulate", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "30",
      "--duration", "1e-9"],
     "invalid parameters: duration must span at least one sample"),
    # NaN and infinite values fail every range check
    (["simulate", "--scenario", CLEAN, "--k", "nan", "--f-bw", "30"],
     "invalid parameters: k must be finite and > 0"),
    (["simulate", "--scenario", CLEAN, "--k", "inf", "--f-bw", "30"],
     "invalid parameters: k must be finite and > 0"),
    (["simulate", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "nan"],
     "invalid parameters: f_bw must be finite and > 0"),
    (["simulate", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "inf"],
     "invalid parameters: f_bw must be finite and > 0"),
    # w_bw**2 overflows a float past about 2.1e153 Hz
    (["simulate", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "1e300"],
     "invalid parameters: kp and ki must be finite and > 0"),
    (["analyze", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "1e300"],
     "invalid parameters: kp and ki must be finite and > 0"),
    (["sweep", "--k", "1.56", "--f-bw", "1e300"],
     "invalid parameters: kp and ki must be finite and > 0"),
    (["simulate", "--scenario", CLEAN, "--design", "{nan_design}"],
     "invalid design file {nan_design}: kp and ki must be finite and > 0"),
    # a design file's gain is checked as an inline --k is, on load
    (["simulate", "--scenario", CLEAN, "--design", "{k1e-320_design}"],
     "invalid design file {k1e-320_design}: the HGI step response at "
     "k = 9.99989e-321 does not settle within 1 s"),
    (["simulate", "--scenario", CLEAN, "--design", "{k1e-320_design}",
      "--mode", "fixed16"],
     "invalid design file {k1e-320_design}: the HGI step response at "
     "k = 9.99989e-321 does not settle within 1 s"),
    (["simulate", "--scenario", CLEAN, "--design", "{k1e305_design}",
      "--duration", "0.2"],
     "invalid design file {k1e305_design}: the HGI step response at "
     "k = 1e+305 does not settle within 1 s"),
    (["simulate", "--scenario", CLEAN, "--design", "{k1e305_design}",
      "--duration", "0.2", "--mode", "fixed16"],
     "invalid design file {k1e305_design}: the HGI step response at "
     "k = 1e+305 does not settle within 1 s"),
    (["simulate", "--scenario", CLEAN, "--design", "{k1e306_design}",
      "--duration", "0.2"],
     "invalid design file {k1e306_design}: the HGI step response at "
     "k = 1e+306 does not settle within 1 s"),
    (["simulate", "--scenario", CLEAN, "--design", "{k1e306_design}",
      "--duration", "0.2", "--mode", "fixed16"],
     "invalid design file {k1e306_design}: the HGI step response at "
     "k = 1e+306 does not settle within 1 s"),
    (["simulate", "--scenario", "{nan_scenario}", "--design", "{design}"],
     "invalid scenario {nan_scenario}: fundamental frequency must be finite "
     "and > 0"),
    (["analyze", "--scenario", "{nan_scenario}", "--design", "{design}"],
     "invalid scenario {nan_scenario}: fundamental frequency must be finite "
     "and > 0"),
    (["simulate", "--scenario", "{nan_phase_jump}", "--k", "1.56", "--f-bw",
      "29.5", "--duration", "0.7"],
     "invalid scenario {nan_phase_jump}: event value must be finite"),
    (["simulate", "--scenario", "{nan_frequency_step}", "--k", "1.56",
      "--f-bw", "29.5", "--duration", "0.7"],
     "invalid scenario {nan_frequency_step}: event value must be finite"),
    (["simulate", "--scenario", "{inf_event_time}", "--k", "1.56", "--f-bw",
      "29.5", "--duration", "0.7"],
     "invalid scenario {inf_event_time}: event time must be finite and >= 0"),
    # a frequency step to 0 Hz or below, as the fundamental is refused
    (["simulate", "--scenario", "{zero_frequency_step}", "--k", "1.56",
      "--f-bw", "29.5", "--duration", "0.7"],
     "invalid scenario {zero_frequency_step}: frequency_step value must be "
     "> 0"),
    (["simulate", "--scenario", "{negative_frequency_step}", "--k", "1.56",
      "--f-bw", "29.5", "--duration", "0.7"],
     "invalid scenario {negative_frequency_step}: frequency_step value must "
     "be > 0"),
    (["design", "--method", "hc-mtsd", "--input-thd", "nan"],
     "invalid constraints: input_thd must be >= 0 and finite"),
    (["design", "--method", "hc-mtsd", "--input-thd", "inf"],
     "invalid constraints: input_thd must be >= 0 and finite"),
    (["sweep", "--design", "{design}", "--frequencies", "nan"],
     "analysis failed: omega must be finite"),
    (["sweep", "--design", "{design}", "--input-thds", "nan"],
     "invalid parameters: input_thd must be >= 0 and finite"),
    (["compare", "--designs", "{design}", "--frequencies", "nan"],
     "analysis failed: omega must be finite"),
    (["compare", "--designs", "{design}", "--input-thd", "nan"],
     "invalid parameters: input_thd must be >= 0 and finite"),
    # each asks for petabytes, so the allocation fails at once
    (["simulate", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "29.5",
      "--duration", "1e12"],
     "input too large: out of memory"),
    (["design", "--f-bw-range", "1", "1e15"],
     "input too large: out of memory"),
    (["design", "--k-range", "0.1", "1e15"],
     "input too large: out of memory"),
    # past 2**63 grid points, up to a span whose step count is inf
    (["design", "--k-range", "0.5", "1e308"],
     "invalid constraints: grid has too many points"),
    (["design", "--method", "hc-mtsd", "--f-bw-range", "5", "1e308"],
     "invalid constraints: grid has too many points"),
    # past 2**63 samples numpy cannot even size the array, and at 1e308 s
    # the sample count is inf
    (["simulate", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "29.5",
      "--duration", "1e150"],
     "invalid parameters: duration 1e+150 s at sample period 5e-05 s spans "
     "more samples than an array can index"),
    (["simulate", "--scenario", CLEAN, "--k", "1.56", "--f-bw", "29.5",
      "--duration", "1e308"],
     "invalid parameters: duration 1e+308 s at sample period 5e-05 s spans "
     "more samples than an array can index"),
    # a design file's subnormal sample period makes the default 1 s too
    # many samples; the message names the period, not only the duration
    (["simulate", "--scenario", CLEAN, "--design", "{ts5e-324_design}"],
     "invalid parameters: duration 1 s at sample period 4.94066e-324 s "
     "spans more samples than an array can index"),
    (["compare", "--designs", "{ts5e-324_design}", "--frequencies", "46"],
     "invalid parameters: duration 1 s at sample period 4.94066e-324 s "
     "spans more samples than an array can index"),
    (["simulate", "--scenario", "{huge_frequency_scenario}", "--k", "1.56",
      "--f-bw", "29.5", "--duration", "0.3"],
     "invalid scenario {huge_frequency_scenario}: fundamental frequency "
     "must be finite and > 0"),
    # f*Ts underflows to 0: not one cycle to measure the ripple on
    (["simulate", "--scenario", "{tiny_frequency_scenario}", "--k", "1.56",
      "--f-bw", "29.5", "--duration", "0.3"],
     "analysis failed: trace shorter than one cycle"),
    (["compare", "--designs", "{design}", "--frequencies", "1e308",
      "--duration", "0.3"],
     "analysis failed: omega must be finite"),
    # a design file's sample period is checked on load, as its k is
    (["simulate", "--scenario", CLEAN, "--design", "{ts2ms_design}"],
     "invalid design file {ts2ms_design}: sample rate too low for Euler "
     "stability"),
    (["compare", "--designs", "{design}", "{ts2ms_design}", "--frequencies",
      "46"],
     "invalid design file {ts2ms_design}: sample rate too low for Euler "
     "stability"),
    # a design file's loop bandwidth is checked on load, as its gains are
    (["sweep", "--design", "{inf_f_bw_design}"],
     "invalid design file {inf_f_bw_design}: loop bandwidth must be finite "
     "and > 0"),
    (["compare", "--designs", "{design}", "{nan_f_bw_design}"],
     "invalid design file {nan_f_bw_design}: loop bandwidth must be finite "
     "and > 0"),
    # a malformed file is refused, not a traceback; a ScenarioError's
    # own message is not wrapped
    (["analyze", "--scenario", "{list_fundamental}", "--k", "1.56",
      "--f-bw", "29.5"],
     "invalid scenario {list_fundamental}: invalid scenario file: 'list' "
     "object has no attribute 'get'"),
    (["analyze", "--scenario", "{string_frequency}", "--k", "1.56",
      "--f-bw", "29.5"],
     "invalid scenario {string_frequency}: invalid scenario file: could "
     "not convert string to float: 'abc'"),
    (["analyze", "--scenario", "{string_order}", "--k", "1.56", "--f-bw",
      "29.5"],
     "invalid scenario {string_order}: invalid scenario file: invalid "
     "literal for int() with base 10: '3.7'"),
    (["analyze", "--scenario", "{inf_order}", "--k", "1.56", "--f-bw",
      "29.5"],
     "invalid scenario {inf_order}: invalid scenario file: cannot convert "
     "float infinity to integer"),
    # a fractional order is refused, not cut to order 3
    (["analyze", "--scenario", "{fraction_order}", "--k", "1.56", "--f-bw",
      "29.5"],
     "invalid scenario {fraction_order}: harmonic order must be an "
     "integer, got 3.7"),
    (["simulate", "--scenario", "{fraction_order}", "--k", "1.56",
      "--f-bw", "29.5"],
     "invalid scenario {fraction_order}: harmonic order must be an "
     "integer, got 3.7"),
    (["analyze", "--scenario", CLEAN, "--design", "{list_design}"],
     "invalid design file {list_design}: list indices must be integers or "
     "slices, not str"),
    (["simulate", "--scenario", CLEAN, "--design", "{list_design}"],
     "invalid design file {list_design}: list indices must be integers or "
     "slices, not str"),
    (["simulate", "--scenario", CLEAN, "--design", "{null_kp_design}"],
     "invalid design file {null_kp_design}: float() argument must be a "
     "string or a real number, not 'NoneType'"),
    (["analyze", "--scenario", CLEAN, "--design", "{null_kp_design}"],
     "invalid design file {null_kp_design}: float() argument must be a "
     "string or a real number, not 'NoneType'"),
    (["sweep", "--design", "{null_kp_design}"],
     "invalid design file {null_kp_design}: float() argument must be a "
     "string or a real number, not 'NoneType'"),
    (["compare", "--designs", "{design}", "{null_kp_design}"],
     "invalid design file {null_kp_design}: float() argument must be a "
     "string or a real number, not 'NoneType'"),
    (["simulate", "--scenario", CLEAN, "--design", "{big_kp_design}"],
     "invalid design file {big_kp_design}: int too large to convert to "
     "float"),
    # an analytical THD that overflows is refused, compare's before it
    # simulates; at 1.7e308 the harmonic terms themselves overflow
    (["sweep", "--k", "1.56", "--f-bw", "29.5", "--frequencies", "46", "50",
      "--input-thds", "1e308"],
     "analysis failed: the predicted unit-vector THD overflows"),
    (["compare", "--designs", "{design}", "--frequencies", "46",
      "--input-thd", "1e200"],
     "analysis failed: the predicted unit-vector THD overflows"),
    (["analyze", "--scenario", "{big_harmonics}", "--k", "1.56",
      "--f-bw", "29.5"],
     "analysis failed: the predicted unit-vector THD overflows"),
    (["analyze", "--scenario", "{huge_harmonics}", "--k", "1.56",
      "--f-bw", "29.5"],
     "analysis failed: the predicted unit-vector THD overflows"),
    # a file that cannot be decoded or parsed is refused as either kind
    (["simulate", "--scenario", "{latin1_scenario}", "--k", "1.56",
      "--f-bw", "29.5"],
     "invalid scenario {latin1_scenario}: 'utf-8' codec can't decode byte "
     "0xe9 in position 52: invalid continuation byte"),
    (["analyze", "--scenario", "{latin1_scenario}", "--k", "1.56",
      "--f-bw", "29.5"],
     "invalid scenario {latin1_scenario}: 'utf-8' codec can't decode byte "
     "0xe9 in position 52: invalid continuation byte"),
    (["analyze", "--scenario", "{big_int_scenario}", "--k", "1.56",
      "--f-bw", "29.5"],
     "invalid scenario {big_int_scenario}: Exceeds the limit (4300 digits) "
     "for integer string conversion: value has 5000 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
    (["simulate", "--scenario", "{nested}", "--k", "1.56", "--f-bw", "29.5"],
     "invalid scenario {nested}: maximum recursion depth exceeded while "
     "decoding a JSON array from a unicode string"),
    (["sweep", "--design", "{nested}"],
     "invalid design file {nested}: maximum recursion depth exceeded while "
     "decoding a JSON array from a unicode string"),
    (["compare", "--designs", "{design}", "{nested}"],
     "invalid design file {nested}: maximum recursion depth exceeded while "
     "decoding a JSON array from a unicode string"),
    # an input THD whose 3rd-harmonic amplitude overflows is named as such
    (["design", "--method", "hc-mtsd", "--input-thd", "1e308"],
     "invalid constraints: input_thd 1e+308 overflows the harmonic "
     "amplitudes"),
    (["compare", "--designs", "{design}", "--input-thd", "1e308"],
     "invalid parameters: input_thd 1e+308 overflows the harmonic "
     "amplitudes"),
], ids=["simulate-unsettled-k", "simulate-k-subnormal", "simulate-k-1e150",
        "design-unsettled-k", "design-mtsd-input-thd",
        "simulate-no-sample", "simulate-k-nan", "simulate-k-inf",
        "simulate-f-bw-nan", "simulate-f-bw-inf", "simulate-f-bw-1e300",
        "analyze-f-bw-1e300", "sweep-f-bw-1e300", "simulate-design-kp-nan",
        "simulate-design-k-subnormal", "simulate-design-k-subnormal-fixed16",
        "simulate-design-k1e305-float64", "simulate-design-k1e305-fixed16",
        "simulate-design-k1e306-float64", "simulate-design-k1e306-fixed16",
        "simulate-scenario-frequency-nan", "analyze-scenario-frequency-nan",
        "simulate-phase-jump-nan", "simulate-frequency-step-nan",
        "simulate-event-time-inf", "simulate-frequency-step-zero",
        "simulate-frequency-step-negative",
        "design-input-thd-nan", "design-input-thd-inf",
        "sweep-frequencies-nan", "sweep-input-thds-nan",
        "compare-frequencies-nan", "compare-input-thd-nan",
        "simulate-duration-too-large", "design-f-bw-range-too-large",
        "design-k-range-too-large", "design-k-range-1e308",
        "design-f-bw-range-1e308", "simulate-duration-past-array-index",
        "simulate-duration-inf-samples", "simulate-design-ts-subnormal",
        "compare-design-ts-subnormal", "simulate-scenario-frequency-1e308",
        "simulate-scenario-frequency-subnormal", "compare-frequencies-1e308",
        "simulate-design-euler-unstable", "compare-design-euler-unstable",
        "sweep-design-f-bw-inf", "compare-design-f-bw-nan",
        "analyze-scenario-fundamental-list",
        "analyze-scenario-frequency-string", "analyze-scenario-order-string",
        "analyze-scenario-order-inf", "analyze-scenario-order-fraction",
        "simulate-scenario-order-fraction", "analyze-design-list",
        "simulate-design-list", "simulate-design-kp-null",
        "analyze-design-kp-null", "sweep-design-kp-null",
        "compare-design-kp-null", "simulate-design-kp-int-too-large",
        "sweep-thd-overflow", "compare-thd-overflow",
        "analyze-thd-overflow", "analyze-harmonic-terms-overflow",
        "simulate-scenario-not-utf8", "analyze-scenario-not-utf8",
        "analyze-scenario-int-past-digit-limit",
        "simulate-scenario-nested-too-deep", "sweep-design-nested-too-deep",
        "compare-design-nested-too-deep", "design-input-thd-1e308",
        "compare-input-thd-1e308"])
def test_rejected_input_exit_code(tmp_path, capsys, input_files, argv,
                                  message):
    out = tmp_path / "out"
    argv = [a.format(**input_files) for a in argv]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n".format(
        **input_files)
    assert not out.exists()


def test_analyze_breakdown(tmp_path, capsys):
    code = main([
        "analyze", "--scenario", str(SCENARIOS / "freq_46hz_thd_5pct.json"),
        "--k", "1.56", "--f-bw", "55", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "unit-vector THD" in out
    lines = (tmp_path / "breakdown.csv").read_text().splitlines()
    assert lines[0] == "order,amplitude_pu,phase_rad"
    assert len(lines) > 3


def test_sweep_grid_spot_value(tmp_path):
    code = main([
        "sweep", "--k", "1.56", "--f-bw", "55",
        "--frequencies", "46", "50", "--input-thds", "0", "5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "thd_grid.csv").read_text().splitlines()
    assert rows[0] == "frequency_hz,input_thd_pct,unit_vector_thd_pct"
    cell = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows[1:]}
    assert cell[("46", "5")] == pytest.approx(1.7, abs=0.2)


def test_sweep_and_compare_analyse_the_design_file_gains(tmp_path):
    # gains for Ts = 100 us; rebuilding them at the default 50 us would
    # put 1.7770 % in the analytical column instead
    design = build_design(1.56, 55.0, "ts100us", sample_period=1e-4)
    path = tmp_path / "design.json"
    save_design(design, path)
    common = ["--frequencies", "46", "--out", str(tmp_path)]
    assert main(["sweep", "--design", str(path), "--input-thds", "5",
                 *common]) == 0
    rows = (tmp_path / "thd_grid.csv").read_text().splitlines()
    assert rows[1] == "46,5,1.7698"
    assert main(["compare", "--designs", str(path), "--input-thd", "0.05",
                 "--duration", "0.8", *common]) == 0
    rows = (tmp_path / "compare.csv").read_text().splitlines()
    assert rows[1].split(",")[:3] == ["ts100us", "46", "1.7698"]


@pytest.mark.parametrize("command, design_flag, thd_flag, thd, output", [
    ("sweep", "--design", "--input-thds", "-1", "thd_grid.csv"),
    ("compare", "--designs", "--input-thd", "-0.01", "compare.csv"),
])
def test_invalid_input_thd_exit_code(design_dir, tmp_path, capsys, command,
                                     design_flag, thd_flag, thd, output):
    code = main([
        command, design_flag, str(design_dir / "design.json"), thd_flag, thd,
        "--frequencies", "46", "--out", str(tmp_path),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: invalid parameters: input_thd must be >= 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / output).exists()


def test_sweep_empty_grid(tmp_path, capsys):
    code = main([
        "sweep", "--k", "1.56", "--f-bw", "55", "--frequencies",
        "--out", str(tmp_path),
    ])
    assert code == 3
    assert "empty sweep" in capsys.readouterr().err


def test_compare_table(design_dir, tmp_path):
    code = main([
        "compare", "--designs", str(design_dir / "design.json"),
        "--frequencies", "46", "--duration", "0.8",
        "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "compare.csv").read_text().splitlines()
    assert rows[0] == "design,frequency_hz,analytical_thd_pct,simulated_thd_pct"
    _, _, analytical, simulated = rows[1].split(",")
    assert abs(float(analytical) - float(simulated)) < 0.3


def test_table_bytes(design_dir, tmp_path):
    # every table the CLI writes, byte for byte, csv's \r\n included:
    # the values and formats the commands wrote before they shared one
    # writer
    common = ["--k", "1.56", "--f-bw", "29.5"]
    assert main(["sweep", *common, "--frequencies", "46", "50",
                 "--input-thds", "0", "5", "--out", str(tmp_path)]) == 0
    assert main(["analyze", *common, "--scenario",
                 str(SCENARIOS / "freq_46hz_thd_5pct.json"),
                 "--out", str(tmp_path)]) == 0
    assert main(["compare", "--designs", str(design_dir / "design.json"),
                 "--frequencies", "46", "54", "--duration", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "thd_grid.csv").read_bytes() == (
        b"frequency_hz,input_thd_pct,unit_vector_thd_pct\r\n"
        b"46,0,0.6095\r\n46,5,1.0467\r\n50,0,0.0000\r\n50,5,0.5742\r\n")
    assert (tmp_path / "breakdown.csv").read_bytes() == (
        b"order,amplitude_pu,phase_rad\r\n"
        b"1,6.107324e-03,0.278663\r\n3,1.044486e-02,0.784923\r\n"
        b"5,5.421350e-04,-0.696520\r\n7,1.168399e-04,-0.851815\r\n"
        b"9,2.692912e-04,-2.925009\r\n11,2.834486e-04,-3.014063\r\n")
    assert (tmp_path / "compare.csv").read_bytes() == (
        b"design,frequency_hz,analytical_thd_pct,simulated_thd_pct\r\n"
        b"mtsd,46,1.7770,1.6423\r\nmtsd,54,0.8897,0.8109\r\n")
    assert (design_dir / "sweep.csv").read_bytes().startswith(
        b"f_bw_hz,k,t_sd_ms,feasible\r\n20,1.56,47.8050,1\r\n"
        b"20.5,1.56,47.0286,1\r\n21,1.56,46.2892,1\r\n")


def test_json_bytes(design_dir, tmp_path, monkeypatch):
    # every JSON file the toolkit writes, byte for byte: the layout each
    # writer used before they shared one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "jump.json").write_bytes(
        (SCENARIOS / "phase_jump_90deg.json").read_bytes())
    assert main(["simulate", "--scenario", "jump.json", "--k", "1.56",
                 "--f-bw", "29.5", "--duration", "0.6"]) == 0
    spec = GridSignalSpec(fundamental_frequency=49.5,
                          harmonics=harmonic_profile(0.05)[:2], dc_offset=0.1,
                          events=(TimedEvent(0.5, "phase_jump", 1.5),))
    save_scenario(spec, tmp_path / "scenario.json")
    assert (design_dir / "design.json").read_bytes() == (
        b'{\n  "schema_version": 1,\n  "method": "mtsd",\n  "k": 1.56,\n'
        b'  "f_bw_hz": 55.0,\n  "kp": 345.57519189487726,\n'
        b'  "ki": 2063.467713073953,\n  "sample_period_s": 5e-05,\n'
        b'  "t_s_hgi_s": 0.015974,\n  "t_s_srf_s": 0.011574904952137843,\n'
        b'  "t_sd_s": 0.02754890495213784\n}\n')
    assert (tmp_path / "metrics.json").read_bytes() == (
        b'{\n  "schema_version": 1,\n  "scenario": "jump.json",\n'
        b'  "topology": "hgi",\n  "mode": "float64",\n  "saturations": 0,\n'
        b'  "settle_time_s": 0.0307,\n  "settled": true,\n'
        b'  "peak_freq_excursion_hz": 21.680039259051256,\n'
        b'  "freq_line_hz": null,\n'
        b'  "freq_line_reason": "trace shorter than one cycle in the '
        b'0.0193 s steady tail of 50 Hz",\n'
        b'  "freq_ripple_peak_hz": 0.11637007807883037,\n'
        b'  "steady_thd_pct": null,\n'
        b'  "steady_thd_reason": "leakage window in the 0.0193 s steady tail '
        b'of 50 Hz"\n}\n')
    assert (tmp_path / "scenario.json").read_bytes() == (
        b'{\n  "schema_version": 1,\n  "fundamental": {\n'
        b'    "amplitude": 1.0,\n    "frequency_hz": 49.5,\n'
        b'    "phase_rad": 0.0\n  },\n  "harmonics": [\n'
        b'    {\n      "order": 3,\n      "amplitude": 0.0388686334250125,\n'
        b'      "phase_rad": 0.0\n    },\n'
        b'    {\n      "order": 5,\n      "amplitude": 0.0233211800550075,\n'
        b'      "phase_rad": 0.0\n    }\n  ],\n  "dc_offset": 0.1,\n'
        b'  "events": [\n    {\n      "time_s": 0.5,\n'
        b'      "kind": "phase_jump",\n      "value": 1.5\n    }\n  ]\n}\n')


def test_compare_without_a_simulated_thd_exit_code(design_dir, tmp_path,
                                                   capsys):
    # 0.3 s leaves 0.1 s past the start-up exclusion, under five cycles
    code = main([
        "compare", "--designs", str(design_dir / "design.json"),
        "--frequencies", "46", "--duration", "0.3",
        "--out", str(tmp_path),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: analysis failed: leakage window" in err
    assert not (tmp_path / "compare.csv").exists()


def test_compare_simulated_column_equals_a_direct_run(tmp_path):
    # the first two share k = 1.56 at 50 us, so one filter pass; the
    # others differ in k and in the sample period
    designs = [build_design(1.56, 55.0, "mtsd"),
               build_design(1.56, 29.5, "hc-mtsd"),
               build_design(1.0, 40.0, "k1"),
               build_design(1.56, 29.5, "ts100us", sample_period=1e-4)]
    paths = [str(tmp_path / f"{d.method}.json") for d in designs]
    for d, path in zip(designs, paths):
        save_design(d, path)
    freqs = (46.0, 53.0)
    assert main(["compare", "--designs", *paths,
                 "--frequencies", *map(str, freqs), "--input-thd", "0.05",
                 "--duration", "0.8", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
    want = []
    for path in paths:
        d = load_design(path)
        for f in freqs:
            trace = run(steady_spec(f, 0.05), d, 0.8)
            tail = trace.sin_theta[trace.steady_slice()]
            thd = line_fit(tail, f, trace.sample_period).thd()
            want.append((d.method, f"{f:g}", f"{thd:.4f}"))
    assert [(r.split(",")[0], r.split(",")[1], r.split(",")[3])
            for r in rows] == want


@pytest.mark.parametrize("diverging, duration, code, message", [
    # both tails are under five cycles, and the second design diverges
    (1, "0.3", 3,
     "analysis failed: leakage window in the 0.1 s steady tail of 46 Hz"),
    (0, "0.3", 4, "numerical divergence at sample 7 (t = 0.00035 s)"),
    (1, "0.8", 4, "numerical divergence at sample 7 (t = 0.00035 s)"),
])
def test_compare_reports_the_first_failure_in_design_order(
        tmp_path, capsys, monkeypatch, diverging, duration, code, message):
    # no design file makes a float64 loop diverge, so one design's run is
    # made to raise as a diverging one does
    def run_designs(spec, designs, duration, **kwargs):
        for i, trace in enumerate(sim.run_designs(spec, designs, duration,
                                                  **kwargs)):
            if i == diverging:
                raise SimulationError(message)
            yield trace

    monkeypatch.setattr(cli_mod, "run_designs", run_designs)
    paths = []
    for f_bw in (55.0, 29.5):
        paths.append(str(tmp_path / f"{f_bw:g}.json"))
        save_design(build_design(1.56, f_bw), paths[-1])
    assert main(["compare", "--designs", *paths, "--frequencies", "46",
                 "--duration", duration, "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "compare.csv").exists()


@settings(max_examples=15)
@example(designs=[(1.56, 55.0, 50e-6), (1.0, 40.0, 1e-4),
                  (2.2, 20.0, 50e-6)],
         freqs=[46.0, 53.5], input_thd=0.05, duration=0.5)
@given(designs=st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(10.0, 80.0),
                                  st.sampled_from([50e-6, 1e-4])),
                        min_size=1, max_size=3),
       freqs=st.lists(st.floats(45.0, 55.0), min_size=1, max_size=2,
                      unique=True),
       input_thd=st.floats(0.0, 0.05),
       duration=st.floats(0.3, 0.6))
def test_compare_simulated_values_equal_direct_runs(tmp_path_factory, designs,
                                                    freqs, input_thd,
                                                    duration):
    # compare's simulated THD of every (frequency, design), taken where it
    # leaves the stacked fit, against simulate's steady THD of a direct
    # run, bit for bit; where a run fails, compare reports the first
    # failure in (frequency, design) order
    tmp = tmp_path_factory.mktemp("compare")
    paths = []
    for i, (k, f_bw, ts) in enumerate(designs):
        paths.append(str(tmp / f"d{i}.json"))
        save_design(build_design(k, f_bw, f"d{i}", sample_period=ts),
                    paths[-1])
    loaded = [load_design(path) for path in paths]
    got = {}

    def spy(traces, f):
        traces = list(traces)
        results = steady_thds(traces, f)
        # the traces arrive in design order, up to the first that fails
        assert [t.sample_period for t in traces] == [
            d.pi.sample_period for d in loaded[:len(traces)]]
        got.update(((f, i), r) for i, r in enumerate(results))
        return results

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.setattr(cli_mod, "steady_thds", spy)
        code = main(["compare", "--designs", *paths,
                     "--frequencies", *(f" {f!r}" for f in freqs),
                     f"--input-thd={input_thd!r}", f"--duration={duration!r}",
                     "--out", str(tmp / "out")])
    want, failure = {}, None
    for f in freqs:
        for i, d in enumerate(loaded):
            try:
                metrics = transient_metrics(
                    run(steady_spec(f, input_thd), d, duration),
                    fundamental_hz=f)
                thd, reason = metrics.steady_thd, metrics.steady_thd_reason
                if thd is None and failure is None:
                    failure = (3, f"analysis failed: {reason}")
            except SimulationError as exc:
                thd = None
                if failure is None:
                    failure = (4, str(exc))
            want[f, i] = thd
    if failure is not None:
        assert (code, err.getvalue()) == (failure[0],
                                          f"error: {failure[1]}\n")
        return
    assert code == 0 and err.getvalue() == ""
    assert {key: (thd.hex(), None) for key, thd in want.items()} == {
        key: (thd.hex(), reason) for key, (thd, reason) in got.items()}
    rows = (tmp / "out" / "compare.csv").read_text().splitlines()[1:]
    assert [r.split(",")[3] for r in rows] == [
        f"{want[f, i]:.4f}" for i in range(len(loaded)) for f in freqs]


def test_deterministic_reruns(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main([
            "simulate", "--scenario", str(SCENARIOS / "clean_50hz.json"),
            "--k", "1.56", "--f-bw", "55", "--duration", "0.5",
            "--out", str(out),
        ])
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]


#: values no range check should let through, and the extremes that pass
ODD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                              -1.0, -50.0, 1e-320, 1e150, 1e308, -1e308])


def _values(finite):
    # two finite draws for each odd one, so that some examples get past
    # every check and run
    return st.one_of(finite, finite, ODD_VALUES)


def _design_file(path, k, f_bw):
    """A design file with the gains ``pi_from_bandwidth`` would give, in
    float arithmetic that saturates to inf or NaN instead of raising."""
    w = 2 * math.pi * f_bw
    path.write_text(json.dumps({
        "schema_version": 1, "method": "drawn", "k": k, "f_bw_hz": f_bw,
        "kp": w, "ki": w * SAMPLE_PERIOD * w * w,
        "sample_period_s": SAMPLE_PERIOD,
    }))


def _scenario_file(path, frequency):
    scenario = json.loads((SCENARIOS / "clean_50hz.json").read_text())
    scenario["fundamental"]["frequency_hz"] = frequency
    path.write_text(json.dumps(scenario))
    return str(path)


@settings(max_examples=150)
@given(command=st.sampled_from(["simulate", "compare", "design", "sweep",
                                "analyze"]),
       k=_values(st.floats(0.5, 3.0)),
       f_bw=_values(st.floats(5.0, 100.0)),
       duration=_values(st.floats(0.0, 0.3)),
       frequency=_values(st.floats(40.0, 60.0)),
       input_thd=_values(st.floats(0.0, 0.1)),
       mode=st.sampled_from(["float64", "fixed16"]),
       method=st.sampled_from(["mtsd", "hc-mtsd"]),
       k_range=st.tuples(_values(st.floats(0.5, 3.0)),
                         _values(st.floats(0.5, 3.0))),
       f_bw_range=st.tuples(_values(st.floats(5.0, 100.0)),
                            _values(st.floats(5.0, 100.0))),
       delta_f=_values(st.floats(0.0, 0.2)),
       uthd_limit=_values(st.floats(0.001, 0.05)))
def test_cli_exits_with_a_documented_code(tmp_path_factory, command, k, f_bw,
                                          duration, frequency, input_thd,
                                          mode, method, k_range, f_bw_range,
                                          delta_f, uthd_limit):
    tmp = tmp_path_factory.mktemp("cli")
    # "--opt=value", or a leading space where an option takes several
    # values, keeps argparse from reading "-inf" as an option
    inline = [f"--k={k!r}", f"--f-bw={f_bw!r}"]
    if command == "simulate":
        argv = ["simulate", "--scenario",
                _scenario_file(tmp / "scenario.json", frequency),
                *inline, f"--mode={mode}", f"--duration={duration!r}"]
    elif command == "compare":
        _design_file(tmp / "design.json", k, f_bw)
        argv = ["compare", "--designs", str(tmp / "design.json"),
                f"--frequencies={frequency!r}", f"--input-thd={input_thd!r}",
                f"--duration={duration!r}"]
    elif command == "design":
        # the ranges' finite draws keep a design sweep under about 1 s
        argv = ["design", f"--method={method}",
                "--k-range", *(f" {v!r}" for v in k_range),
                "--f-bw-range", *(f" {v!r}" for v in f_bw_range),
                f"--delta-f={delta_f!r}", f"--uthd-limit={uthd_limit!r}"]
        if method == "hc-mtsd":
            argv.append(f"--input-thd={input_thd!r}")
    elif command == "sweep":
        argv = ["sweep", *inline, "--frequencies", f" {frequency!r}",
                "--input-thds", f" {100 * input_thd!r}"]
    else:
        argv = ["analyze", "--scenario",
                _scenario_file(tmp / "scenario.json", frequency), *inline]
    argv += ["--out", str(tmp / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue()
