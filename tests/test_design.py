import math

import pytest
from hypothesis import given, settings, strategies as st

from hgipll import (
    DesignConstraints,
    HgiParams,
    InfeasibleDesignError,
    build_design,
    hc_mtsd_design,
    load_design,
    mtsd_design,
    predicted_thd,
    save_design,
    settling_times,
)


def test_constraint_validation():
    with pytest.raises(ValueError):
        DesignConstraints(uthd_limit=0.0)
    with pytest.raises(ValueError):
        DesignConstraints(delta_f=0.6)
    with pytest.raises(ValueError):
        DesignConstraints(f_bw_range=(30.0, 20.0))
    with pytest.raises(ValueError):
        DesignConstraints(k_range=(0.0, 4.0))


def test_constraint_ranges_are_stored_as_tuples():
    # a list, as argparse gives, is stored as the tuple it equals
    c = DesignConstraints(f_bw_range=[20.0, 30.0], k_range=[1.0, 2.0])
    assert (c.f_bw_range, c.k_range) == ((20.0, 30.0), (1.0, 2.0))
    assert hash(c) == hash(DesignConstraints(f_bw_range=(20.0, 30.0),
                                             k_range=(1.0, 2.0)))


def test_sweep_frequencies_cover_band():
    c = DesignConstraints(delta_f=0.08)
    freqs = c.sweep_frequencies()
    assert freqs[0] == pytest.approx(46.0)
    assert freqs[-1] == pytest.approx(54.0)
    assert 50.0 in freqs


def test_sweep_frequencies_zero_deviation():
    assert DesignConstraints(delta_f=0.0).sweep_frequencies() == [50.0]


def test_additive_settling_composition():
    t = build_design(1.56, 55.0).t_sd
    assert t == pytest.approx(15.97e-3 + 4 / (2 * math.pi * 55), abs=0.3e-3)


@pytest.mark.parametrize("k", [0.5, 1.56, 2.0, 3.0])
def test_settling_times_default_step_is_the_design_step(k):
    assert settling_times(HgiParams(k))[2] == build_design(k, 29.5).t_s_hgi


def test_predicted_thd_zero_at_nominal_clean():
    c = DesignConstraints()
    assert predicted_thd(1.56, 55.0, 50.0, 0.0, c) == 0.0


def test_predicted_thd_grows_with_bandwidth():
    c = DesignConstraints()
    assert predicted_thd(1.56, 55.0, 46.0, 0.0, c) > predicted_thd(
        1.56, 29.0, 46.0, 0.0, c
    )


def test_mtsd_zero_deviation_picks_top_of_range():
    design, _ = mtsd_design(DesignConstraints(delta_f=0.0))
    assert design.f_bw == pytest.approx(55.0)


def test_mtsd_rejects_input_thd():
    with pytest.raises(ValueError):
        mtsd_design(DesignConstraints(input_thd=0.05))


def test_mtsd_infeasible_raises():
    c = DesignConstraints(uthd_limit=0.001, f_bw_range=(50.0, 55.0))
    with pytest.raises(InfeasibleDesignError, match="THD limit"):
        mtsd_design(c)


def test_hc_mtsd_infeasible_raises():
    c = DesignConstraints(input_thd=0.05, uthd_limit=0.001)
    with pytest.raises(InfeasibleDesignError, match=r"\(bandwidth, k\)"):
        hc_mtsd_design(c)


def test_mtsd_published_design():
    design, report = mtsd_design(DesignConstraints())
    assert design.f_bw == pytest.approx(55.0, abs=0.5)
    assert design.k == pytest.approx(1.56, abs=0.02)
    assert design.t_sd == pytest.approx(27.6e-3, abs=0.5e-3)
    # the chosen design is the swept row of its bandwidth
    assert (design.f_bw, design.k, design.t_sd, True) in report.swept
    # the chosen design satisfies its own constraint
    c = DesignConstraints()
    for f in c.sweep_frequencies():
        assert c.thd_ok(predicted_thd(design.k, design.f_bw, f, 0.0, c))


def test_hc_mtsd_published_design():
    design, report = hc_mtsd_design(DesignConstraints(input_thd=0.05))
    assert design.f_bw == pytest.approx(29.0, abs=1.0)
    assert design.k == pytest.approx(1.56, abs=0.05)
    assert design.t_sd == pytest.approx(37.9e-3, abs=1e-3)
    c = DesignConstraints(input_thd=0.05)
    for f in c.sweep_frequencies():
        assert c.thd_ok(
            predicted_thd(design.k, design.f_bw, f, c.input_thd, c)
        )


def test_design_json_round_trip(tmp_path):
    design, _ = mtsd_design(DesignConstraints())
    path = tmp_path / "design.json"
    save_design(design, path)
    loaded = load_design(path)
    assert loaded == design
    assert loaded.to_dict()["schema_version"] == 1


@settings(max_examples=60)
@given(k=st.floats(0.1, 4.0), f_bw=st.floats(5.0, 100.0),
       sample_period=st.sampled_from([50e-6, 100e-6]))
def test_design_json_round_trip_property(tmp_path_factory, k, f_bw,
                                         sample_period):
    # loading recomputes the settling times, which must give the saved ones
    design = build_design(k, f_bw, "property", sample_period)
    path = tmp_path_factory.mktemp("design") / "design.json"
    save_design(design, path)
    saved = path.read_bytes()
    loaded = load_design(path)
    assert loaded == design
    save_design(loaded, path)
    assert path.read_bytes() == saved


def test_determinism():
    d1, _ = mtsd_design(DesignConstraints())
    d2, _ = mtsd_design(DesignConstraints())
    assert d1 == d2
