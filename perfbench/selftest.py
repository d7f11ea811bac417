"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's own test run does not
collect it; the smoke test runs the verify battery once (~2 s).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from itertools import count
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Recorder, instrument  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check_output, expected_points, spread_order  # noqa: E402

eomsim = run.import_cli()
from eomsim.config import parse_config  # noqa: E402
from eomsim.phase_mod import MultitonePMConfig, PMConfig  # noqa: E402

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_configs(workload):
    make = WORKLOADS[workload]
    assert json.dumps(make(11)) == json.dumps(make(11))
    if workload != "verify-battery":
        assert json.dumps(make(11)) != json.dumps(make(12))


def _depths(pt):
    for arm in (pt.eom.pm1, pt.eom.pm2):
        if isinstance(arm, PMConfig):
            yield arm.m


# Parameter ranges each workload promises (see the generator docstrings).
RANGES = {
    "spectrum-sweep": dict(n0=(10, 100_000), m=(0.05, 50.0)),
    "two-photon-schmidt": dict(n0=(20, 300), m=(0.1, 5.0)),
    "mean-field-waveform": dict(n0=(100, 1000), m=(0.5, 10.0)),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_config_parses_and_stays_in_range(workload):
    for seed in SEEDS:
        for doc in WORKLOADS[workload](seed):
            rc = parse_config(json.dumps(doc))
            assert rc.command == doc["command"]
            assert len(rc.points) == expected_points(doc)
            for pt in rc.points:
                lo, hi = RANGES[workload]["n0"]
                assert lo <= pt.n0 <= hi
                for m in _depths(pt):
                    lo, hi = RANGES[workload]["m"]
                    assert lo <= m <= hi <= 50.0
                if workload == "mean-field-waveform":
                    assert 5000 <= len(pt.mean_field.times) <= 20000
                    arms = (pt.eom.pm1, pt.eom.pm2)
                    if isinstance(arms[0], MultitonePMConfig):
                        assert all(2 <= len(a.tones) <= 4 for a in arms)


def test_spread_order_prefixes_cover_the_range():
    for n in (12, 24, 48):
        order = spread_order(n)
        assert sorted(order) == list(range(n))
        for k in (4, n // 2):  # each prefix takes half its strata from the lower half
            assert abs(sum(s < n // 2 for s in order[:k]) - k / 2) <= 1


def test_quantile_is_harrell_davis():
    assert run.quantile([1.0], 0.5) == 1.0
    assert run.quantile([2.0, 1.0], 0.5) == pytest.approx(1.5)
    times = [float(i) for i in range(25)]
    assert run.quantile(times, 0.5) == pytest.approx(12.0)  # symmetric sample
    # Beta(1, 2) puts 3/4 of its weight below 1/2: 1 * 3/4 + 2 * 1/4
    assert run.quantile([2.0, 1.0], 1 / 3) == pytest.approx(5 / 4)


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(25)]
    value, pct, beyond = run.tail(times)
    assert pct == pytest.approx(100.0 * 15 / 26)  # order statistic 15 of 25: 10 beyond
    assert 13.5 < value < 14.5 and beyond >= 10
    value, pct, beyond = run.tail([3.0, 1.0, 2.0])  # too few: the smallest's percentile
    assert pct == 25.0 and 1.0 < value < 2.0 and beyond == 2


def test_config_times_are_shortest_over_repeats():
    ops = [(t, 1, None) for t in (2.0, 10.0, 3.0, 20.0, 1.0)]  # configs 0, 1, 0, 1, 0
    assert run.config_times(ops, 2) == [1.0, 10.0]


def test_self_time_of_nested_calls():
    rec = Recorder(clock=count().__next__)  # every clock read advances by 1
    leaf = rec.wrap("leaf", lambda: None)

    def inner_body():
        leaf()

    inner = rec.wrap("inner", inner_body)

    def outer_body():
        inner()
        inner()

    rec.wrap("outer", outer_body)()
    # outer [0, 9]; inner [1, 4] and [5, 8]; leaf [2, 3] and [6, 7]
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "inner", "leaf", "inner", "leaf"]
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0, 3]
    own = rec.self_times()
    assert own == [3, 2, 1, 2, 1]
    assert sum(own) == rec.spans[0][2] - rec.spans[0][1]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    rec = Recorder()
    rec.spans = [["p", 0.0, 10.0, -1, 0], ["a", 1.0, 3.0, 0, 0],
                 ["b", 2.0, 4.0, 0, 0], ["c", 9.0, 12.0, 0, 0]]
    assert rec.self_times()[0] == pytest.approx(10.0 - 3.0 - 1.0)


def test_instrument_wraps_every_binding_and_restores():
    modules = {name: getattr(eomsim, name) for name in run.MODULES}
    modules["eomsim"] = eomsim
    original = eomsim.phase_mod.pm_scatter_row
    rec = Recorder()
    restore = instrument(rec, modules, run.counters(rec))
    try:
        assert eomsim.engine.pm_scatter_row is eomsim.phase_mod.pm_scatter_row is not original
        assert eomsim.pm_scatter_row is eomsim.phase_mod.pm_scatter_row
        assert all(c.__wrapped__.__module__ == "eomsim.verify" for c in eomsim.verify.CHECKS)
        pm = eomsim.PMConfig(phi_b=0.0, m=1.0, theta_rf=0.0, tone=1)
        eomsim.single_photon_output(eomsim.preset("yb_dual", pm1=pm, pm2=pm), 1, 40)
    finally:
        restore()
    assert eomsim.engine.pm_scatter_row is original is eomsim.phase_mod.pm_scatter_row
    by_name = {s[0]: s for s in rec.spans}
    row = by_name["phase_mod.pm_scatter_row"]
    assert rec.spans[row[3]][0] == "engine.single_photon_output"
    assert rec.work["phase_mod.pm_scatter_row.entries"] > 0
    assert rec.work["special.bessel_j_array.row_orders"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_op_smoke_run_has_no_errors(workload, tmp_path):
    deck = run.Deck(workload, 5, tmp_path)
    seconds, points, error = deck.run(eomsim.cli, 0)
    assert error is None
    assert points >= 1 and seconds > 0


def _two_photon_csv(norm: float, sectors, svs) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(("point", "record", "k1", "k2", "k3", "k4", "re", "im", "value"))
    for name, p in zip(("both_port1", "split", "both_port2"), sectors):
        out.writerow((0, "sector", name, "", "", "", "", "", p))
    for i, s in enumerate(svs):
        out.writerow((0, "singular_value", i, "", "", "", "", "", s))
    out.writerow((0, "norm", "", "", "", "", "", "", norm))
    return buf.getvalue()


def test_checks_reject_broken_physics():
    doc = {"command": "two-photon", "output": {"format": "csv"}}
    check_output(doc, _two_photon_csv(1.0, (0.25, 0.5, 0.25), (0.8, 0.6)))
    with pytest.raises(CheckFailed):  # norm off
        check_output(doc, _two_photon_csv(0.9, (0.25, 0.4, 0.25), (0.8, 0.5)))
    with pytest.raises(CheckFailed):  # singular values do not carry the norm
        check_output(doc, _two_photon_csv(1.0, (0.25, 0.5, 0.25), (0.8, 0.5)))
    spec = {"command": "coherent", "model": "exact", "input": {"alpha": [1.0, 1.0]},
            "output": {"format": "json"}}
    rows = [{"prob": 1.5}, {"prob": 0.5}]
    check_output(spec, json.dumps({"points": [{"rows": rows}]}))
    with pytest.raises(CheckFailed):  # |alpha|^2 = 2 is not conserved
        check_output(spec, json.dumps({"points": [{"rows": rows[:1]}]}))
    verify = {"command": "verify", "output": {"format": "csv"}}
    with pytest.raises(CheckFailed):
        check_output(verify, "index,name,passed,detail\n1,a,true,x\n2,b,false,y\n")


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
