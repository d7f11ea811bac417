import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eomsim import verify
from eomsim.cli import CSV_HEADERS, RECORDS, _column_text, emit_run, main, run_points
from eomsim.config import parse_config
from eomsim.engine import PairTable
import regen_goldens
from regen_goldens import golden_runs

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

@pytest.mark.parametrize("command, config, golden", golden_runs())
def test_outputs_match_goldens_byte_for_byte(command, config, golden, tmp_path):
    out = tmp_path / golden
    rc = main([command, "--config", str(CONFIGS / config), "--format", out.suffix[1:],
               "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_every_golden_has_a_config_run():
    assert {path.name for path in GOLDEN.iterdir()} == {golden for _c, _f, golden in golden_runs()}


def test_regen_writes_the_checked_in_goldens(monkeypatch, tmp_path):
    monkeypatch.setattr(regen_goldens, "GOLDEN", tmp_path)
    regen_goldens.regen()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _json_dumps_run(command, points):
    """The run as json.dumps(indent=2) prints it, each record an object of its kind's keys."""
    keys = {kind: [key for key, _conversion in fields] for kind, fields in RECORDS.items()}
    points = [{field: [dict(zip(keys[field], r)) for r in _record_tuples(field, value)]
               if field in RECORDS else value for field, value in p.items()} for p in points]
    return json.dumps({"command": command, "points": points}, indent=2) + "\n"


def _record_tuples(kind, records):
    if kind == "pairs":  # a PairTable of columns
        return zip(*(column.tolist() for column in records))
    return records


@pytest.mark.parametrize("command, config", sorted({(c, f) for c, f, _golden in golden_runs()}))
def test_json_writer_equals_json_dumps_on_golden_runs(command, config):
    points = run_points(parse_config((CONFIGS / config).read_text()))
    text = emit_run(command, points, "json")
    assert text == _json_dumps_run(command, points)
    assert text == (GOLDEN / f"{Path(config).stem}.json").read_text(encoding="utf-8")


FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
INTS = st.integers(-(2**70), 2**70)
INT64S = st.integers(-(2**63), 2**63 - 1)
SCALARS = (INTS | FLOATS | st.sampled_from(["exact", "optical"]) | st.lists(FLOATS, max_size=3)
           | st.dictionaries(st.sampled_from(["both_port1", "split", "both_port2"]), FLOATS))


def _pair_table(records):
    columns = zip(*records) if records else [()] * len(PairTable._fields)
    return PairTable(*(np.array(column, dtype=np.int64 if conversion == "d" else np.float64)
                       for column, (_key, conversion) in zip(columns, RECORDS["pairs"])))


@st.composite
def _runs(draw):
    points = []
    for idx in range(draw(st.integers(0, 3))):
        point = {"point": idx}
        for field in draw(st.lists(st.sampled_from(["mode_in", "model", "norm", "alpha", "sectors"]),
                                   unique=True)):
            point[field] = draw(SCALARS)
        for kind in draw(st.lists(st.sampled_from(sorted(RECORDS)), unique=True)):
            ints = INT64S if kind == "pairs" else INTS
            record = st.tuples(*(ints if conversion == "d" else FLOATS
                                 for _key, conversion in RECORDS[kind]))
            point[kind] = draw(st.lists(record, max_size=4))
            if kind == "pairs":
                point[kind] = _pair_table(point[kind])
        points.append(point)
    return draw(st.sampled_from(sorted(CSV_HEADERS))), points


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_json_writer_equals_json_dumps(run):
    command, points = run
    assert emit_run(command, points, "json") == _json_dumps_run(command, points)


SUBNORMALS = st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308, -1e-310])


@st.composite
def _repeating_columns(draw):
    """A float column drawn from a small pool of values, so that values repeat."""
    pool = draw(st.lists(FLOATS | SUBNORMALS, min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=40)), dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(_repeating_columns(), st.sampled_from(["%r", "%.17g", '"re": %r\n        }', "0,pair,%.17g"]))
@example(np.array([0.0, -0.0, 0.0, -0.0]), "%r")
@example(np.array([math.nan, math.inf, -math.inf, 5e-324, math.nan]), "%.17g")
@example(np.array([-0.0]), "%.17g")
@example(np.array([], dtype=np.float64), "%r")
def test_column_text_equals_per_value_formatting(column, template):
    assert _column_text(column, template) == [template % x for x in column.tolist()]


def test_no_record_key_holds_an_n():
    # the JSON writer takes any "n" in a record list's text for a non-finite float
    assert not [key for fields in RECORDS.values() for key, _conversion in fields if "n" in key]


def test_json_writer_spells_non_finite_floats_as_json_does():
    point = {"point": 0, "norm": math.nan, "pairs": _pair_table([(1, 2, 1, 2, -0.0, math.inf, math.nan)]),
             "samples": [(0.0, -math.inf), (1.5, 2.0)], "phasors": []}
    text = emit_run("two-photon", [point], "json")
    assert text == _json_dumps_run("two-photon", [point])
    assert '"im": Infinity' in text and '"field": -Infinity' in text and '"re": -0.0' in text


def test_empty_pair_table_prints_an_empty_list():
    point = {"point": 0, "pairs": _pair_table([]), "norm": 0.0, "sectors": {}, "singular_values": []}
    text = emit_run("two-photon", [point], "json")
    assert text == _json_dumps_run("two-photon", [point])
    assert '"pairs": []' in text
    assert emit_run("two-photon", [point], "csv") == CSV_HEADERS["two-photon"] + "\n0,norm,,,,,,,0\n"


def test_repeated_runs_are_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["two-photon", "--config", str(CONFIGS / "dc_two_photon.json")]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_emission(capsys):
    rc = main(["spectrum", "--config", str(CONFIGS / "yb_dual_dsb.json")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("point,port,mode,order,re,im,prob\n")


def test_format_override_to_json(capsys):
    rc = main(["spectrum", "--config", str(CONFIGS / "yb_dual_dsb.json"), "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "spectrum"
    assert len(doc["points"]) == 1
    rows = doc["points"][0]["rows"]
    assert all(set(r) == {"port", "mode", "order", "re", "im", "prob"} for r in rows)


def test_model_override_changes_wall_physics(tmp_path, capsys):
    cfg = {
        "command": "spectrum",
        "preset": "yb_single",
        "arms": {"arm1": {"phi_b": 0.0, "m": 1.5, "theta_rf": 0.0, "tone": 3}},
        "input": {"mode": 3},
    }
    path = tmp_path / "wall.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 0
    exact = capsys.readouterr().out
    assert main(["spectrum", "--config", str(path), "--model", "optical"]) == 0
    optical = capsys.readouterr().out
    assert exact != optical, "carrier at the lattice wall must feel the reflection term"


def test_missing_config_file_is_io_error(capsys):
    rc = main(["spectrum", "--config", "/nonexistent/nope.json"])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["spectrum", "--config", str(path)]) == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coherent", "verify"])
def test_command_mismatch_is_rejected(command, capsys):
    rc = main([command, "--config", str(CONFIGS / "yb_dual_dsb.json")])
    assert rc == 1
    assert "spectrum" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path, capsys):
    rc = main(["spectrum", "--config", str(CONFIGS / "yb_dual_dsb.json"),
               "--out", str(tmp_path / "no_such_dir" / "x.csv")])
    assert rc == 2
    assert "cannot write output" in capsys.readouterr().err


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,name,passed,detail"
    assert len(lines) == 11
    assert all(line.split(",")[2] == "true" for line in lines[1:])


def test_verify_csv_quotes_free_text_detail(tmp_path, monkeypatch):
    detail = 'worst "defect", 1e-3\nsecond line'
    monkeypatch.setattr(verify, "CHECKS", (lambda scale: verify.CheckResult(1, "quoted", False, detail, ()),))
    out = tmp_path / "report.csv"
    assert main(["verify", "--out", str(out)]) == 1
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["index", "name", "passed", "detail"], ["1", "quoted", "false", detail]]


def test_verify_json_report(capsys):
    assert main(["verify", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert [c["index"] for c in doc["checks"]] == list(range(1, 11))


def test_verify_fails_under_absurd_tightening(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["verify", "--tolerance-scale", "1e-30", "--out", str(out)]) == 1
    # a scale that is not positive and finite is refused before any check runs
    for bad in ("-1", "0", "inf", "nan"):
        rejected = tmp_path / f"rejected_{bad}.csv"
        assert main(["verify", "--tolerance-scale", bad, "--out", str(rejected)]) == 1
        assert "--tolerance-scale" in capsys.readouterr().err
        assert not rejected.exists()


def test_verify_config_document(capsys):
    assert main(["verify", "--config", str(CONFIGS / "verify_loose.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerance_scale"] == 10.0


@pytest.mark.parametrize("mode, tone, t_stop", [
    (10**300, 1, 1e10),  # the carrier's phase omega*t overflows
    (28 * 10**306, 10**306, 1.0),  # the upper sidebands' frequency overflows
])
def test_mean_field_overflow_is_rejected_before_sampling(mode, tone, t_stop, tmp_path, capsys):
    cfg = {
        "command": "mean-field",
        "preset": "yb_dual",
        "drive": {"type": "dsb", "m": 0.5, "tone": tone},
        "input": {"port": 1, "mode": mode, "alpha": 1.0},
        "mean_field": {"t_stop": t_stop, "samples": 4},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    assert main(["mean-field", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input.mode" in captured.err and "mean_field.t_stop" in captured.err


def test_console_entry_point_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "eomsim", "spectrum",
         "--config", str(CONFIGS / "yb_dual_dsb.json")],
        capture_output=True, env=child_env, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("point,port,mode,order")
