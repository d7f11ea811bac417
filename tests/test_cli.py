import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eomsim import cli, phase_mod, verify
from eomsim.cli import CSV_HEADERS, RECORDS, _column_text, build_parser, emit_run, main, run_points
from eomsim.config import parse_config
from eomsim.engine import PairTable
import regen_goldens
from regen_goldens import golden_runs, verify_goldens

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
    assert {path.name for path in GOLDEN.iterdir()} == (
        {golden for _c, _f, golden in golden_runs()} | set(verify_goldens()))


@pytest.mark.parametrize("golden", verify_goldens())
def test_verify_report_matches_goldens_byte_for_byte(golden, tmp_path):
    out = tmp_path / golden
    assert main(["verify", "--format", out.suffix[1:], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


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
    if kind == "samples":  # the two columns (times, fields)
        return zip(*records, strict=True)
    return records


@pytest.mark.parametrize("command, config", sorted({(c, f) for c, f, _golden in golden_runs()}))
def test_json_writer_equals_json_dumps_on_golden_runs(command, config):
    points = run_points(parse_config((CONFIGS / config).read_text()))
    text = emit_run(command, points, "json")
    assert text == _json_dumps_run(command, points)
    assert text == (GOLDEN / f"{Path(config).stem}.json").read_text(encoding="utf-8")


def test_mean_field_samples_are_two_columns_of_python_floats():
    # numpy 2 spells repr(np.float64(x)) "np.float64(x)", so the writer needs Python floats
    (point,) = run_points(parse_config((CONFIGS / "multitone_mean_field.json").read_text()))
    times, fields = point["samples"]
    assert type(times) is list and type(fields) is list
    assert len(times) == len(fields) == 33
    assert {type(x) for x in times + fields} == {float}


FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
SUBNORMALS = st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308, -1e-310])
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
            if kind == "samples":  # two float columns of one length, maybe empty
                size = draw(st.integers(0, 4))
                column = st.lists(FLOATS | SUBNORMALS, min_size=size, max_size=size)
                point[kind] = (draw(column), draw(column))
                continue
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
             "samples": ([0.0, 1.5], [-math.inf, 2.0]), "phasors": []}
    text = emit_run("two-photon", [point], "json")
    assert text == _json_dumps_run("two-photon", [point])
    assert '"im": Infinity' in text and '"field": -Infinity' in text and '"re": -0.0' in text


@pytest.mark.parametrize("block", [1, 2, 32, 33, 34])
def test_sample_lines_do_not_depend_on_the_block_size(block, monkeypatch):
    # the golden point has 33 samples: blocks of one, a remainder, exactly one block and one short
    monkeypatch.setattr(cli, "SAMPLE_BLOCK", block)
    points = run_points(parse_config((CONFIGS / "multitone_mean_field.json").read_text()))
    assert emit_run("mean-field", points, "csv") == (GOLDEN / "multitone_mean_field.csv").read_text()


def test_empty_sample_columns_print_an_empty_list():
    point = {"point": 0, "phasors": [], "samples": ([], [])}
    text = emit_run("mean-field", [point], "json")
    assert text == _json_dumps_run("mean-field", [point])
    assert '"samples": []' in text
    assert emit_run("mean-field", [point], "csv") == CSV_HEADERS["mean-field"] + "\n"


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


def test_mean_field_phasor_factor_overflow_is_rejected(tmp_path, capsys):
    # |field_scale*amplitude|*sqrt(omega) is about 1e210, far below the field
    # cap, but the phasor's first factor field_scale*sqrt(omega) is 1e310
    cfg = {
        "command": "mean-field",
        "preset": "yb_dual",
        "drive": {"type": "dsb", "m": 0.5, "tone": 3},
        "input": {"port": 1, "mode": 10**20, "alpha": 1e-100},
        "mean_field": {"t_stop": 1.0, "samples": 4, "field_scale": 1e300},
    }
    path = tmp_path / "phasor_overflow.json"
    path.write_text(json.dumps(cfg))
    assert main(["mean-field", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mean_field.field_scale: |field_scale|*sqrt(omega) must be finite")


def test_console_entry_point_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "eomsim", "spectrum",
         "--config", str(CONFIGS / "yb_dual_dsb.json")],
        capture_output=True, env=child_env, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("point,port,mode,order")


# patches every np.linalg function to raise, then runs check battery and a two-photon golden run
NO_LAPACK_CHILD = """
import sys
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("np.linalg called")

for name in np.linalg.__all__:
    if not isinstance(getattr(np.linalg, name), type):
        setattr(np.linalg, name, refuse)

from eomsim.cli import main

out, config = sys.argv[1:]
codes = [main(["verify", "--out", out]), main(["two-photon", "--config", config, "--out", out])]
print(codes, "numpy.random" in sys.modules)
"""


def test_verify_and_two_photon_runs_need_no_lapack_and_no_numpy_random(child_env, tmp_path):
    # a child process: the test process may already have imported numpy.random
    proc = subprocess.run(
        [sys.executable, "-c", NO_LAPACK_CHILD, str(tmp_path / "out.csv"),
         str(CONFIGS / "dc_two_photon.json")],
        capture_output=True, env=child_env, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] False\n"


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0),
    (["spectrum", "--help"], 0),
    (["spectrum", "--bogus"], 2),
    ([], 2),
])
def test_main_returns_the_usage_status(argv, status, capsys):
    assert main(argv) == status
    out = capsys.readouterr()
    assert (out.out if status == 0 else out.err).startswith("usage: eomsim")


def test_one_parser_serves_every_main_call_in_a_process(child_env, capsys):
    build_parser.cache_clear()
    runs = [
        ["spectrum", "--config", str(CONFIGS / "yb_dual_dsb.json"), "--bogus"],
        ["verify"],
        ["spectrum", "--config", str(CONFIGS / "yb_dual_dsb.json")],
    ]
    seen = []
    for argv in runs:
        status = main(argv)
        out = capsys.readouterr()
        seen.append((status, out.out, out.err))
    assert [status for status, _out, _err in seen] == [2, 0, 0]
    assert build_parser.cache_info().misses == 1
    for argv, got in zip(runs, seen):
        proc = subprocess.run([sys.executable, "-m", "eomsim", *argv],
                              capture_output=True, env=child_env, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == got


# One exact-arm mean-field point whose two arms share depth and tone.
MATCHED_MEAN_FIELD = {
    "command": "mean-field", "preset": "yb_dual", "drive": {"type": "dsb", "m": 0.5, "tone": 3},
    "input": {"mode": 100, "alpha": 1.5}, "mean_field": {"t_stop": 1.0, "samples": 8},
}
# Three carriers of one matched device: one window each, one halfwidth and one
# Bessel array for all three, since the image orders of every carrier lie
# past the array's cut.
CARRIER_SWEEP = {
    "command": "spectrum", "preset": "yb_dual", "drive": {"type": "dsb", "m": 0.5, "tone": 3},
    "input": {"mode": 200}, "sweep": [{"input": {"mode": n0}} for n0 in (200, 300, 400)],
}
# One spectrum point whose arms differ in depth: one window per arm.
UNMATCHED_SPECTRUM = {
    "command": "spectrum", "preset": "yb_dual",
    "arms": {"arm1": {"phi_b": 0.0, "m": 0.5, "theta_rf": 0.0, "tone": 3},
             "arm2": {"phi_b": 0.0, "m": 0.7, "theta_rf": 0.0, "tone": 3}},
    "input": {"mode": 100},
}


@pytest.mark.parametrize("doc, calls", [
    ("yb_dual_dsb", 2),  # 4 when each arm read its own window
    ("dc_two_photon", 2),  # 24: per arm, per input port, per point
    (MATCHED_MEAN_FIELD, 2),  # 8: per arm, at parse and again at run time
    (CARRIER_SWEEP, 2),  # 6 when each window scanned its own halfwidth and array
    (UNMATCHED_SPECTRUM, 4),
])
def test_bessel_work_per_distinct_window(doc, calls, monkeypatch, tmp_path, fresh_windows):
    if isinstance(doc, str):
        path = CONFIGS / f"{doc}.json"
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
    command = json.loads(path.read_text())["command"]
    real = phase_mod.bessel_j_array
    requests = []

    def recorder(s_max, m):
        requests.append((s_max, m))
        return real(s_max, m)

    monkeypatch.setattr(phase_mod, "bessel_j_array", recorder)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.txt")]) == 0
    assert len(requests) == calls


@pytest.mark.parametrize("command, config, golden", golden_runs())
def test_outputs_do_not_depend_on_the_window_memo(command, config, golden, forget_windows, tmp_path):
    forget_windows()
    out = tmp_path / golden
    assert main([command, "--config", str(CONFIGS / config), "--format", out.suffix[1:],
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_report_does_not_depend_on_the_window_memo(forget_windows, capsys):
    assert main(["verify", "--format", "json"]) == 0
    shared = capsys.readouterr().out
    forget_windows()
    assert main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out == shared == (GOLDEN / "verify.json").read_text()
