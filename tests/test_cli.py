import json
import subprocess
import sys
from pathlib import Path

import pytest

from eomsim.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_RUNS = [
    ("spectrum", "yb_dual_dsb.json", "yb_dual_dsb.csv"),
    ("spectrum", "yb_dual_ssb.json", "yb_dual_ssb.json"),
    ("two-photon", "dc_two_photon.json", "dc_two_photon.csv"),
    ("coherent", "hybrid_single.json", "hybrid_single.json"),
    ("mean-field", "multitone_mean_field.json", "multitone_mean_field.csv"),
]


@pytest.mark.parametrize("command, config, golden", GOLDEN_RUNS)
def test_outputs_match_goldens_byte_for_byte(command, config, golden, tmp_path):
    out = tmp_path / golden
    rc = main([command, "--config", str(CONFIGS / config), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


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


def test_command_mismatch_is_rejected(capsys):
    rc = main(["coherent", "--config", str(CONFIGS / "yb_dual_dsb.json")])
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


def test_verify_json_report(capsys):
    assert main(["verify", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert [c["index"] for c in doc["checks"]] == list(range(1, 11))


def test_verify_fails_under_absurd_tightening(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--tolerance-scale", "1e-30", "--out", str(out)]) == 1
    assert main(["verify", "--tolerance-scale", "-1"]) == 1


def test_verify_config_document(capsys):
    assert main(["verify", "--config", str(CONFIGS / "verify_loose.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerance_scale"] == 10.0


def test_console_entry_point_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "eomsim", "spectrum",
         "--config", str(CONFIGS / "yb_dual_dsb.json")],
        capture_output=True, env=child_env, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("point,port,mode,order")
