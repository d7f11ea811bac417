"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 through 10 are the library-level guarantees implemented in
eomsim.verify (the same functions behind `eomsim verify`, so the command
line and this suite cannot disagree).  Criterion 11 covers the command-line
contract itself: byte-stable golden outputs, a passing verify run, and the
installed entry point.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion;
add -s to also see the printed detail lines.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from eomsim import verify
from eomsim.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def battery():
    results = verify.run_all()
    return {r.index: r for r in results}


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[criterion {result.index:02d}] {result.name}: {status} ({result.detail})",
          flush=True)
    assert result.passed, f"criterion {result.index} ({result.name}): {result.detail}"


def test_criterion_01_splitter_energy_and_reciprocity(battery):
    _report(battery[1])


def test_criterion_02_scattering_row_unitarity(battery):
    _report(battery[2])


def test_criterion_03_closed_form_matches_generator(battery):
    _report(battery[3])


def test_criterion_04_optical_limit_convergence(battery):
    _report(battery[4])


def test_criterion_05_dsb_parity_separation(battery):
    _report(battery[5])


def test_criterion_06_ssb_sideband_cancellation(battery):
    _report(battery[6])


def test_criterion_07_randomized_probability_closure(battery):
    _report(battery[7])


def test_criterion_08_coherent_scaling(battery):
    _report(battery[8])


def test_criterion_09_two_photon_interference(battery):
    _report(battery[9])


def test_criterion_10_small_signal_and_mean_field(battery):
    _report(battery[10])


def test_criterion_11_cli_contract(tmp_path, child_env):
    runs = [
        ("spectrum", "yb_dual_dsb.json", "yb_dual_dsb.csv"),
        ("spectrum", "yb_dual_ssb.json", "yb_dual_ssb.json"),
        ("two-photon", "dc_two_photon.json", "dc_two_photon.csv"),
        ("coherent", "hybrid_single.json", "hybrid_single.json"),
        ("mean-field", "multitone_mean_field.json", "multitone_mean_field.csv"),
    ]
    failures = []
    for command, config, golden in runs:
        out = tmp_path / golden
        rc = main([command, "--config", str(CONFIGS / config), "--out", str(out)])
        if rc != 0:
            failures.append(f"{config}: exit {rc}")
        elif out.read_bytes() != (GOLDEN / golden).read_bytes():
            failures.append(f"{config}: output differs from golden {golden}")

    report = tmp_path / "verify.json"
    rc = main(["verify", "--format", "json", "--out", str(report)])
    if rc != 0:
        failures.append(f"verify: exit {rc}")
    else:
        doc = json.loads(report.read_text())
        if not doc["all_passed"]:
            failures.append("verify: report says not all checks passed")

    proc = subprocess.run(
        [sys.executable, "-m", "eomsim", "verify", "--tolerance-scale", "1.0"],
        capture_output=True, env=child_env, text=True, timeout=300,
    )
    if proc.returncode != 0:
        failures.append(f"module invocation: exit {proc.returncode}")

    status = "PASS" if not failures else "FAIL"
    detail = "goldens byte-identical; verify exits 0" if not failures else "; ".join(failures)
    print(f"[criterion 11] cli_contract: {status} ({detail})", flush=True)
    assert not failures, detail
