import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(child_env, script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=child_env, timeout=120,
    )


def test_bias_sweep_runs_from_split_to_bunched(child_env):
    proc = _run(child_env, "two_photon_bias_sweep.py", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["dphi/pi", "P(split)", "cos^2", "P(bunch)", "sigma1", "sigma2"]
    table = [[float(x) for x in row.split()] for row in rows]
    assert [r[0] for r in table] == [0.0, 0.25, 0.5]
    # matched bias: a product state; quarter-turn difference: both photons bunch
    assert table[0][1:] == [1.0, 1.0, 0.0, 1.0, 0.0]
    assert table[-1][1:] == [0.0, 0.0, 1.0, 0.70711, 0.70711]


def test_bias_sweep_rejects_a_single_step(child_env):
    proc = _run(child_env, "two_photon_bias_sweep.py", "--steps", "1")
    assert proc.returncode == 2
    assert "--steps" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dsb_harmonic_table_separates_parities(child_env):
    proc = _run(child_env, "dsb_harmonic_suppression.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "carrier 100, tone 3, model optical"
    rows = [line.split() for line in lines[2:] if line.strip()]
    assert {float(r[0]) for r in rows} == {0.1, 0.5, 1.0, 2.0}
    for _m, order, p1, p2 in rows:
        # even orders leave on port 2 only, odd orders on port 1 only
        assert float(p1 if int(order) % 2 == 0 else p2) == 0.0
