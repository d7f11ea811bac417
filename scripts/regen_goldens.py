"""Regenerate the golden CLI outputs under tests/golden/.

Each golden is written in the format its suffix names. Run after any
intentional change to the emitters or the physics and review the diff before
committing; the acceptance suite compares byte-for-byte.
"""

import json
from pathlib import Path

from eomsim.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"


def golden_runs() -> list[tuple[str, str, str]]:
    """(command, config file, golden file) for every non-verify config, in CSV and JSON."""
    runs = []
    for path in sorted(CONFIGS.glob("*.json")):
        command = json.loads(path.read_text())["command"]
        if command != "verify":
            runs += [(command, path.name, f"{path.stem}.{fmt}") for fmt in ("csv", "json")]
    return runs


def regen() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for command, config, golden in golden_runs():
        target = GOLDEN / golden
        rc = main([command, "--config", str(CONFIGS / config), "--format", target.suffix[1:],
                   "--out", str(target)])
        if rc != 0:
            raise SystemExit(f"{config}: CLI exited with {rc}")
        print(f"wrote {target} ({target.stat().st_size} bytes)")


if __name__ == "__main__":
    regen()
