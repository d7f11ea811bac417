"""Regenerate the golden CLI outputs under tests/golden/.

Each golden is written in the format its suffix names: one per run config
and format, plus the verify report at the default tolerances.  Run after
any intentional change to the emitters, the physics or the verify battery
and review the diff before committing; the acceptance suite compares
byte-for-byte.
"""

import json
from pathlib import Path

from eomsim.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"
FORMATS = ("csv", "json")


def golden_runs() -> list[tuple[str, str, str]]:
    """(command, config file, golden file) for every non-verify config, in CSV and JSON."""
    runs = []
    for path in sorted(CONFIGS.glob("*.json")):
        command = json.loads(path.read_text())["command"]
        if command != "verify":
            runs += [(command, path.name, f"{path.stem}.{fmt}") for fmt in FORMATS]
    return runs


def verify_goldens() -> list[str]:
    """The golden files of `eomsim verify --format csv|json`."""
    return [f"verify.{fmt}" for fmt in FORMATS]


def regen() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    runs = [([command, "--config", str(CONFIGS / config)], golden)
            for command, config, golden in golden_runs()]
    runs += [(["verify"], golden) for golden in verify_goldens()]
    for argv, golden in runs:
        target = GOLDEN / golden
        rc = main([*argv, "--format", target.suffix[1:], "--out", str(target)])
        if rc != 0:
            raise SystemExit(f"{golden}: CLI exited with {rc}")
        print(f"wrote {target} ({target.stat().st_size} bytes)")


if __name__ == "__main__":
    regen()
