"""Regenerate the golden CLI outputs under tests/golden/.

Each golden is written in the format its suffix names. Run after any
intentional change to the emitters or the physics and review the diff before
committing; the acceptance suite compares byte-for-byte.
"""

from pathlib import Path

from eomsim.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"

RUNS = [
    ("spectrum", "yb_dual_dsb.json", "yb_dual_dsb.csv"),
    ("spectrum", "yb_dual_dsb.json", "yb_dual_dsb.json"),
    ("spectrum", "yb_dual_ssb.json", "yb_dual_ssb.json"),
    ("spectrum", "yb_dual_ssb.json", "yb_dual_ssb.csv"),
    ("two-photon", "dc_two_photon.json", "dc_two_photon.csv"),
    ("two-photon", "dc_two_photon.json", "dc_two_photon.json"),
    ("coherent", "hybrid_single.json", "hybrid_single.json"),
    ("coherent", "hybrid_single.json", "hybrid_single.csv"),
    ("mean-field", "multitone_mean_field.json", "multitone_mean_field.csv"),
    ("mean-field", "multitone_mean_field.json", "multitone_mean_field.json"),
]


def regen() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for command, config, golden in RUNS:
        target = GOLDEN / golden
        rc = main([command, "--config", str(CONFIGS / config), "--format", target.suffix[1:],
                   "--out", str(target)])
        if rc != 0:
            raise SystemExit(f"{config}: CLI exited with {rc}")
        print(f"wrote {target} ({target.stat().st_size} bytes)")


if __name__ == "__main__":
    regen()
