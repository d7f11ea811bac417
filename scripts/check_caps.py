"""Run the schema's cap points through the installed `eomsim`.

Two points, each run once in CSV and once in JSON, written with `--out`:

- the sample cap: a mean-field point of `yb_dual` single-sideband at the
  depth cap (m 50, tone 1, carrier 1000) sampled 1,000,000 times, the most
  samples config accepts;
- the depth-cap pair point: a two-photon point of `dc_dual` at m 50 on both
  arms (arm 1 bias 0 on tone 2, arm 2 bias 0.3 on tone 3, carrier 1000),
  whose pair table has 129,767 records.

Each run must exit 0 and write its point's number of records, and no run may
peak above CEILING_MIB of resident memory (the largest child peak, from
getrusage; Linux reports it in KiB).  Exits 1 on any failure.  Run as
`python scripts/check_caps.py`.
"""

import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CEILING_MIB = 512
SAMPLES = 1_000_000  # config's cap on a mean-field point's samples
PAIRS = 129_767  # pair records of the depth-cap pair point
DEPTH_CAP_ARM = {"m": 50, "theta_rf": 0.0}
# name: (config, records, the start of the one line per record that no other line starts with)
POINTS = {
    "sample cap": (
        {
            "command": "mean-field",
            "preset": "yb_dual",
            "drive": {"type": "ssb", "m": 50, "tone": 1},
            "input": {"port": 1, "mode": 1000, "alpha": 1.0},
            "mean_field": {"t_stop": 1.0, "samples": SAMPLES},
        },
        SAMPLES,
        {"csv": "0,sample,", "json": '          "t": '},
    ),
    "depth-cap pairs": (
        {
            "command": "two-photon",
            "preset": "dc_dual",
            "arms": {
                "arm1": dict(DEPTH_CAP_ARM, phi_b=0.0, tone=2),
                "arm2": dict(DEPTH_CAP_ARM, phi_b=0.3, tone=3),
            },
            "input": {"mode": 1000},
        },
        PAIRS,
        {"csv": "0,pair,", "json": '          "port_a": '},
    ),
}


def _count_lines(path: Path, prefix: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(line.startswith(prefix) for line in fh)


def main() -> int:
    eomsim = shutil.which("eomsim")
    if eomsim is None:
        print("error: no eomsim console script on PATH", file=sys.stderr)
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, (point, want, record_line) in POINTS.items():
            cfg = Path(tmp) / "point.json"
            cfg.write_text(json.dumps(point), encoding="utf-8")
            for fmt in ("csv", "json"):
                out = Path(tmp) / f"point.{fmt}"
                start = time.perf_counter()
                proc = subprocess.run([eomsim, point["command"], "--config", str(cfg), "--format", fmt,
                                       "--out", str(out)], capture_output=True, text=True)
                elapsed = time.perf_counter() - start
                peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                records = _count_lines(out, record_line[fmt]) if proc.returncode == 0 else 0
                print(f"{name}, {fmt}: exit {proc.returncode}, {records} records, {elapsed:.2f} s, "
                      f"largest child peak so far {peak:.0f} MiB")
                if proc.returncode != 0:
                    print(proc.stderr, end="", file=sys.stderr)
                if proc.returncode != 0 or records != want or peak > CEILING_MIB:
                    print(f"error: {name}, {fmt}: the run must exit 0 with {want} records "
                          f"under {CEILING_MIB} MiB peak RSS", file=sys.stderr)
                    failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
