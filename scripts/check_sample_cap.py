"""Run a mean-field point at the schema's sample cap through the installed `eomsim`.

The point is `yb_dual` single-sideband at the depth cap (m 50, tone 1, carrier
1000) sampled 1,000,000 times, the most samples config accepts.  It runs once
in CSV and once in JSON, each written with `--out`.  Each run must exit 0 and
write 1,000,000 sample records, and no run may peak above CEILING_MIB of
resident memory (the largest child peak, from getrusage; Linux reports it in
KiB).  Exits 1 on any failure.  Run as `python scripts/check_sample_cap.py`.
"""

import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SAMPLES = 1_000_000  # config's cap on a mean-field point's samples
CEILING_MIB = 768
POINT = {
    "command": "mean-field",
    "preset": "yb_dual",
    "drive": {"type": "ssb", "m": 50, "tone": 1},
    "input": {"port": 1, "mode": 1000, "alpha": 1.0},
    "mean_field": {"t_stop": 1.0, "samples": SAMPLES},
}
# The start of the one line per sample record that no other line starts with.
SAMPLE_LINE = {"csv": "0,sample,", "json": '          "t": '}


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
        cfg = Path(tmp) / "sample_cap.json"
        cfg.write_text(json.dumps(POINT), encoding="utf-8")
        for fmt in ("csv", "json"):
            out = Path(tmp) / f"sample_cap.{fmt}"
            start = time.perf_counter()
            proc = subprocess.run([eomsim, "mean-field", "--config", str(cfg), "--format", fmt,
                                   "--out", str(out)], capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            records = _count_lines(out, SAMPLE_LINE[fmt]) if proc.returncode == 0 else 0
            print(f"{fmt}: exit {proc.returncode}, {records} sample records, {elapsed:.2f} s, "
                  f"largest child peak so far {peak:.0f} MiB")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode != 0 or records != SAMPLES or peak > CEILING_MIB:
                failed = True
    if failed:
        print(f"error: each run must exit 0 with {SAMPLES} sample records "
              f"under {CEILING_MIB} MiB peak RSS", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
