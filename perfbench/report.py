"""Run every workload once and print each metric by name and unit.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 30 --trace 0

Each workload runs in its own process (so `peak_rss_mb` is per workload);
the exit status is non-zero if any run fails or any op fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    machine = None
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode:
            print(f"{workload}: exit status {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        lines = proc.stdout.splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        machine = detail["machine"]
        ok = ok and result["correct"]
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"error_rate {detail['error_rate']:.3g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
        if "tail" in detail:
            tail = detail["tail"]
            print(f"  call_s_tail is p{tail['percentile']:.1f} of {tail['samples']} configs "
                  f"({tail['beyond']} beyond)")
    print(f"machine: {json.dumps(machine)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
