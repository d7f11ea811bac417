"""eomsim benchmark: seeded CLI workloads, timed end to end, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum-sweep --seed 1 --seconds 30 --trace 0

The program under test is `eomsim.cli.main`, imported from `src/` of the
checkout and called in-process: one process, one client, a closed loop (the
next op starts when the previous one has returned).  One op is one `main()`
call on one generated config file, with output written to a file that is then
checked against physics invariants.  BLAS runs single-threaded.

`--trace 0` cycles through the workload's deck of configs until `--seconds`
have passed and every config has run at least once.  Each config's time is
the shortest of its runs: on a shared host other processes only ever add to
an op's wall time, so the shortest run is the steadiest estimate of what the
op costs (the reasoning of `timeit`).  `call_s_p50` and `call_s_tail` are
taken over those per-config times and `points_per_s` is the deck's points
over their sum, so the figures describe the same mix of configs however many
passes fit in the window.  The garbage collector runs, untimed, before every
op, so each op starts from a collected heap as a fresh CLI call would.
`setup_s` is the median of fresh-interpreter set-ups spread over the window;
`peak_rss_mb` is this process's peak resident set.

`--trace 1` runs whole passes for half of `--seconds` untraced and half with
every public eomsim function wrapped, and reports the per-layer metrics
(per-op means over the traced ops) with the tracing overhead.  The spans go to
`.perfbench/spans-<workload>.json.gz`.

Other lines on stdout are a human-readable report and one JSON detail line
(machine block, tail percentile, error rate); the last line is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Recorder, instrument
from workloads import WORKLOADS, CheckFailed, check_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_THREADS = "1"
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from eomsim.cli import parse_config; "
    "parse_config(open(sys.argv[2], encoding='utf-8').read())"
)

END_TO_END = {
    "call_s_p50": "s",
    "call_s_tail": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

MODULES = ("cli", "config", "engine", "lattice", "phase_mod", "special", "splitters", "verify")
CHECK_NAMES = (
    "splitter_laws", "scatter_unitarity", "generator_agreement", "optical_limit",
    "dsb_suppression", "ssb_cancellation", "randomized_closure", "coherent_scaling",
    "two_photon", "small_signal",
)

# Layer(s) predicted to take most of the op time, as span names or module prefixes.
PREDICTED = {
    "spectrum-sweep": ("special", "phase_mod"),
    "two-photon-schmidt": ("engine.port_entanglement",),
    "mean-field-waveform": ("engine.mean_field", "cli.emit_run"),
    "verify-battery": ("special.unitary_exp",),
}


def _per_layer_names() -> dict[str, str]:
    names = {}
    for fn, fields in (
        ("special.bessel_j_array", ("calls", "self_s", "orders")),
        ("special.unitary_exp", ("calls", "self_s", "dim3")),
        ("phase_mod.retained_halfwidth", ("calls", "self_s")),
        ("phase_mod.pm_scatter_row", ("calls", "self_s", "entries")),
        ("phase_mod.pm_generator_oracle", ("self_s",)),
        ("engine.composition_oracle", ("self_s",)),
        ("engine.single_photon_output", ("self_s",)),
        ("engine.two_photon_output", ("self_s", "pairs")),
        ("engine.port_entanglement", ("self_s", "values", "significant_frac")),
        ("engine.mean_field", ("self_s", "term_samples")),
        ("cli.emit_run", ("self_s", "bytes")),
        ("config.parse_config", ("self_s", "points")),
        ("cli.run_points", ("self_s",)),
    ):
        for field in fields:
            unit = {"self_s": "s/op", "significant_frac": "ratio"}.get(field, "count/op")
            names[f"{fn}.{field}"] = unit
    names["phase_mod.orders_per_entry"] = "ratio"
    for check in CHECK_NAMES:
        names[f"verify.{check}.s"] = "s/op"
    for mod in MODULES:
        names[f"{mod}.self_s"] = "s/op"
    names.update({
        "op.traced_s": "s/op",
        "predicted_layer.share": "ratio",
        "trace.spans": "count/op",
        "trace.overhead_s": "s",
    })
    return names


PER_LAYER = _per_layer_names()


def _port_entanglement_work(args, kwargs, svs):
    """Values returned and the share at or above sigma_max * max(shape) * eps."""
    state = args[0] if args else kwargs["state"]
    rows, cols = set(), set()  # port-1 and port-2 occupation labels, as in port_entanglement
    for (p1, m1), (p2, m2) in state.amps:
        if p1 == p2 == 1:
            rows.add((m1, m2))
            cols.add("vac")
        elif p1 == p2 == 2:
            rows.add("vac")
            cols.add((m1, m2))
        else:
            rows.add(m1)
            cols.add(m2)
    n = len(svs)
    cutoff = (max(svs) if n else 0.0) * max(len(rows), len(cols)) * sys.float_info.epsilon
    return {"values": n, "significant": sum(1 for s in svs if s >= cutoff)}


def counters(rec: Recorder) -> dict:
    """Work counters per wrapped function, as used by `Recorder.wrap`."""

    def bessel(args, kwargs, arr):
        orders = len(arr)
        return {"orders": orders,
                "row_orders": orders if rec.inside("phase_mod.pm_scatter_row") else 0}

    return {
        "special.bessel_j_array": bessel,
        "special.unitary_exp": lambda a, k, r: {"dim3": r.shape[0] ** 3},
        "phase_mod.pm_scatter_row": lambda a, k, r: {"entries": len(r)},
        "engine.two_photon_output": lambda a, k, r: {"pairs": len(r.amps)},
        "engine.port_entanglement": _port_entanglement_work,
        "engine.mean_field": lambda a, k, r: {"term_samples": len(r.terms) * len(r.times)},
        "cli.emit_run": lambda a, k, r: {"bytes": len(r.encode())},
        "config.parse_config": lambda a, k, r: {"points": len(r.points)},
    }


def import_cli():
    """Import eomsim.cli from src/ of this checkout, or exit non-zero."""
    pkg = SRC / "eomsim"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import eomsim
    import eomsim.cli

    if Path(eomsim.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported eomsim from {eomsim.__file__}, not from {pkg}")
    return eomsim


class Deck:
    """A workload's generated configs, written to files, run one op at a time."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.docs = WORKLOADS[workload](seed)
        self.paths = []
        for k, doc in enumerate(self.docs):
            path = workdir / f"op{k:03d}.json"
            path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            self.paths.append(path)
        self.out = workdir / "out.txt"
        # On a shared host each CPU is slowed by its own neighbours, by
        # different amounts from second to second.  Config c runs on CPU
        # c + pass mod ncpu, so over successive passes every config runs on
        # every CPU and its shortest time is the least disturbed one.
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def run(self, cli, k: int) -> tuple[float, int, str | None]:
        """Run op k (mod deck size): (seconds, points checked, error or None)."""
        doc = self.docs[k % len(self.docs)]
        argv = [doc["command"], "--config", str(self.paths[k % len(self.docs)]),
                "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        if len(self.cpus) > 1:
            n = len(self.docs)
            os.sched_setaffinity(0, {self.cpus[(k % n + k // n) % len(self.cpus)]})
        gc.collect()
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op failure, not a benchmark failure
            return time.perf_counter() - start, 0, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if status != 0:
            return seconds, 0, f"exit status {status}"
        try:
            return seconds, check_output(doc, self.out.read_text(encoding="utf-8")), None
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            return seconds, 0, f"output check: {type(exc).__name__}: {exc}"


def closed_loop(deck: Deck, cli, seconds: float, before_op=None, whole_passes=False) -> list:
    """Run deck ops back to back until `seconds` have passed and every config has run.

    Op k runs config k mod deck size.  With `whole_passes` the loop also ends
    only at the end of a pass.  `before_op(k, elapsed)` runs before op k,
    untimed but inside the window.
    """
    ops = []
    n = len(deck.docs)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ops) >= n and not (whole_passes and len(ops) % n):
            return ops
        if before_op is not None:
            before_op(len(ops), elapsed)
        ops.append(deck.run(cli, len(ops)))


def config_times(ops: list, n: int) -> list[float]:
    """Shortest wall time of each of the n configs over its repeats in `ops`."""
    runs: list[list[float]] = [[] for _ in range(n)]
    for k, op in enumerate(ops):
        runs[k % n].append(op[0])
    return [min(r) for r in runs]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, with the weights a
    Beta((n+1)p, (n+1)(1-p)) distribution puts on [(i-1)/n, i/n]; it varies
    less from run to run than the single order statistic it stands for.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per interval; the density is smooth for a, b >= 1
    weights = []
    for i in range(n):
        total = 0.0
        for s in range(steps):
            x = (i + (s + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(total / (steps * n))
    return math.fsum(w * x for w, x in zip(weights, ordered)) / math.fsum(weights)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): highest percentile with >= 10 samples beyond it.

    The percentile is that of the order statistic with 10 samples beyond it,
    (j + 1) / (n + 1) for the j-th of n, estimated by `quantile`.  With 10 or
    fewer samples no percentile qualifies and the smallest sample's
    percentile is used; the beyond count says so.
    """
    n = len(times)
    j = max(0, n - 11)
    p = (j + 1) / (n + 1)
    value = quantile(times, p)
    return value, 100.0 * p, sum(1 for t in times if t > value)


def time_setup(cfg: Path) -> float:
    """Wall time for a fresh interpreter to import eomsim.cli and parse `cfg`."""
    start = time.perf_counter()
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
    # which would quantize the measurement
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def end_to_end(deck: Deck, cli, seconds: float) -> tuple[list, dict, dict]:
    # Set-up samples are spread over the window: on a shared host the speed
    # drifts over seconds, and a batch taken at one moment would see one speed.
    setup = []

    def sample_setup(_k, elapsed):
        if elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(time_setup(deck.paths[0]))

    warm = deck.run(cli, 0)
    ops = closed_loop(deck, cli, seconds, before_op=sample_setup)
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(deck.paths[0]))
    n = len(deck.docs)
    times = config_times(ops, n)
    points = [ops[c][1] for c in range(n)]
    value, pct, beyond = tail(times)
    metrics = {
        "call_s_p50": quantile(times, 0.5),
        "call_s_tail": value,
        "points_per_s": sum(points) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"configs": n, "tail": {"percentile": pct, "samples": n, "beyond": beyond}}
    return [warm, *ops], metrics, detail


def per_layer(deck: Deck, cli, eomsim, workload: str, seconds: float) -> tuple[list, dict, dict]:
    warm = deck.run(cli, 0)
    plain = closed_loop(deck, cli, seconds / 2, whole_passes=True)
    rec = Recorder()
    modules = {name: getattr(eomsim, name) for name in MODULES}
    modules["eomsim"] = eomsim
    restore = instrument(rec, modules, counters(rec))
    try:
        traced = closed_loop(deck, cli, seconds / 2, whole_passes=True,
                             before_op=lambda k, _t: setattr(rec, "op", k))
    finally:
        restore()
    WORK.mkdir(exist_ok=True)
    rec.write(WORK / f"spans-{workload}.json.gz")
    n = len(deck.docs)
    p50_plain = quantile(config_times(plain, n), 0.5)
    p50_traced = quantile(config_times(traced, n), 0.5)
    metrics = layer_metrics(rec, workload, len(traced))
    metrics["trace.overhead_s"] = p50_traced - p50_plain
    return [warm, *plain, *traced], metrics, {}


def layer_metrics(rec: Recorder, workload: str, n_ops: int) -> dict:
    """Per-layer metrics as per-op means over `n_ops` traced ops."""
    self_s: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    op_s = 0.0
    for span, own in zip(rec.spans, rec.self_times()):
        name, start, end, parent = span[0], span[1], span[2], span[3]
        self_s[name] = self_s.get(name, 0.0) + own
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            op_s += end - start

    def self_of(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = self_of(base) / n_ops
        elif field == "calls":
            out[name] = calls.get(base, 0) / n_ops
        elif field == "s":  # verify.<check>.s: inclusive time of verify.check_<check>
            out[name] = total.get(f"verify.check_{base.split('.')[1]}", 0.0) / n_ops
        else:
            out[name] = rec.work.get(name, 0.0) / n_ops
    out["engine.port_entanglement.significant_frac"] = _ratio(
        rec.work["engine.port_entanglement.significant"], rec.work["engine.port_entanglement.values"])
    out["phase_mod.orders_per_entry"] = _ratio(
        rec.work["special.bessel_j_array.row_orders"], rec.work["phase_mod.pm_scatter_row.entries"])
    out.update({
        "op.traced_s": op_s / n_ops,
        "predicted_layer.share": sum(self_of(p) for p in PREDICTED[workload]) / op_s,
        "trace.spans": len(rec.spans) / n_ops,
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def report(workload: str, seed: int, ops: list, metrics: dict, units: dict, detail: dict) -> dict:
    failed = [op for op in ops if op[2] is not None]
    for name, value in metrics.items():
        print(f"{workload:22s} {name:45s} {value:14.6g} {units[name]}")
    detail = {
        "workload": workload, "seed": seed, "machine": machine_block(),
        "ops": len(ops), "error_rate": len(failed) / len(ops),
        "errors": sorted({op[2] for op in failed})[:5], **detail,
    }
    print(json.dumps(detail))
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    eomsim = import_cli()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        deck = Deck(args.workload, args.seed, workdir)
        if args.trace:
            ops, metrics, detail = per_layer(deck, eomsim.cli, eomsim, args.workload, args.seconds)
            units = PER_LAYER
        else:
            ops, metrics, detail = end_to_end(deck, eomsim.cli, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(args.workload, args.seed, ops, metrics, units, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
