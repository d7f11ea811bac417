"""Seeded workload generators and per-op output checks for the benchmark.

A workload is a deck: a list of eomsim run-configuration documents made from
one seed.  The program under test only ever sees these documents, written to
files and run through the public CLI entry point.  One op is one CLI call on
one document.

Variance control.  Op cost is heavy-tailed in the parameter that drives it
(carrier index for spectra, depth for photon pairs), so an i.i.d. draw makes
run-to-run medians depend on the seed more than on the code.  Each deck is
therefore stratified: each cost-driving parameter takes one value per
stratum, jittered by the seed inside a fifth of the stratum, and the strata of
different parameters are paired by a fixed rule (stratum c*s mod n, c coprime
to n), so the seed moves costs only a little.  Ops run in van der Corput order
over the strata, so configs of similar cost run far apart in time and a slow
spell of the machine does not hit a block of them.  Deck sizes are odd, so the
median config is one config.

The output checks test physics invariants, never bytes: they do not depend on
how many singular values or rows the program emits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

TONES = (1, 2, 3, 5, 7)
PM_PRESETS = ("yb_dual", "dc_dual", "hybrid_dual")

# Absolute tolerance on probability sums.  Default truncation (eps 1e-12,
# margin 8) leaves a deficit far below this; round-off is ~1e-15.
POWER_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output broke a physics invariant."""


def strata(rng: random.Random, n: int) -> list[float]:
    """One point in (0, 1) per equal-width stratum, jittered within its middle fifth."""
    return [(i + 0.4 + 0.2 * rng.random()) / n for i in range(n)]


def log_uniform(lo: float, hi: float, p: float) -> float:
    return lo * (hi / lo) ** p


def spread_order(n: int) -> list[int]:
    """Strata 0..n-1 in van der Corput order: neighbours run far apart."""
    order: list[int] = []
    seen: set[int] = set()
    k = 0
    while len(order) < n:
        x, denom, j = 0.0, 1.0, k
        while j:
            denom *= 2.0
            x += (j & 1) / denom
            j >>= 1
        s = int(x * n)
        if s not in seen:
            seen.add(s)
            order.append(s)
        k += 1
    return order


def _angle(rng: random.Random) -> float:
    return rng.uniform(-math.pi, math.pi)


def _alpha(rng: random.Random) -> list[float]:
    mag, ph = rng.uniform(0.3, 2.0), _angle(rng)
    return [mag * math.cos(ph), mag * math.sin(ph)]


def spectrum_sweep(seed: int) -> list[dict]:
    """spectrum/coherent runs, three depth points each, carriers 10..1e5.

    Why: the Bessel recurrence and the window scan grow with carrier and
    depth, and this workload never reaches the pair, Schmidt or mean-field
    code.  Carrier strata are paired with tones by a fixed rule so that the
    heavy end of the deck (large carrier over small tone) is the same size for
    every seed.
    """
    rng = random.Random(seed)
    n_ops, n_pts = 63, 3
    carriers = [round(log_uniform(10, 1e5, p)) for p in strata(rng, n_ops)]
    # point j of every op takes its depth from the j-th third of the log
    # range, so all ops carry the same mix of shallow and deep points
    thirds = [strata(rng, n_ops) for _ in range(n_pts)]
    docs = []
    for k, s in enumerate(spread_order(n_ops)):
        tone = TONES[s % len(TONES)]
        ms = [min(50.0, log_uniform(0.05, 50.0, (j + thirds[j][(c * s) % n_ops]) / n_pts))
              for j, c in enumerate((5, 11, 13))]  # coprime to n_ops
        command = "coherent" if (k // 2) % 2 else "spectrum"
        doc: dict = {
            "description": f"spectrum-sweep op {k}",
            "command": command,
            "input": {"port": rng.choice((1, 2)), "mode": carriers[s]},
            "model": "optical" if rng.random() < 1 / 6 else "exact",
            "output": {"format": "json" if k % 2 else "csv"},
        }
        if command == "coherent":
            doc["input"]["alpha"] = _alpha(rng)
        # drive schemes cancel rows, which makes emitting cheaper, so the
        # device kind follows the stratum rather than the seed
        if s % 2:
            doc["preset"] = "yb_dual"
            drive = {"type": "ssb" if s % 4 == 3 else "dsb", "m": ms[0], "tone": tone}
            if drive["type"] == "ssb":
                drive["cancel"] = rng.choice(("lower", "upper"))
            doc["drive"] = drive
            doc["sweep"] = [{"drive": {"m": m}} for m in ms]
        else:
            doc["preset"] = rng.choice(PM_PRESETS)
            doc["arms"] = {
                arm: {"phi_b": _angle(rng), "m": ms[0], "theta_rf": _angle(rng), "tone": tone}
                for arm in ("arm1", "arm2")
            }
            doc["sweep"] = [{"arms": {"arm1": {"m": m}, "arm2": {"m": m}}} for m in ms]
        docs.append(doc)
    return docs


def two_photon_schmidt(seed: int) -> list[dict]:
    """two-photon runs of matched arms with a bias offset, depth 0.1..5.

    Why: the dense Schmidt SVD in `port_entanglement` and the pair product
    dominate while the Bessel path stays near idle; memory peaks here.  Depth
    sets the cost (the SVD grows with the square of the ladder width), so it
    is the stratified parameter; carrier and tone follow the depth stratum by
    a fixed rule so the wall clips the same strata for every seed.
    """
    rng = random.Random(seed)
    n_ops = 25
    depths = [log_uniform(0.1, 5.0, p) for p in strata(rng, n_ops)]
    carriers = [round(20 + 280 * p) for p in strata(rng, n_ops)]
    docs = []
    for k, s in enumerate(spread_order(n_ops)):
        tone = 1 + s % 3
        bias, theta = _angle(rng), _angle(rng)
        arm = {"m": depths[s], "theta_rf": theta, "tone": tone}
        docs.append({
            "description": f"two-photon-schmidt op {k}",
            "command": "two-photon",
            "preset": rng.choice(PM_PRESETS),
            "arms": {
                "arm1": dict(arm, phi_b=bias + rng.uniform(0.0, 0.5 * math.pi)),
                "arm2": dict(arm, phi_b=bias),
            },
            "input": {"mode": carriers[(7 * s) % n_ops]},  # 7 is coprime to n_ops
            "output": {"format": "json" if k % 2 else "csv"},
        })
    return docs


def mean_field_waveform(seed: int) -> list[dict]:
    """mean-field waveforms of 5k..20k samples from exact or multitone arms.

    Why: the per-sample loop in `engine.mean_field` and the formatting of
    many small rows in `cli.emit_run` dominate, a different use of `emit_run`
    than spectrum-sweep.  Cost is samples times occupied modes; exact arms
    occupy ~10x more modes than multitone ones, so every third op is
    multitone by a fixed rule and the sample count is the stratified
    parameter.
    """
    rng = random.Random(seed)
    n_ops = 31
    samples = [round(5000 + 15000 * p) for p in strata(rng, n_ops)]
    depths = [log_uniform(0.5, 10.0, p) for p in strata(rng, n_ops)]
    docs = []
    for k, s in enumerate(spread_order(n_ops)):
        if s % 3 == 2:
            picks = rng.sample(TONES, 2 + (s // 3) % 3)
            arms = {
                arm: {
                    "phi_b": _angle(rng),
                    "tones": [{"m": rng.uniform(0.01, 0.1), "theta_rf": _angle(rng), "tone": t}
                              for t in picks],
                    "convention": rng.choice(("full", "half")),
                }
                for arm in ("arm1", "arm2")
            }
        else:
            tone = 1 + s % 3
            arms = {
                arm: {"phi_b": _angle(rng), "m": depths[(7 * s) % n_ops],  # 7 is coprime to n_ops
                      "theta_rf": _angle(rng), "tone": tone}
                for arm in ("arm1", "arm2")
            }
        docs.append({
            "description": f"mean-field-waveform op {k}",
            "command": "mean-field",
            "preset": rng.choice(PM_PRESETS),
            "arms": arms,
            "input": {"port": rng.choice((1, 2)), "mode": rng.randint(100, 1000),
                      "alpha": _alpha(rng)},
            "mean_field": {"port": rng.choice((1, 2)), "t_start": 0.0,
                           "t_stop": 2.0 * math.pi * rng.uniform(1.0, 3.0),
                           "samples": samples[s]},
            "output": {"format": "json" if k % 2 else "csv"},
        })
    return docs


def verify_battery(seed: int) -> list[dict]:
    """`eomsim verify`, json and csv alternating; the battery is fixed, so the seed is unused.

    Why: the only workload that reaches `special.unitary_exp` through
    `composition_oracle`, and the battery the test suite runs seven times.
    """
    del seed
    return [{"description": f"verify-battery {fmt}", "command": "verify",
             "output": {"format": fmt}} for fmt in ("json", "csv")]


WORKLOADS = {
    "spectrum-sweep": spectrum_sweep,
    "two-photon-schmidt": two_photon_schmidt,
    "mean-field-waveform": mean_field_waveform,
    "verify-battery": verify_battery,
}


def expected_points(doc: dict) -> int:
    if doc["command"] == "verify":
        return 0  # the check count comes from the output
    return len(doc.get("sweep", [None]))


def check_output(doc: dict, text: str) -> int:
    """Check one op's output against physics invariants; return its point count.

    For verify, a point is one check.  Raises CheckFailed on any violation.
    """
    fmt = doc["output"]["format"]
    command = doc["command"]
    if command == "verify":
        return _check_verify(text, fmt)
    if fmt == "json":
        points = json.loads(text)["points"]
    else:
        points = _csv_points(text)
    if len(points) != expected_points(doc):
        raise CheckFailed(f"{len(points)} output points, config has {expected_points(doc)}")
    for i, pt in enumerate(points):
        where = f"point {i}: "
        if command in ("spectrum", "coherent"):
            _check_spectrum(doc, pt, fmt, where)
        elif command == "two-photon":
            _check_two_photon(pt, fmt, where)
        else:
            _check_mean_field(doc, pt, fmt, where)
    return len(points)


def _csv_points(text: str) -> list[list[dict]]:
    groups: dict[int, list[dict]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        groups.setdefault(int(row["point"]), []).append(row)
    return [groups[k] for k in sorted(groups)]


def _finite(values, where: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"{where}non-finite value {v!r}")


def _check_spectrum(doc: dict, pt, fmt: str, where: str) -> None:
    probs = [float(r["prob"]) for r in (pt["rows"] if fmt == "json" else pt)]
    _finite(probs, where)
    alpha = doc["input"].get("alpha")
    want = 1.0 if alpha is None else alpha[0] ** 2 + alpha[1] ** 2
    power = math.fsum(probs)
    if doc["model"] == "exact":
        if abs(power - want) > POWER_TOL * want:
            raise CheckFailed(f"{where}exact-model power {power!r}, expected {want!r}")
    elif power > want * (1.0 + POWER_TOL):
        raise CheckFailed(f"{where}optical-model power {power!r} exceeds {want!r}")


def _check_two_photon(pt, fmt: str, where: str) -> None:
    if fmt == "json":
        norm = float(pt["norm"])
        sectors = [float(v) for v in pt["sectors"].values()]
        svs = [float(v) for v in pt["singular_values"]]
    else:
        by_record: dict[str, list[float]] = {}
        for row in pt:
            by_record.setdefault(row["record"], []).append(float(row["value"]))
        (norm,) = by_record["norm"]
        sectors = by_record["sector"]
        svs = by_record.get("singular_value", [])
    _finite([norm, *sectors, *svs], where)
    checks = (
        ("norm", norm, 1.0),
        ("sector sum", math.fsum(sectors), norm),
        ("sum of squared singular values", math.fsum(s * s for s in svs), norm),
    )
    for name, got, want in checks:
        if abs(got - want) > POWER_TOL:
            raise CheckFailed(f"{where}{name} {got!r}, expected {want!r}")


def _check_mean_field(doc: dict, pt, fmt: str, where: str) -> None:
    if fmt == "json":
        fields = [float(s["field"]) for s in pt["samples"]]
    else:
        fields = [float(r["field"]) for r in pt if r["record"] == "sample"]
    want = doc["mean_field"]["samples"]
    if len(fields) != want:
        raise CheckFailed(f"{where}{len(fields)} samples, config asks for {want}")
    _finite(fields, where)


def _check_verify(text: str, fmt: str) -> int:
    if fmt == "json":
        report = json.loads(text)
        passed = [bool(c["passed"]) for c in report["checks"]]
        if not report["all_passed"]:
            raise CheckFailed("verify reports all_passed false")
    else:
        passed = [row["passed"] == "true" for row in csv.DictReader(io.StringIO(text))]
    if not passed or not all(passed):
        raise CheckFailed(f"verify: {passed.count(False)} of {len(passed)} checks failed")
    return len(passed)
