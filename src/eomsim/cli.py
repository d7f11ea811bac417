"""Command-line front end.

Subcommands::

    eomsim spectrum   --config cfg.json [--format csv|json] [--out path] [--model exact|optical]
    eomsim coherent   --config cfg.json ...
    eomsim two-photon --config cfg.json ...
    eomsim mean-field --config cfg.json ...
    eomsim verify     [--config cfg.json] [--tolerance-scale X] [--format ...] [--out path]

Exit status: 0 on success, 1 for configuration or physics validation errors
(including a failed verify run), 2 for I/O problems such as an unreadable
config file.

Output is deterministic: rows are emitted in sorted order and floats are
written with full round-trip precision, so repeated runs of the same config
are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .config import (
    FORMATS,
    MODELS,
    ConfigError,
    RunConfig,
    RunPoint,
    parse_config,
)
from .engine import (
    coherent_output,
    mean_field,
    port_entanglement,
    single_photon_output,
    two_photon_output,
)
from .phase_mod import MultitonePMConfig, PMConfig


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


# The record kinds of a run point: per kind, its JSON keys and their %
# conversions, in the order of the point's record tuples.  No key, %d integer
# or finite %r float holds an "n", while %r spells the non-finite floats "nan"
# and "inf", which json writes as NaN and Infinity.  A point's "phasors" and
# "rows" are lists of record tuples; its "pairs" is a `PairTable` of columns
# (see `_table_texts`) and its "samples" the two columns `(times, fields)`.
RECORDS = {
    "rows": (("port", "d"), ("mode", "d"), ("order", "d"), ("re", "r"), ("im", "r"), ("prob", "r")),
    "pairs": (("port_a", "d"), ("mode_a", "d"), ("port_b", "d"), ("mode_b", "d"),
              ("re", "r"), ("im", "r"), ("prob", "r")),
    "phasors": (("mode", "d"), ("omega", "r"), ("re", "r"), ("im", "r")),
    "samples": (("t", "r"), ("field", "r")),
}
# The text between two fields of a record, in each format's layouts.
FIELD_SEPARATORS = {"csv": ",", "json": ",\n          "}
# One record inside a point, as json.dumps(indent=2) prints it.
JSON_LAYOUTS = {
    kind: "        {\n          %s\n        }" % FIELD_SEPARATORS["json"].join(
        '"%s": %%%s' % kv for kv in fields)
    for kind, fields in RECORDS.items()
}
# The CSV columns of each record kind after `point`: its record tuple's fields
# in order, with the columns the kind does not use left empty.
CSV_LAYOUTS = {
    "rows": "%d,%d,%d,%.17g,%.17g,%.17g",
    "pairs": "pair,%d,%d,%d,%d,%.17g,%.17g,%.17g",
    "phasors": "phasor,%d,%.17g,,%.17g,%.17g,",
    "samples": "sample,,,%.17g,,,%.17g",
}
# Samples per joined block of CSV sample lines (see `_sample_texts`).
SAMPLE_BLOCK = 4096
CSV_HEADERS = {
    "spectrum": "point,port,mode,order,re,im,prob",
    "coherent": "point,port,mode,order,re,im,prob",
    "two-photon": "point,record,k1,k2,k3,k4,re,im,value",
    "mean-field": "point,record,mode,omega,t,re,im,field",
}


def _order_basis(eom) -> int | None:
    """Common ladder spacing, if the device has one.

    When every driven arm runs the same single tone the mode offsets are
    reported in units of that tone; otherwise the raw offset is used.
    """
    tones = set()
    for arm in (eom.pm1, eom.pm2):
        if isinstance(arm, MultitonePMConfig):
            return None
        if isinstance(arm, PMConfig):
            tones.add(arm.tone)
    if len(tones) == 1:
        return tones.pop()
    return None


def _spectrum_point(pt: RunPoint, idx: int, coherent: bool) -> dict:
    if coherent:
        spec = coherent_output(pt.eom, pt.input_port, pt.n0, pt.alpha, pt.truncation, pt.model)
    else:
        spec = single_photon_output(pt.eom, pt.input_port, pt.n0, pt.truncation, pt.model)
    basis = _order_basis(pt.eom) or 1
    rows = [
        (port, mode, (mode - pt.n0) // basis, amp.real, amp.imag, abs(amp) ** 2)
        for port in (1, 2)
        for mode, amp in sorted(spec.port(port).items())
    ]
    out = {
        "point": idx,
        "input_port": pt.input_port,
        "mode_in": pt.n0,
        "model": pt.model,
        "total_power": spec.total_power(),
        "rows": rows,
    }
    if coherent:
        out["alpha"] = [pt.alpha.real, pt.alpha.imag]
    return out


def _two_photon_point(pt: RunPoint, idx: int) -> dict:
    state = two_photon_output(pt.eom, pt.n0, pt.truncation, pt.model)
    return {
        "point": idx,
        "mode_in": pt.n0,
        "model": pt.model,
        "norm": state.norm_sq(),
        "pairs": state.pairs,
        "sectors": state.sector_probabilities(),
        "singular_values": port_entanglement(state).tolist(),
    }


def _mean_field_point(pt: RunPoint, idx: int) -> dict:
    mf = pt.mean_field
    spec = coherent_output(pt.eom, pt.input_port, pt.n0, pt.alpha, pt.truncation, pt.model)
    series = mean_field(spec, mf.port, mf.grid, mf.nu, mf.length, mf.field_scale)
    return {
        "point": idx,
        "input_port": pt.input_port,
        "mode_in": pt.n0,
        "alpha": [pt.alpha.real, pt.alpha.imag],
        "port": mf.port,
        "model": pt.model,
        "phasors": [(mode, omega, ph.real, ph.imag) for mode, omega, ph in series.terms],
        "samples": (series.times.tolist(), series.values.tolist()),
    }


def run_points(rc: RunConfig) -> list[dict]:
    out = []
    for idx, pt in enumerate(rc.points):
        if rc.command in ("spectrum", "coherent"):
            out.append(_spectrum_point(pt, idx, coherent=rc.command == "coherent"))
        elif rc.command == "two-photon":
            out.append(_two_photon_point(pt, idx))
        else:
            out.append(_mean_field_point(pt, idx))
    return out


def emit_run(command: str, points: list[dict], fmt: str) -> str:
    """Render run points, each record kind through one % layout.

    A point maps its fields to values in output order; the `RECORDS` fields
    hold lists of record tuples, except "pairs", a `PairTable` of columns
    (see `_table_texts`), and "samples", the two lists of Python floats
    `(times, fields)`.  JSON equals json.dumps(indent=2) of the run with
    each record as an object of its kind's keys.
    """
    if fmt == "json":
        if not points:
            return json.dumps({"command": command, "points": []}, indent=2) + "\n"
        body = ",\n".join(map(_json_point, points))
        return '{\n  "command": %s,\n  "points": [\n%s\n  ]\n}\n' % (json.dumps(command), body)
    lines = [CSV_HEADERS[command]]
    for p in points:
        i = p["point"]
        for kind, layout in CSV_LAYOUTS.items():
            if kind in p:
                lines.extend(_record_texts(kind, p[kind], "%d," % i + layout, "csv"))
        if command == "two-photon":
            lines.extend("%d,sector,%s,,,,,,%.17g" % (i, *kv) for kv in p["sectors"].items())
            lines.extend("%d,singular_value,%d,,,,,,%.17g" % (i, *kv)
                         for kv in enumerate(p["singular_values"]))
            lines.append("%d,norm,,,,,,,%.17g" % (i, p["norm"]))
    lines.append("")  # the text ends in a newline, without a copy to add it
    return "\n".join(lines)


def _record_texts(kind: str, records, layout: str, fmt: str) -> list[str]:
    if kind == "pairs":
        return _table_texts(records, layout, FIELD_SEPARATORS[fmt])
    if kind == "samples":
        return _sample_texts(*records, layout)
    return list(map(layout.__mod__, records))


def _sample_texts(times: list, fields: list, layout: str) -> list[str]:
    """The CSV lines of the samples, joined in blocks of `SAMPLE_BLOCK`.

    zip hands % one reused (t, field) tuple, and a block's one text holds
    the lines in less memory than a str per line would.
    """
    return ["\n".join(map(layout.__mod__, zip(times[i:i + SAMPLE_BLOCK], fields[i:i + SAMPLE_BLOCK])))
            for i in range(0, len(times), SAMPLE_BLOCK)]


def _table_texts(table, layout: str, sep: str) -> list[str]:
    """Each record of a table of columns through `layout`, one column at a time.

    `layout` is split at `sep` into one % template per column, each column
    is formatted by `_column_text`, and a record's text is its fields joined
    by `sep`: the text of `layout % record`.  Pair amplitudes are products
    of two one-photon rows, so most values in a pair column repeat.
    """
    templates = layout.rsplit(sep, len(table) - 1)
    return list(map(sep.join, zip(*map(_column_text, table, templates))))


def _column_text(column: np.ndarray, template: str) -> list[str]:
    """`template % x` for each x of a numeric column, formatted once per distinct value.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    text = [template % x for x in bits.view(column.dtype).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _json_point(point: dict) -> str:
    fields = ",\n".join(
        '      "%s": %s' % (key, _json_records(key, value) if key in RECORDS else _json_value(value))
        for key, value in point.items()
    )
    return "    {\n%s\n    }" % fields


def _json_records(kind: str, records) -> str:
    if kind == "samples":
        text = _json_sample_text(*records)
    else:
        texts = _record_texts(kind, records, JSON_LAYOUTS[kind], "json")
        if not texts:
            return "[]"
        # bracket the end records, so that the list's text is built in one join
        texts[0] = "[\n" + texts[0]
        texts[-1] += "\n      ]"
        text = ",\n".join(texts)
    if "n" in text:  # a "nan" or "inf", which json writes as NaN and Infinity
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_sample_text(times: list, fields: list) -> str:
    """The JSON list of sample records, the text of its per-record layout.

    The layout's text around its two %r goes between the reprs of each
    sample's time and field, so the whole list is one join of strings.
    """
    if not times:
        return "[]"
    head, mid, tail = JSON_LAYOUTS["samples"].split("%r")
    pieces = [None, mid, None, tail + ",\n" + head] * len(times)
    pieces[0::4] = map(repr, times)
    pieces[2::4] = map(repr, fields)
    pieces[0] = "[\n" + head + pieces[0]
    pieces[-1] = tail + "\n      ]"
    return "".join(pieces)


def _json_value(value) -> str:
    """json.dumps(value, indent=2) as it prints as a field of a point."""
    return json.dumps(value, indent=2).replace("\n", "\n      ")


def emit_verify(results: list, scale: float, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "command": "verify",
            "tolerance_scale": scale,
            "all_passed": all(r.passed for r in results),
            "checks": [dataclasses.asdict(r) for r in results],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["%d,%s,%s,%s" % (r.index, r.name, "true" if r.passed else "false", _csv_field(r.detail))
             for r in results]
    return "\n".join(["index,name,passed,detail", *lines]) + "\n"


def _write_output(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _load_config(path: str, command: str, model: str | None = None) -> tuple[RunConfig | None, int]:
    """Read and parse a config for `command`; on failure, report and return the exit status."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return None, 2
    try:
        rc = parse_config(text, model)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    if rc.command != command:
        print(f"error: config is for command {rc.command!r}, invoked as {command!r}",
              file=sys.stderr)
        return None, 1
    return rc, 0


def _cmd_run(args) -> int:
    rc, status = _load_config(args.config, args.command, args.model)
    if status:
        return status
    try:
        points = run_points(rc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = args.format if args.format is not None else rc.fmt
    return _write_output(emit_run(rc.command, points, fmt), args.out)


def _cmd_verify(args) -> int:
    scale = 1.0
    fmt = None
    if args.config is not None:
        rc, status = _load_config(args.config, "verify")
        if status:
            return status
        scale = rc.tolerance_scale
        fmt = rc.fmt
    if args.tolerance_scale is not None:
        if not 0.0 < args.tolerance_scale < math.inf:
            print("error: --tolerance-scale must be positive and finite", file=sys.stderr)
            return 1
        scale = args.tolerance_scale
    if args.format is not None:
        fmt = args.format
    results = verify_mod.run_all(scale)
    status = _write_output(emit_verify(results, scale, fmt or "csv"), args.out)
    if status:
        return status
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later `main` call.

    Reuse only helps callers that run `main` more than once in a process
    (tests, scripts, the benchmark); a shell `eomsim` call builds it once
    either way.  Parsing leaves the parser as it was, so calls do not see
    each other's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="eomsim",
        description="Quantized-field simulator for dual-arm electro-optic amplitude modulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_help = {
        "spectrum": "single-photon output amplitudes per port and mode",
        "coherent": "coherent-state output amplitudes per port and mode",
        "two-photon": "two-photon joint output state, sectors and Schmidt coefficients",
        "mean-field": "classical field phasors and time samples on one port",
    }
    for name, help_text in run_help.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--format", choices=FORMATS, help="override the output format")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--model", choices=MODELS, help="override the scattering model")
    pv = sub.add_parser("verify", help="run the built-in physics checks")
    pv.add_argument("--config", help="optional JSON config with command 'verify'")
    pv.add_argument("--tolerance-scale", type=float,
                    help="multiply every check tolerance by this factor")
    pv.add_argument("--format", choices=FORMATS, help="report format (default csv)")
    pv.add_argument("--out", help="write the report to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit status.

    A usage error returns 2 and `--help` returns 0, the codes argparse exits
    with, after argparse has written its message; in-process callers then
    read every outcome from the return value.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
