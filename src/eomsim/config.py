"""JSON run-configuration documents for the command-line tool.

One document describes one invocation: the device (preset or explicit
splitters, plus arm settings or a named drive scheme), the input state, the
model, and output options.  An optional "sweep" list of override documents
produces one output block per point.  Every object may carry a free-text
"description" field, which is ignored.

Validation errors name the offending field by path and are raised as
:class:`ConfigError`, which the CLI maps to exit status 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .engine import EOMConfig, dsb_settings, preset, ssb_settings, PRESETS
from .lattice import decompose_mode, mode_omega
from .phase_mod import MultitonePMConfig, PMConfig, ToneDrive, Truncation, retained_halfwidth
from .splitters import SplitterSpec

COMMANDS = ("spectrum", "coherent", "two-photon", "mean-field", "verify")
FORMATS = ("csv", "json")
MODELS = ("exact", "optical")
_MAX_SAMPLES = 1_000_000  # mean-field sample times are built in memory up front


class ConfigError(ValueError):
    """A configuration document failed validation."""


@dataclass(frozen=True)
class MeanFieldParams:
    port: int
    times: tuple[float, ...]
    nu: float
    length: float
    field_scale: float


@dataclass(frozen=True)
class RunPoint:
    """One fully resolved simulation to execute."""

    eom: EOMConfig
    input_port: int
    n0: int
    alpha: complex | None
    truncation: Truncation
    model: str
    mean_field: MeanFieldParams | None


@dataclass(frozen=True)
class RunConfig:
    command: str
    fmt: str
    points: tuple[RunPoint, ...]
    tolerance_scale: float = 1.0


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("document root must be a JSON object")

    _check_keys(
        doc,
        ("command", "preset", "splitters", "arms", "drive", "input", "model",
         "truncation", "output", "mean_field", "sweep", "tolerance_scale"),
        path="",
    )
    command = _get_str(doc, "command", "", required=True)
    if command not in COMMANDS:
        raise ConfigError(f"command: must be one of {COMMANDS}, got {command!r}")

    fmt = "csv"
    if "output" in doc:
        out = _get_obj(doc, "output", "")
        _check_keys(out, ("format",), path="output")
        fmt = _get_str(out, "format", "output", default="csv")
        if fmt not in FORMATS:
            raise ConfigError(f"output.format: must be one of {FORMATS}, got {fmt!r}")

    if command == "verify":
        scale = _get_num(doc, "tolerance_scale", "", default=1.0)
        if scale <= 0.0:
            raise ConfigError(f"tolerance_scale: must be positive, got {scale!r}")
        for key in ("preset", "splitters", "arms", "drive", "input", "truncation", "mean_field", "sweep"):
            if key in doc:
                raise ConfigError(f"{key}: not applicable to the verify command")
        return RunConfig(command=command, fmt=fmt, points=(), tolerance_scale=float(scale))

    if "tolerance_scale" in doc:
        raise ConfigError("tolerance_scale: only applicable to the verify command")

    sweep = doc.get("sweep", None)
    if sweep is None:
        overrides = [{}]
        prefixes = [""]
    else:
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("sweep: must be a non-empty array of override objects")
        overrides, prefixes = [], []
        for i, item in enumerate(sweep):
            if not isinstance(item, dict):
                raise ConfigError(f"sweep[{i}]: must be an object")
            overrides.append(item)
            prefixes.append(f"sweep[{i}].")

    base = {k: v for k, v in doc.items() if k not in ("sweep", "output", "description")}
    points = []
    for override, prefix in zip(overrides, prefixes):
        merged = _deep_merge(base, override)
        points.append(_resolve_point(merged, command, prefix))
    return RunConfig(command=command, fmt=fmt, points=tuple(points))


def _resolve_point(doc: dict, command: str, prefix: str) -> RunPoint:
    _check_keys(
        doc,
        ("command", "preset", "splitters", "arms", "drive", "input", "model",
         "truncation", "mean_field"),
        path=prefix.rstrip("."),
    )
    cmd = doc.get("command", command)
    if cmd != command:
        raise ConfigError(f"{prefix}command: sweep points cannot change the command")

    has_preset = "preset" in doc
    has_splitters = "splitters" in doc
    if has_preset == has_splitters:
        raise ConfigError(f"{prefix}device: give exactly one of 'preset' or 'splitters'")

    arms = doc.get("arms", None)
    drive = doc.get("drive", None)
    if arms is not None and drive is not None:
        raise ConfigError(f"{prefix}arms: give either 'arms' or 'drive', not both")

    if has_preset:
        name = _get_str(doc, "preset", prefix)
        if name not in PRESETS:
            raise ConfigError(f"{prefix}preset: must be one of {PRESETS}, got {name!r}")
        base_cfg = preset(name)
        single = name.endswith("_single")
    else:
        spl = _get_obj(doc, "splitters", prefix)
        _check_keys(spl, ("input", "output"), path=prefix + "splitters")
        base_cfg = EOMConfig(
            splitter_in=_parse_splitter(spl, "input", prefix + "splitters"),
            splitter_out=_parse_splitter(spl, "output", prefix + "splitters"),
        )
        single = False
        name = None

    pm1 = pm2 = None
    if drive is not None:
        if name != "yb_dual":
            raise ConfigError(f"{prefix}drive: named drive schemes require the yb_dual preset")
        drv = _get_obj(doc, "drive", prefix)
        _check_keys(drv, ("type", "m", "tone", "cancel"), path=prefix + "drive")
        dtype = _get_str(drv, "type", prefix + "drive", required=True)
        m = _get_num(drv, "m", prefix + "drive", required=True)
        tone = _get_int(drv, "tone", prefix + "drive", required=True)
        try:
            if dtype == "dsb":
                if "cancel" in drv:
                    raise ConfigError(f"{prefix}drive.cancel: only applicable to ssb")
                pm1, pm2 = dsb_settings(m, tone)
            elif dtype == "ssb":
                cancel = _get_str(drv, "cancel", prefix + "drive", default="lower")
                pm1, pm2 = ssb_settings(m, tone, cancel)
            else:
                raise ConfigError(f"{prefix}drive.type: must be 'dsb' or 'ssb', got {dtype!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{prefix}drive: {exc}") from None
    elif arms is not None:
        arm_obj = _get_obj(doc, "arms", prefix)
        _check_keys(arm_obj, ("arm1", "arm2"), path=prefix + "arms")
        pm1 = _parse_arm(arm_obj.get("arm1"), prefix + "arms.arm1")
        pm2 = _parse_arm(arm_obj.get("arm2"), prefix + "arms.arm2")

    if single and pm2 is not None:
        raise ConfigError(f"{prefix}arms.arm2: preset {name!r} has no second arm")

    try:
        eom = EOMConfig(
            splitter_in=base_cfg.splitter_in, splitter_out=base_cfg.splitter_out,
            pm1=pm1, pm2=pm2,
        )
    except ValueError as exc:
        raise ConfigError(f"{prefix}arms: {exc}") from None

    inp = _get_obj(doc, "input", prefix, required=True)
    _check_keys(inp, ("port", "mode", "alpha"), path=prefix + "input")
    n0 = _get_int(inp, "mode", prefix + "input", required=True)
    if n0 < 1:
        raise ConfigError(f"{prefix}input.mode: must be >= 1, got {n0}")
    if command == "two-photon":
        if "port" in inp:
            raise ConfigError(f"{prefix}input.port: two-photon input occupies both ports")
        if "alpha" in inp:
            raise ConfigError(f"{prefix}input.alpha: not applicable to two-photon input")
        port, alpha = 1, None
    else:
        port = _get_int(inp, "port", prefix + "input", default=1)
        if port not in (1, 2):
            raise ConfigError(f"{prefix}input.port: must be 1 or 2, got {port}")
        if command in ("coherent", "mean-field"):
            alpha = _parse_alpha(inp, prefix + "input")
        else:
            if "alpha" in inp:
                raise ConfigError(f"{prefix}input.alpha: not applicable to a single-photon run")
            alpha = None

    model = _get_str(doc, "model", prefix, default="exact")
    if model not in MODELS:
        raise ConfigError(f"{prefix}model: must be one of {MODELS}, got {model!r}")

    truncation = Truncation()
    if "truncation" in doc:
        tr = _get_obj(doc, "truncation", prefix)
        _check_keys(tr, ("eps", "margin"), path=prefix + "truncation")
        try:
            truncation = Truncation(
                eps=_get_num(tr, "eps", prefix + "truncation", default=1e-12),
                margin=_get_int(tr, "margin", prefix + "truncation", default=8),
            )
        except ValueError as exc:
            raise ConfigError(f"{prefix}truncation: {exc}") from None

    mf = None
    if command == "mean-field":
        mfo = _get_obj(doc, "mean_field", prefix, required=True)
        _check_keys(mfo, ("port", "t_start", "t_stop", "samples", "nu", "length", "field_scale"),
                    path=prefix + "mean_field")
        mf_port = _get_int(mfo, "port", prefix + "mean_field", default=1)
        if mf_port not in (1, 2):
            raise ConfigError(f"{prefix}mean_field.port: must be 1 or 2, got {mf_port}")
        t0 = _get_num(mfo, "t_start", prefix + "mean_field", default=0.0)
        t1 = _get_num(mfo, "t_stop", prefix + "mean_field", required=True)
        ns = _get_int(mfo, "samples", prefix + "mean_field", required=True)
        if not 1 <= ns <= _MAX_SAMPLES:
            raise ConfigError(f"{prefix}mean_field.samples: must be in [1, {_MAX_SAMPLES}], got {ns}")
        nu = _get_num(mfo, "nu", prefix + "mean_field", default=1.0)
        length = _get_num(mfo, "length", prefix + "mean_field", default=2.0 * math.pi)
        if nu <= 0.0 or length <= 0.0:
            raise ConfigError(f"{prefix}mean_field: nu and length must be positive")
        fs = _get_num(mfo, "field_scale", prefix + "mean_field", default=1.0)
        if ns == 1:
            times = (float(t0),)
        else:
            step = (t1 - t0) / (ns - 1)
            if not math.isfinite(step):
                raise ConfigError(f"{prefix}mean_field.t_stop: t_stop - t_start must be finite")
            times = tuple(t0 + k * step for k in range(ns))
        top = max(_top_mode(arm, n0, truncation) for arm in (eom.pm1, eom.pm2))
        try:
            omega = mode_omega(top, nu, length)
        except OverflowError:  # the mode number itself does not fit a float
            omega = math.inf
        if not (math.isfinite(omega) and math.isfinite(omega * max(abs(times[0]), abs(times[-1])))):
            raise ConfigError(f"{prefix}input.mode, {prefix}mean_field.t_stop: mean-field needs "
                              "a finite frequency 2*pi*mode*nu/length and phase omega*t for the "
                              "top reachable mode at the largest |t|")
        mf = MeanFieldParams(port=mf_port, times=times, nu=nu, length=length, field_scale=fs)
    elif "mean_field" in doc:
        raise ConfigError(f"{prefix}mean_field: only applicable to the mean-field command")

    return RunPoint(
        eom=eom, input_port=port, n0=n0, alpha=alpha,
        truncation=truncation, model=model, mean_field=mf,
    )


def _top_mode(arm, n0: int, truncation: Truncation) -> int:
    """Highest lattice mode that an arm's scatter row reaches from carrier n0."""
    if isinstance(arm, MultitonePMConfig):
        return n0 + max((drive.tone for drive in arm.tones), default=0)
    if arm is None or arm.m == 0.0:
        return n0
    dec = decompose_mode(n0, arm.tone)
    return (dec.q0 + retained_halfwidth(arm.m, truncation)) * arm.tone - dec.r0


def _parse_splitter(parent: dict, key: str, path: str) -> SplitterSpec:
    obj = _get_obj(parent, key, path, required=True)
    here = f"{path}.{key}"
    _check_keys(obj, ("kind", "k", "theta_split", "reverse"), path=here)
    kind = _get_str(obj, "kind", here, required=True)
    reverse = obj.get("reverse", False)
    if not isinstance(reverse, bool):
        raise ConfigError(f"{here}.reverse: must be true or false")
    kwargs = {}
    if "k" in obj:
        kwargs["k"] = _get_num(obj, "k", here)
    if "theta_split" in obj:
        kwargs["theta_split"] = _get_num(obj, "theta_split", here)
    try:
        return SplitterSpec(kind=kind, reverse=reverse, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{here}: {exc}") from None


def _parse_arm(obj, path: str):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object or null")
    if "tones" in obj:
        _check_keys(obj, ("phi_b", "tones", "convention"), path=path)
        tones_raw = obj["tones"]
        if not isinstance(tones_raw, list):
            raise ConfigError(f"{path}.tones: must be an array")
        tones = []
        for i, t in enumerate(tones_raw):
            tpath = f"{path}.tones[{i}]"
            if not isinstance(t, dict):
                raise ConfigError(f"{tpath}: must be an object")
            _check_keys(t, ("m", "theta_rf", "tone"), path=tpath)
            try:
                tones.append(ToneDrive(
                    m=_get_num(t, "m", tpath, required=True),
                    theta_rf=_get_num(t, "theta_rf", tpath, default=0.0),
                    tone=_get_int(t, "tone", tpath, required=True),
                ))
            except ValueError as exc:
                raise ConfigError(f"{tpath}: {exc}") from None
        try:
            return MultitonePMConfig(
                phi_b=_get_num(obj, "phi_b", path, default=0.0),
                tones=tuple(tones),
                convention=_get_str(obj, "convention", path, default="full"),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    _check_keys(obj, ("phi_b", "m", "theta_rf", "tone"), path=path)
    try:
        return PMConfig(
            phi_b=_get_num(obj, "phi_b", path, default=0.0),
            m=_get_num(obj, "m", path, required=True),
            theta_rf=_get_num(obj, "theta_rf", path, default=0.0),
            tone=_get_int(obj, "tone", path, required=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_alpha(inp: dict, path: str) -> complex:
    if "alpha" not in inp:
        raise ConfigError(f"{path}.alpha: required for coherent input")
    raw = inp["alpha"]
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ConfigError(f"{path}.alpha: must be a number or [re, im] pair")
    real, imag = (_finite(v, f"{path}.alpha") for v in parts)
    if not math.isfinite(real * real + imag * imag):
        raise ConfigError(f"{path}.alpha: |alpha|^2 must be finite")
    return complex(real, imag)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if key == "description":
            continue
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _check_keys(obj: dict, allowed: tuple, path: str) -> None:
    for key in obj:
        if key == "description":
            continue
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"{where}: unknown field")


def _get_obj(doc: dict, key: str, path: str, required: bool = False) -> dict:
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if required:
            raise ConfigError(f"{where}: required section is missing")
        return {}
    val = doc[key]
    if not isinstance(val, dict):
        raise ConfigError(f"{where}: must be an object")
    return val


def _get_str(doc: dict, key: str, path: str, required: bool = False, default: str | None = None):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if required:
            raise ConfigError(f"{where}: required field is missing")
        return default
    val = doc[key]
    if not isinstance(val, str):
        raise ConfigError(f"{where}: must be a string")
    return val


def _get_num(doc: dict, key: str, path: str, required: bool = False, default: float | None = None):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if required:
            raise ConfigError(f"{where}: required field is missing")
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: must be a number")
    return _finite(val, where)


def _finite(val: int | float, where: str) -> float:
    try:
        val = float(val)
    except OverflowError:  # a JSON integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite")
    return val


def _get_int(doc: dict, key: str, path: str, required: bool = False, default: int | None = None):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if required:
            raise ConfigError(f"{where}: required field is missing")
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}: must be an integer")
    return val
