"""JSON run-configuration documents for the command-line tool.

One document describes one invocation: the device (preset or explicit
splitters, plus arm settings or a named drive scheme), the input state, the
model, and output options.  An optional "sweep" list of override documents
produces one output block per point.  Every object may carry a free-text
"description" field, which is ignored.

A mean-field point is measured, not modelled: parsing computes the coherent
output the run will sample, keeps it on the point, and refuses the point
unless every occupied mode n has a finite frequency omega_n, finite phases
omega_n*t at the largest |t| and omega_n*|t_stop - t_start| (the sampler's
offsets within a block), a finite |field_scale|*sqrt(omega_n), and the
triangle bound 2 * sum_n |field_scale| |A_n| sqrt(omega_n) on every sample
is at most 1e300.

Validation errors name the offending field by path and are raised as
:class:`ConfigError`, which the CLI maps to exit status 1.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (EOMConfig, SampleGrid, TwoPortSpectrum, _check_port, _sum_in_order, coherent_output,
                     dsb_settings, preset, ssb_settings, PRESETS)
from .lattice import _check_mode, mode_omega
from .phase_mod import MODELS, MultitonePMConfig, PMConfig, ToneDrive, Truncation, pm_multitone_row
from .splitters import SplitterSpec

COMMANDS = ("spectrum", "coherent", "two-photon", "mean-field", "verify")
FORMATS = ("csv", "json")
_MAX_SAMPLES = 1_000_000  # a mean-field point's samples, and their text, are held in memory
_MAX_FIELD = 1e300  # bound on the sampled mean field, well inside the float range

_RUN = ("command", "preset", "splitters", "arms", "drive", "input", "model", "truncation")
_DOC = ("output", "sweep")
# The fields each command accepts: (in the document, in a sweep point, in "input").
_FIELDS = {
    "spectrum": (_RUN + _DOC, _RUN, ("port", "mode")),
    "coherent": (_RUN + _DOC, _RUN, ("port", "mode", "alpha")),
    "two-photon": (_RUN + _DOC, _RUN, ("mode",)),
    "mean-field": (_RUN + _DOC + ("mean_field",), _RUN + ("mean_field",), ("port", "mode", "alpha")),
    "verify": (("command", "output", "tolerance_scale"), (), ()),
}


class ConfigError(ValueError):
    """A configuration document failed validation."""


@dataclass(frozen=True)
class MeanFieldParams:
    """How a mean-field point samples `spectrum`, the coherent output that parsing computed
    (it follows from the `RunPoint`, so it takes no part in equality, hashing or repr)."""

    port: int
    grid: SampleGrid
    nu: float
    length: float
    field_scale: float
    spectrum: TwoPortSpectrum = field(compare=False, repr=False)

    @property
    def times(self) -> np.ndarray:
        """The grid's sample times, built on each access."""
        return self.grid.times()


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


def parse_config(text: str, model: str | None = None) -> RunConfig:
    """Parse and validate a JSON configuration document; a `model` replaces each point's own."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("document root must be a JSON object")

    command = _one_of(doc, "command", "", COMMANDS, required=True)
    doc_fields, point_fields, _ = _FIELDS[command]
    _check_keys(doc, doc_fields, "", command)

    out = _get(doc, "output", "", dict, default={})
    _check_keys(out, ("format",), "output")
    fmt = _one_of(out, "format", "output", FORMATS, default="csv")

    if command == "verify":
        scale = _get(doc, "tolerance_scale", "", float, default=1.0)
        if scale <= 0.0:
            raise ConfigError(f"tolerance_scale: must be positive, got {scale!r}")
        return RunConfig(command=command, fmt=fmt, points=(), tolerance_scale=scale)

    sweep = doc.get("sweep", None)
    if sweep is not None and not (isinstance(sweep, list) and sweep):
        raise ConfigError("sweep: must be a non-empty array of override objects")
    for i, item in enumerate(sweep or ()):
        if not isinstance(item, dict):
            raise ConfigError(f"sweep[{i}]: must be an object")

    base = {k: v for k, v in doc.items() if k not in ("sweep", "output", "description")}
    points = []
    for i, override in enumerate(sweep or [{}]):
        prefix = f"sweep[{i}]." if sweep else ""
        _check_keys(override, point_fields, prefix, command)
        points.append(_resolve_point(_deep_merge(base, override), command, prefix, model))
    return RunConfig(command=command, fmt=fmt, points=tuple(points))


def _resolve_point(doc: dict, command: str, prefix: str, model_override: str | None) -> RunPoint:
    if doc.get("command", command) != command:
        raise ConfigError(f"{prefix}command: sweep points cannot change the command")

    has_preset = "preset" in doc
    if has_preset == ("splitters" in doc):
        raise ConfigError(f"{prefix}device: give exactly one of 'preset' or 'splitters'")

    arms = doc.get("arms", None)
    drive = doc.get("drive", None)
    if arms is not None and drive is not None:
        raise ConfigError(f"{prefix}arms: give either 'arms' or 'drive', not both")

    if has_preset:
        name = _one_of(doc, "preset", prefix, PRESETS)
    else:
        name = None
        spl = _get(doc, "splitters", prefix, dict)
        _check_keys(spl, ("input", "output"), prefix + "splitters")
        splitters = [_parse_splitter(spl, key, prefix + "splitters") for key in ("input", "output")]

    pm1 = pm2 = None
    if drive is not None:
        if name != "yb_dual":
            raise ConfigError(f"{prefix}drive: named drive schemes require the yb_dual preset")
        here = prefix + "drive"
        drv = _get(doc, "drive", prefix, dict)
        _check_keys(drv, ("type", "m", "tone", "cancel"), here)
        dtype = _one_of(drv, "type", here, ("dsb", "ssb"), required=True)
        m = _get(drv, "m", here, float, required=True)
        tone = _get(drv, "tone", here, int, required=True)
        if dtype == "dsb" and "cancel" in drv:
            raise ConfigError(f"{here}.cancel: only applicable to ssb")
        with _field(here):
            pm1, pm2 = (dsb_settings(m, tone) if dtype == "dsb"
                        else ssb_settings(m, tone, _get(drv, "cancel", here, str, default="lower")))
    elif arms is not None:
        arm_obj = _get(doc, "arms", prefix, dict)
        _check_keys(arm_obj, ("arm1", "arm2"), prefix + "arms")
        pm1 = _parse_arm(arm_obj.get("arm1"), prefix + "arms.arm1")
        pm2 = _parse_arm(arm_obj.get("arm2"), prefix + "arms.arm2")

    if has_preset:
        with _field(prefix + "arms.arm2"):  # a *_single preset has no second arm
            eom = preset(name, pm1=pm1, pm2=pm2)
    else:
        eom = EOMConfig(splitter_in=splitters[0], splitter_out=splitters[1], pm1=pm1, pm2=pm2)

    here = prefix + "input"
    inp = _get(doc, "input", prefix, dict, required=True)
    input_fields = _FIELDS[command][2]
    _check_keys(inp, input_fields, here, command)
    n0 = _get(inp, "mode", here, int, required=True)
    with _field(f"{here}.mode"):
        _check_mode(n0)
    port = _get(inp, "port", here, int, default=1)
    with _field(f"{here}.port"):
        _check_port(port)
    alpha = _parse_alpha(inp, here) if "alpha" in input_fields else None

    model = _one_of(doc, "model", prefix, MODELS, default="exact")  # checked even when overridden
    model = model_override or model

    here = prefix + "truncation"
    tr = _get(doc, "truncation", prefix, dict, default={})
    _check_keys(tr, ("eps", "margin"), here)
    with _field(here):
        truncation = Truncation(eps=_get(tr, "eps", here, float, default=1e-12),
                                margin=_get(tr, "margin", here, int, default=8))

    for key, arm in (("arm1", eom.pm1), ("arm2", eom.pm2)):
        for i, t in enumerate(arm.tones if isinstance(arm, MultitonePMConfig) else ()):
            with _field(f"{prefix}input.mode, {prefix}arms.{key}.tones[{i}]"):
                pm_multitone_row(n0, replace(arm, tones=(t,)))

    mf = None
    if command == "mean-field":
        here = prefix + "mean_field"
        mfo = _get(doc, "mean_field", prefix, dict, required=True)
        _check_keys(mfo, ("port", "t_start", "t_stop", "samples", "nu", "length", "field_scale"), here)
        mf_port = _get(mfo, "port", here, int, default=1)
        with _field(f"{here}.port"):
            _check_port(mf_port)
        t0 = _get(mfo, "t_start", here, float, default=0.0)
        t1 = _get(mfo, "t_stop", here, float, required=True)
        ns = _get(mfo, "samples", here, int, required=True)
        if not 1 <= ns <= _MAX_SAMPLES:
            raise ConfigError(f"{here}.samples: must be in [1, {_MAX_SAMPLES}], got {ns}")
        nu = _get(mfo, "nu", here, float, default=1.0)
        length = _get(mfo, "length", here, float, default=2.0 * math.pi)
        with _field(here):
            mode_omega(1, nu, length)  # refuses a nu or length <= 0
        fs = _get(mfo, "field_scale", here, float, default=1.0)
        grid = SampleGrid(t0, t1, ns)
        if not math.isfinite(grid.step):
            raise ConfigError(f"{here}.t_stop: t_stop - t_start must be finite")
        t_max = float(np.max(np.abs(grid.times([0, ns - 1]))))
        span = abs(t1 - t0) if ns > 1 else 0.0  # bounds the sampler's offsets; one sample ignores t_stop
        with _field(prefix + "input"):
            spectrum = coherent_output(eom, port, n0, alpha, truncation, model)
        amps = spectrum.port(mf_port)
        terms = []
        for mode, amp in amps.items():
            try:
                omega = mode_omega(mode, nu, length)
            except OverflowError:  # the mode number itself does not fit a float
                omega = math.inf
            if not all(map(math.isfinite, (omega, omega * t_max, omega * span))):
                raise ConfigError(f"{prefix}input.mode, {here}.t_stop: mean-field needs a finite frequency "
                                  "2*pi*mode*nu/length and finite phases omega*t at the largest |t| and "
                                  "omega*|t_stop - t_start| for every occupied mode")
            terms.append(abs(fs) * abs(amp) * math.sqrt(omega))
        # a sample sums 2*Re(phasor*exp(-j omega t)) over the occupied modes,
        # with |phasor| = |field_scale*amplitude|*sqrt(omega)
        bound = 2.0 * _sum_in_order(terms)
        if not bound <= _MAX_FIELD:
            raise ConfigError(f"{here}.field_scale, {prefix}input.alpha: the sampled field must stay below "
                              f"{_MAX_FIELD:g}, but 2*|field_scale|*|amplitude|*sqrt(omega) summed over "
                              f"the port's occupied modes is {bound:.3g}")
        # the phasor is formed as (field_scale*sqrt(omega))*amplitude, so its first factor must be finite too
        for mode in amps:
            if not math.isfinite(abs(fs) * math.sqrt(mode_omega(mode, nu, length))):
                raise ConfigError(f"{here}.field_scale: |field_scale|*sqrt(omega) must be finite for every "
                                  f"occupied mode, but overflows at mode {mode}")
        mf = MeanFieldParams(port=mf_port, grid=grid, nu=nu, length=length, field_scale=fs,
                             spectrum=spectrum)

    return RunPoint(eom=eom, input_port=port, n0=n0, alpha=alpha, truncation=truncation,
                    model=model, mean_field=mf)


def _parse_splitter(parent: dict, key: str, path: str) -> SplitterSpec:
    obj = _get(parent, key, path, dict, required=True)
    here = f"{path}.{key}"
    _check_keys(obj, ("kind", "k", "theta_split", "reverse"), here)
    kind = _get(obj, "kind", here, str, required=True)
    reverse = obj.get("reverse", False)
    if not isinstance(reverse, bool):
        raise ConfigError(f"{here}.reverse: must be true or false")
    with _field(here):
        return SplitterSpec(kind=kind, reverse=reverse, k=_get(obj, "k", here, float),
                            theta_split=_get(obj, "theta_split", here, float))


def _parse_arm(obj, path: str):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object or null")
    if "tones" not in obj:
        _check_keys(obj, ("phi_b", "m", "theta_rf", "tone"), path)
        with _field(path):
            return PMConfig(phi_b=_get(obj, "phi_b", path, float, default=0.0),
                            m=_get(obj, "m", path, float, required=True),
                            theta_rf=_get(obj, "theta_rf", path, float, default=0.0),
                            tone=_get(obj, "tone", path, int, required=True))
    _check_keys(obj, ("phi_b", "tones", "convention"), path)
    if not isinstance(obj["tones"], list):
        raise ConfigError(f"{path}.tones: must be an array")
    tones = []
    for i, t in enumerate(obj["tones"]):
        here = f"{path}.tones[{i}]"
        if not isinstance(t, dict):
            raise ConfigError(f"{here}: must be an object")
        _check_keys(t, ("m", "theta_rf", "tone"), here)
        with _field(here):
            tones.append(ToneDrive(m=_get(t, "m", here, float, required=True),
                                   theta_rf=_get(t, "theta_rf", here, float, default=0.0),
                                   tone=_get(t, "tone", here, int, required=True)))
    with _field(path):
        return MultitonePMConfig(phi_b=_get(obj, "phi_b", path, float, default=0.0),
                                 tones=tuple(tones),
                                 convention=_get(obj, "convention", path, str, default="full"))


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
        if key != "description":
            nested = isinstance(val, dict) and isinstance(out.get(key), dict)
            out[key] = _deep_merge(out[key], val) if nested else val
    return out


def _check_keys(obj: dict, allowed: tuple, path: str, command: str | None = None) -> None:
    """Refuse any field of `obj` outside `allowed`, naming `command` when it owns the list."""
    for key in obj:
        if key != "description" and key not in allowed:
            why = f"unknown field for the {command} command" if command else "unknown field"
            raise ConfigError(f"{_where(path, key)}: {why}")


@contextmanager
def _field(path: str):
    """Report a library type's own ValueError as a ConfigError under the field path."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_KINDS = {dict: "an object", str: "a string", float: "a number", int: "an integer"}


def _get(doc: dict, key: str, path: str, kind: type, required: bool = False, default=None):
    """doc[key], checked to be a `kind` (dict, str, float or int), or `default` when absent."""
    where = _where(path, key)
    if key not in doc:
        if required:
            raise ConfigError(f"{where}: required {'section' if kind is dict else 'field'} is missing")
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}: must be {_KINDS[kind]}")
    return _finite(val, where) if kind is float else val


def _one_of(doc: dict, key: str, path: str, choices: tuple, required: bool = False, default=None):
    val = _get(doc, key, path, str, required, default)
    if val not in choices:
        raise ConfigError(f"{_where(path, key)}: must be one of {choices}, got {val!r}")
    return val


def _where(path: str, key: str) -> str:
    """Field path of `key` under `path`, which may end in the "." of a sweep prefix."""
    return f"{path}.{key}" if path and not path.endswith(".") else path + key


def _finite(val: int | float, where: str) -> float:
    try:
        val = float(val)
    except OverflowError:  # a JSON integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite")
    return val
