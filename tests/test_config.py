import json
import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from eomsim import config, phase_mod
from eomsim.cli import main
from eomsim.config import ConfigError, parse_config
from eomsim.engine import SampleGrid, coherent_output, mean_field
from eomsim.phase_mod import MultitonePMConfig, PMConfig
from oracles import reach_field_bound, sample_grid_loop


def _doc(**overrides):
    base = {
        "command": "spectrum",
        "preset": "yb_dual",
        "drive": {"type": "dsb", "m": 0.5, "tone": 3},
        "input": {"port": 1, "mode": 100},
    }
    base.update(overrides)
    return base


def _parse(doc):
    return parse_config(json.dumps(doc))


def test_minimal_document_defaults():
    rc = _parse(_doc())
    assert rc.command == "spectrum"
    assert rc.fmt == "csv"
    assert len(rc.points) == 1
    pt = rc.points[0]
    assert pt.input_port == 1
    assert pt.n0 == 100
    assert pt.model == "exact"
    assert pt.alpha is None
    assert pt.truncation.eps == 1e-12
    assert pt.truncation.margin == 8
    assert isinstance(pt.eom.pm1, PMConfig)
    assert pt.eom.pm1.phi_b == pytest.approx(math.pi / 2)
    assert pt.eom.pm2.phi_b == pytest.approx(-math.pi / 2)


def test_explicit_splitters_and_arms():
    rc = _parse({
        "command": "spectrum",
        "splitters": {
            "input": {"kind": "dc", "k": 0.3},
            "output": {"kind": "yb", "k": 0.5, "reverse": True},
        },
        "arms": {
            "arm1": {"phi_b": 0.1, "m": 0.7, "theta_rf": 0.2, "tone": 2},
            "arm2": None,
        },
        "input": {"mode": 40},
    })
    pt = rc.points[0]
    assert pt.eom.splitter_in.kind == "dc"
    assert pt.eom.splitter_out.reverse is True
    assert pt.eom.pm1.m == 0.7
    assert pt.eom.pm2 is None


def test_multitone_arm_parses():
    rc = _parse({
        "command": "coherent",
        "preset": "yb_single",
        "arms": {"arm1": {
            "phi_b": 0.3,
            "tones": [{"m": 0.01, "theta_rf": 0.0, "tone": 1}, {"m": 0.02, "tone": 5}],
            "convention": "half",
        }},
        "input": {"mode": 80, "alpha": [0.5, -0.25]},
    })
    pt = rc.points[0]
    assert isinstance(pt.eom.pm1, MultitonePMConfig)
    assert pt.eom.pm1.convention == "half"
    assert pt.eom.pm1.tones[1].tone == 5
    assert pt.alpha == 0.5 - 0.25j


def test_alpha_forms():
    rc = _parse(_doc(command="coherent", input={"port": 2, "mode": 30, "alpha": 1.5}))
    assert rc.points[0].alpha == 1.5 + 0.0j
    with pytest.raises(ConfigError, match="alpha"):
        _parse(_doc(command="coherent", input={"mode": 30, "alpha": "big"}))
    with pytest.raises(ConfigError, match="alpha"):
        _parse(_doc(command="coherent", input={"mode": 30}))
    with pytest.raises(ConfigError, match="alpha"):
        _parse(_doc(input={"mode": 30, "alpha": 1.0}))


def test_sweep_merges_overrides():
    doc = {
        "command": "spectrum",
        "preset": "dc_dual",
        "arms": {
            "arm1": {"phi_b": 0.0, "m": 0.5, "theta_rf": 0.0, "tone": 2},
            "arm2": {"phi_b": 0.0, "m": 0.5, "theta_rf": 0.0, "tone": 2},
        },
        "input": {"mode": 60},
        "sweep": [
            {},
            {"arms": {"arm1": {"m": 0.9}}},
            {"input": {"mode": 62}, "model": "optical"},
        ],
    }
    rc = _parse(doc)
    assert len(rc.points) == 3
    assert rc.points[0].eom.pm1.m == 0.5
    assert rc.points[1].eom.pm1.m == 0.9
    assert rc.points[1].eom.pm2.m == 0.5
    assert rc.points[1].eom.pm1.tone == 2, "untouched fields survive the merge"
    assert rc.points[2].n0 == 62
    assert rc.points[2].model == "optical"


def test_sweep_cannot_change_command():
    with pytest.raises(ConfigError, match="sweep"):
        _parse(_doc(sweep=[{"command": "coherent"}]))


def test_descriptions_are_ignored_everywhere():
    doc = _doc(description="top")
    doc["input"]["description"] = "nested"
    doc["drive"]["description"] = "also nested"
    rc = _parse(doc)
    assert len(rc.points) == 1


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("command"), "command"),
        (lambda d: d.update(command="simulate"), "command"),
        (lambda d: d.update(splitters={"input": {"kind": "dc", "k": 0.5},
                                       "output": {"kind": "dc", "k": 0.5}}), "exactly one"),
        (lambda d: d.pop("preset"), "exactly one"),
        (lambda d: d.update(preset="ring"), "preset"),
        (lambda d: d.update(arms={"arm1": None, "arm2": None}), "not both"),
        (lambda d: d.update(unknown_section=1), "unknown_section"),
        (lambda d: d["input"].update(port=3), "input.port"),
        (lambda d: d["input"].update(mode=0), "input.mode"),
        (lambda d: d["input"].pop("mode"), "input.mode"),
        (lambda d: d["drive"].update(type="qsb"), "drive.type"),
        (lambda d: d["drive"].update(m=True), "drive.m"),
        (lambda d: d["drive"].update(tone=2.5), "drive.tone"),
        (lambda d: d.update(model="heisenberg"), "model"),
        (lambda d: d.update(truncation={"eps": 2.0}), "truncation"),
        (lambda d: d.update(truncation={"eps": 1e-9, "margin": -1}), "truncation"),
        (lambda d: d.update(truncation={"margin": 401}), "truncation: margin"),
        (lambda d: d.update(mean_field={"port": 1, "t_stop": 1.0, "samples": 4}), "mean_field"),
        (lambda d: d.update(command="mean-field", input={"mode": 30, "alpha": 1.0},
                            mean_field={"t_stop": 1.0, "samples": 1_000_001}),
         "mean_field.samples"),
        (lambda d: d.update(command="mean-field", input={"mode": 10**310, "alpha": 1.0},
                            mean_field={"t_stop": 1.0, "samples": 4}),
         "input.mode"),
        (lambda d: d.update(command="mean-field", input={"mode": 30, "alpha": 1.0},
                            mean_field={"t_stop": 1.0, "samples": 4, "nu": 1e300, "length": 1e-300}),
         "input.mode"),
        (lambda d: d.update(command="mean-field", input={"mode": 30, "alpha": 1.0},
                            mean_field={"t_start": -1e308, "t_stop": 1e308, "samples": 4}),
         "mean_field.t_stop"),
        # omega*t is finite at both ends, but the sampler's offsets reach omega*|t_stop - t_start|
        (lambda d: (d.pop("drive"), d.update(command="mean-field", input={"mode": 30, "alpha": 1.0},
                                             mean_field={"t_start": -5e306, "t_stop": 5e306, "samples": 4})),
         r"input\.mode, mean_field\.t_stop: .* omega\*\|t_stop - t_start\|"),
        (lambda d: d.update(command="coherent", input={"mode": 100, "alpha": [1e308, 1e308]}),
         "input.alpha"),
        (lambda d: d.update(command="coherent", input={"mode": 100, "alpha": 10**400}),
         "input.alpha"),
        (lambda d: d["drive"].update(m=10**400), "drive.m"),
        (lambda d: d.update(output={"format": "yaml"}), "output.format"),
        (lambda d: d.update(sweep=[]), "sweep"),
        (lambda d: d.update(tolerance_scale=2.0), "tolerance_scale"),
        (lambda d: d.update(command="two-photon"), "input.port: unknown field for the two-photon command"),
        (lambda d: d["input"].update(alpha=1.0), "input.alpha"),
        (lambda d: (d.pop("drive"), d.update(preset="yb_single", input={"mode": 3}, arms={
            "arm1": {"tones": [{"m": 0.01, "tone": 1}, {"m": 0.01, "tone": 5}]}})),
         r"input\.mode, arms\.arm1\.tones\[1\]"),
        (lambda d: (d.pop("drive"), d.update(preset="yb_single", input={"mode": 10}, arms={
            "arm1": {"tones": [{"m": 1e308, "tone": 2}, {"m": 1e308, "tone": 2}]}})),
         r"arms\.arm1\.tones\[0\]: modulation index must lie in \[0, 50\.0\]"),
        (lambda d: d.update(command="mean-field", input={"mode": 10**10, "alpha": 1.0},
                            mean_field={"t_stop": 0.0, "samples": 4, "field_scale": 1e305}),
         r"mean_field\.field_scale, input\.alpha"),
        (lambda d: d.update(command="mean-field", input={"mode": 100, "alpha": 1e150},
                            mean_field={"t_stop": 1.0, "samples": 4, "field_scale": 1e150}),
         r"mean_field\.field_scale, input\.alpha"),
    ],
)
def test_validation_errors_name_the_field(mutate, fragment):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        _parse(doc)


def _mean_field(**fields):
    return lambda d: d.update(command="mean-field", input={"mode": 30, "alpha": 1.0},
                              mean_field={"t_stop": 1.0, "samples": 4, **fields})


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["input"].update(mode=-5), "input.mode: mode number must be an integer >= 1, got -5"),
        (lambda d: d["input"].update(port=3), "input.port: port must be 1 or 2, got 3"),
        (_mean_field(port=0), "mean_field.port: port must be 1 or 2, got 0"),
        (_mean_field(nu=-1.0), "mean_field: nu and length must be positive"),
        (_mean_field(length=0.0), "mean_field: nu and length must be positive"),
    ],
)
def test_device_rules_are_the_librarys_own(mutate, message):
    # the parser words each refusal as the library rule it calls, under the field path
    doc = _doc()
    mutate(doc)
    with pytest.raises(ConfigError) as exc:
        _parse(doc)
    assert str(exc.value) == message


def test_models_are_one_tuple():
    assert config.MODELS is phase_mod.MODELS
    with pytest.raises(ValueError, match=r"model must be one of \('exact', 'optical'\), got 'wave'"):
        phase_mod.pm_scatter_row(10, PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=2), model="wave")


def test_truncation_margin_bound_is_inclusive():
    # J_s(m) is exactly 0.0 past order m + 361 for m <= 50, so margin 400
    # reaches every nonzero amplitude and larger margins only cost time
    pt = _parse(_doc(truncation={"margin": 400})).points[0]
    assert pt.truncation.margin == 400


def test_one_sample_grid_has_no_span():
    # t_stop goes unused with one sample, so its distance from t_start is not bounded
    doc = _doc(command="mean-field", input={"mode": 30, "alpha": 1.0},
               mean_field={"t_start": -5e306, "t_stop": 5e306, "samples": 1})
    doc.pop("drive")
    assert _parse(doc).points[0].mean_field.times.tolist() == [-5e306]


def test_mean_field_samples_bound_is_inclusive():
    # a point's samples and their text are held in memory, so the count is capped
    doc = _doc(command="mean-field", input={"mode": 30, "alpha": 1.0},
               mean_field={"t_stop": 1.0, "samples": 1_000_000})
    mf = _parse(doc).points[0].mean_field
    assert mf.grid == SampleGrid(0.0, 1.0, 1_000_000)
    times = mf.times
    assert len(times) == 1_000_000
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)


TIMES = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, -1e300, 1e300, -7.5, 3.0e17])


@settings(max_examples=12, deadline=None)
@given(t_start=TIMES, t_stop=TIMES, samples=st.sampled_from([1, 2, 1_000_000]))
def test_mean_field_grid_equals_one_product_per_sample(t_start, t_stop, samples):
    doc = _doc(command="mean-field", input={"mode": 30, "alpha": 1.0},
               mean_field={"t_start": t_start, "t_stop": t_stop, "samples": samples})
    pt = _parse(doc).points[0]
    mf = pt.mean_field
    spectrum = coherent_output(pt.eom, pt.input_port, pt.n0, pt.alpha, pt.truncation, pt.model)
    times = mean_field(spectrum, mf.port, mf.grid, mf.nu, mf.length, mf.field_scale).times.tolist()
    assert type(times[0]) is float
    # the sampler's t column, bit for bit, signed zeros included: what repr()
    # would compare, at a fraction of the cost of printing a million floats
    want = sample_grid_loop(t_start, t_stop, samples)
    assert array("d", times).tobytes() == array("d", want).tobytes()


@st.composite
def _arm_docs(draw, n0):
    """An exact, multitone or undriven arm: m in [0, 50], multitone tones on the lattice."""
    kind = draw(st.sampled_from(["exact", "multitone", None]))
    depth = st.floats(0.0, 50.0)
    if kind == "exact":
        return {"phi_b": draw(st.floats(-4.0, 4.0)), "m": draw(depth),
                "theta_rf": draw(st.floats(-4.0, 4.0)), "tone": draw(st.integers(1, 9))}
    if kind == "multitone":
        # each lower sideband stays on the lattice: tone <= n0 - 1
        tones = [] if n0 == 1 else draw(st.lists(
            st.fixed_dictionaries({"m": depth, "tone": st.integers(1, min(9, n0 - 1))}), max_size=3))
        return {"phi_b": draw(st.floats(-4.0, 4.0)), "tones": tones,
                "convention": draw(st.sampled_from(["full", "half"]))}
    return None


@st.composite
def _mean_field_points(draw):
    n0 = draw(st.integers(1, 10) | st.integers(1, 100_000))
    name = draw(st.sampled_from(config.PRESETS))
    arm2 = None if name.endswith("_single") else draw(_arm_docs(n0))
    return {"command": "mean-field", "preset": name, "model": draw(st.sampled_from(config.MODELS)),
            "arms": {"arm1": draw(_arm_docs(n0)), "arm2": arm2},
            "input": {"port": draw(st.sampled_from([1, 2])), "mode": n0, "alpha": 1.0},
            "mean_field": {"port": draw(st.sampled_from([1, 2])), "t_stop": 1.0, "samples": 2}}


@settings(max_examples=200, deadline=None)
@given(_mean_field_points())
def test_measured_field_bound_refuses_no_point_the_reach_model_accepted(doc):
    # every occupied mode is one the arm rows reach, and each output amplitude
    # is at most the sum of the arm entries, so the measured triangle bound is
    # at most the reach model's bound over sqrt(2): a field_scale that puts
    # the latter at the cap times sqrt(2) still passes
    pt = _parse(doc).points[0]
    top, per_unit = reach_field_bound(pt.eom, pt.n0, pt.truncation)
    amps = coherent_output(pt.eom, pt.input_port, pt.n0, pt.alpha, pt.truncation, pt.model)
    assert max(amps.port(pt.mean_field.port), default=pt.n0) <= top
    doc["mean_field"]["field_scale"] = math.sqrt(2.0) * config._MAX_FIELD / per_unit * (1.0 - 1e-9)
    assert _parse(doc).points[0].mean_field.field_scale == doc["mean_field"]["field_scale"]


FIELD_BOUND_EXAMPLE = {
    "command": "mean-field", "preset": "yb_dual", "drive": {"type": "dsb", "m": 0.5, "tone": 3},
    "input": {"mode": 1000, "alpha": 1e150},
    "mean_field": {"t_stop": 1.0, "samples": 4, "field_scale": 1e148},
}


def test_measured_field_bound_accepts_a_point_the_reach_model_refused(tmp_path, capsys):
    # the reach model bounded this point's field by 1.36e302 and refused it;
    # its largest sample is 2.48e299
    pt = _parse(FIELD_BOUND_EXAMPLE).points[0]
    _top, per_unit = reach_field_bound(pt.eom, pt.n0, pt.truncation)
    assert 1e148 * 1e150 * per_unit == pytest.approx(1.36e302, rel=1e-3)
    path = tmp_path / "example.json"
    path.write_text(json.dumps(FIELD_BOUND_EXAMPLE))
    assert main(["mean-field", "--config", str(path)]) == 0
    fields = [float(line.split(",")[-1]) for line in capsys.readouterr().out.splitlines()
              if line.startswith("0,sample,")]
    assert len(fields) == 4 and all(math.isfinite(f) for f in fields)
    assert max(map(abs, fields)) == pytest.approx(2.484e299, rel=1e-3)


def test_measured_field_bound_refusal_names_the_measured_sum():
    doc = dict(FIELD_BOUND_EXAMPLE, mean_field={"t_stop": 1.0, "samples": 4, "field_scale": 1e151})
    with pytest.raises(ConfigError) as exc:
        _parse(doc)
    assert str(exc.value) == (
        "mean_field.field_scale, input.alpha: the sampled field must stay below 1e+300, but "
        "2*|field_scale|*|amplitude|*sqrt(omega) summed over the port's occupied modes is 3.1e+302")


def test_model_argument_replaces_every_points_model():
    doc = _doc(model="exact", sweep=[{}, {"model": "optical"}])
    assert [pt.model for pt in _parse(doc).points] == ["exact", "optical"]
    assert [pt.model for pt in parse_config(json.dumps(doc), "optical").points] == ["optical"] * 2
    # the document's own model is still checked
    with pytest.raises(ConfigError, match="model"):
        parse_config(json.dumps(_doc(model="heisenberg")), "optical")


def test_cli_model_reaches_the_measured_point(tmp_path, monkeypatch, capsys):
    # the mean-field bound is measured with the model the run uses
    measured = []
    real = config.coherent_output

    def recording(*args):
        measured.append(args[-1])
        return real(*args)

    monkeypatch.setattr(config, "coherent_output", recording)
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(FIELD_BOUND_EXAMPLE))
    assert main(["mean-field", "--config", str(path), "--model", "optical", "--format", "json"]) == 0
    assert measured == ["optical"]
    assert [p["model"] for p in json.loads(capsys.readouterr().out)["points"]] == ["optical"]

def test_error_paths_in_nested_arms():
    doc = {
        "command": "spectrum",
        "preset": "dc_dual",
        "arms": {"arm1": {"phi_b": 0.0, "m": 0.1, "theta_rf": 0.0, "tone": 1, "bogus": 2}},
        "input": {"mode": 10},
    }
    with pytest.raises(ConfigError, match=r"arms\.arm1\.bogus"):
        _parse(doc)
    doc["arms"]["arm1"] = {"phi_b": 0.0, "tones": [{"m": 0.1}]}
    with pytest.raises(ConfigError, match=r"arms\.arm1\.tones\[0\]"):
        _parse(doc)


def test_sweep_errors_carry_point_prefix():
    doc = _doc(sweep=[{}, {"input": {"mode": -5}}])
    with pytest.raises(ConfigError, match=r"sweep\[1\]\.input\.mode"):
        _parse(doc)


def test_two_photon_input_restrictions():
    doc = {
        "command": "two-photon",
        "preset": "dc_dual",
        "arms": {"arm1": {"phi_b": 0.0, "m": 0.2, "theta_rf": 0.0, "tone": 2},
                 "arm2": {"phi_b": 0.0, "m": 0.2, "theta_rf": 0.0, "tone": 2}},
        "input": {"mode": 60},
    }
    assert _parse(doc).points[0].n0 == 60
    doc["input"]["port"] = 1
    with pytest.raises(ConfigError, match="port"):
        _parse(doc)
    doc["input"] = {"mode": 60, "alpha": 1.0}
    with pytest.raises(ConfigError, match="alpha"):
        _parse(doc)


def test_drive_requires_dual_yb_preset():
    with pytest.raises(ConfigError, match="yb_dual"):
        _parse(_doc(preset="dc_dual"))


def test_single_preset_rejects_second_arm():
    doc = {
        "command": "spectrum",
        "preset": "yb_single",
        "arms": {"arm1": {"phi_b": 0.0, "m": 0.2, "theta_rf": 0.0, "tone": 2},
                 "arm2": {"phi_b": 0.0, "m": 0.2, "theta_rf": 0.0, "tone": 2}},
        "input": {"mode": 60},
    }
    with pytest.raises(ConfigError, match="arm2"):
        _parse(doc)


def test_mean_field_section():
    doc = {
        "command": "mean-field",
        "preset": "yb_dual",
        "drive": {"type": "dsb", "m": 0.4, "tone": 2},
        "input": {"mode": 50, "alpha": 1.0},
        "mean_field": {"port": 2, "t_start": 0.0, "t_stop": 1.0, "samples": 5},
    }
    rc = _parse(doc)
    mf = rc.points[0].mean_field
    assert mf.port == 2
    assert mf.grid == SampleGrid(0.0, 1.0, 5)
    assert mf.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert mf.nu == 1.0 and mf.field_scale == 1.0
    doc["mean_field"].update(t_start=-0.0, samples=1)
    times = _parse(doc).points[0].mean_field.times.tolist()
    assert times == [0.0] and math.copysign(1.0, times[0]) == -1.0  # t_start's own bits
    del doc["mean_field"]
    with pytest.raises(ConfigError, match="mean_field"):
        _parse(doc)


def test_verify_document():
    rc = parse_config(json.dumps({"command": "verify", "tolerance_scale": 5.0,
                                  "output": {"format": "json"}}))
    assert rc.command == "verify"
    assert rc.tolerance_scale == 5.0
    assert rc.fmt == "json"
    assert rc.points == ()
    with pytest.raises(ConfigError, match="tolerance_scale"):
        parse_config(json.dumps({"command": "verify", "tolerance_scale": -1.0}))
    with pytest.raises(ConfigError, match="input"):
        parse_config(json.dumps({"command": "verify", "input": {"mode": 5}}))
    with pytest.raises(ConfigError, match="model"):
        parse_config(json.dumps({"command": "verify", "model": 42}))


def test_invalid_json_is_reported():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="object"):
        parse_config("[1, 2]")
