"""The verify result builder: every measure is reported and a NaN defect fails."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from eomsim import phase_mod, verify
from eomsim.cli import emit_verify

from conftest import MEMOS

# one measure in a check's detail: "label worst (tol T)"
MEASURE = re.compile(r"(?:^|; )([^;]+?) (\S+) \(tol (\S+)\)")


def _measures(detail):
    return [(label, float(worst), float(tol)) for label, worst, tol in MEASURE.findall(detail)]


def test_result_reports_every_measure_and_note():
    result = verify._result(4, "demo", [("a", [1e-3, 2e-3], 1e-2), ("b", [], 0.0)], note="n")
    assert result == verify.CheckResult(
        4, "demo", True, "a 2.000e-03 (tol 1.000e-02); b 0.000e+00 (tol 0.000e+00); n",
        (verify.Margin("a", 2e-3, 1e-2), verify.Margin("b", 0.0, 0.0)))


def test_result_nan_defect_is_the_worst_and_fails():
    result = verify._result(1, "demo", [("a", [0.0, math.nan, 1.0], 1e300)])
    assert not result.passed
    assert result.detail == "a nan (tol 1.000e+300)"


def test_margins_carry_the_figures_detail_rounds():
    # at a tenth of the tolerances, check 10's first measure prints as met and fails
    results = verify.run_all(0.1)
    check = results[9]
    assert check.name == "small_signal" and not check.passed
    margin = check.margins[0]
    assert margin.label == "relative defect"
    assert margin.worst == pytest.approx(1.0000007499912024e-06, rel=1e-9)
    assert margin.tolerance == 1e-5 * 0.1
    assert margin.worst > margin.tolerance
    assert check.detail.startswith("relative defect 1.000e-06 (tol 1.000e-06); ")
    report = json.loads(emit_verify(results, 0.1, "json"))
    assert report["checks"][9]["margins"][0] == {
        "label": "relative defect", "worst": margin.worst, "tolerance": margin.tolerance}
    for result, doc in zip(results, report["checks"]):
        assert [m["label"] for m in doc["margins"]] == [label for label, _w, _t in _measures(result.detail)]


@pytest.mark.parametrize("check", [verify.check_scatter_unitarity, verify.check_optical_limit],
                         ids=["scatter_unitarity", "optical_limit"])
def test_nan_scatter_entry_fails_the_check(monkeypatch, check):
    real_row = verify.pm_scatter_row

    def nan_top_row(n0, cfg, *args, **kwargs):
        row = real_row(n0, cfg, *args, **kwargs)
        row[max(row)] = complex(math.nan, 0.0)
        return row

    monkeypatch.setattr(verify, "pm_scatter_row", nan_top_row)
    result = check()
    assert not result.passed, result.detail
    assert "nan" in result.detail


def test_splitter_generator_mismatch_fails_check_1(monkeypatch):
    real_oracle = verify.splitter_generator_oracle
    monkeypatch.setattr(verify, "splitter_generator_oracle", lambda spec: real_oracle(spec) + 1e-9)
    result = verify.check_splitter_laws()
    assert not result.passed
    (mismatch,) = [worst for label, worst, _tol in _measures(result.detail)
                   if label == "generator mismatch"]
    assert mismatch == pytest.approx(1e-9, rel=1e-3)
    assert "reciprocity broken" not in result.detail


def _yb_transposed(coeffs, spec):
    return coeffs.reversed() if spec.kind == "yb" else coeffs


def _reflections_conjugated(coeffs, spec):
    return dataclasses.replace(coeffs, r=coeffs.r.conjugate(), rp=coeffs.rp.conjugate())


@pytest.mark.parametrize("wrong", [_yb_transposed, _reflections_conjugated],
                         ids=["yb_transposed", "reflections_conjugated"])
def test_convention_error_fails_check_1_on_the_generator_alone(monkeypatch, wrong):
    # each table stays unitary and reciprocal, so only the generator route sees the error
    real_coeffs = verify.splitter_coeffs
    monkeypatch.setattr(verify, "splitter_coeffs", lambda spec: wrong(real_coeffs(spec), spec))
    result = verify.check_splitter_laws()
    laws, mismatch = result.margins
    assert laws.label == "reciprocity defect" and laws.worst <= laws.tolerance
    assert mismatch.label == "generator mismatch" and mismatch.worst == pytest.approx(2.0, abs=1e-12)
    assert not result.passed
    assert "reciprocity broken" not in result.detail


@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 1e3])
def test_passed_is_every_defect_within_its_tolerance(monkeypatch, scale):
    # the rule is checked on the unrounded defects and tolerances the checks
    # hand the builder; the printed detail is checked only for its labels
    calls = []
    real_result = verify._result

    def recording_result(index, name, measures, note=""):
        measures = [(label, np.asarray(defects, dtype=float), tol) for label, defects, tol in measures]
        result = real_result(index, name, measures, note)
        calls.append((result, measures))
        return result

    monkeypatch.setattr(verify, "_result", recording_result)
    results = verify.run_all(scale)
    assert [result for result, _measures in calls] == results
    for result, measures in calls:
        within = all(bool(np.all(defects <= tol)) for _label, defects, tol in measures)
        assert result.passed == within, result.detail
        assert [label for label, _w, _t in _measures(result.detail)] == [m[0] for m in measures]


def _neumaier(values, start=0.0):
    """Neumaier's compensated float sum, as the builtin sum() adds floats from Python 3.12 on."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def _compensated_sum(values, start=0):
    """The builtin sum() with compensated rounding: per part for complex values, as from Python 3.14."""
    values = list(values)
    if not any(isinstance(x, complex) for x in [start, *values]):
        return _neumaier(values, start)
    return complex(_neumaier((complex(x).real for x in values), complex(start).real),
                   _neumaier((complex(x).imag for x in values), complex(start).imag))


def test_verify_report_does_not_depend_on_builtin_sum(monkeypatch):
    # check 10 compares its scalar field reference with the array pass at
    # tolerance 0.0, and check 2's printed margins carry the rounding of its
    # sums, so every sum in the battery must add left to right on every
    # interpreter
    reports = {fmt: emit_verify(verify.run_all(), 1.0, fmt) for fmt in ("csv", "json")}
    monkeypatch.setattr(verify, "sum", _compensated_sum, raising=False)
    results = verify.run_all()
    assert results[9].margins[2] == verify.Margin("field reconstruction defect", 0.0, 0.0)
    assert {fmt: emit_verify(results, 1.0, fmt) for fmt in reports} == reports


def _battery_work(monkeypatch):
    """Run the battery once; return its Bessel passes and halfwidth scans, and
    the (hits, misses) each memo had during it."""
    calls = {"bessel_j_array": 0, "retained_halfwidth": 0}
    for name in calls:
        real = getattr(phase_mod, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(phase_mod, name, counted)
    before = {name: getattr(phase_mod, name).cache_info() for name in MEMOS}
    verify.run_all()
    after = {name: getattr(phase_mod, name).cache_info() for name in MEMOS}
    memos = {name: (after[name].hits - before[name].hits, after[name].misses - before[name].misses)
             for name in MEMOS}
    monkeypatch.undo()
    return calls, memos


def test_battery_runs_each_bessel_pass_and_halfwidth_once_per_device(monkeypatch, fresh_windows):
    # 441 passes and 264 scans when every window, and verify's oracle
    # lattice, ran its own; the battery asks for 213 distinct (s_max, m)
    # passes and 97 distinct (m, truncation) halfwidths
    first, first_memos = _battery_work(monkeypatch)
    assert first == {"bessel_j_array": 237, "retained_halfwidth": 112}
    # a battery straight after another does the same work as one from empty
    # memos: no memo entry outlives the battery
    again, again_memos = _battery_work(monkeypatch)
    assert (again, again_memos) == (first, first_memos)
