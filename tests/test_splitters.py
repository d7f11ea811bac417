import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eomsim.splitters import (
    SplitterCoeffs,
    SplitterSpec,
    splitter_coeffs,
    splitter_generator_oracle,
    verify_reciprocity,
)
from oracles import coherent_through_splitter

SQ = math.sqrt(0.5)


def test_bulk_half_table():
    c = splitter_coeffs(SplitterSpec(kind="bulk", theta_split=math.pi / 2))
    assert c.t == pytest.approx(SQ)
    assert c.tp == pytest.approx(SQ)
    assert c.r == pytest.approx(1j * SQ)
    assert c.rp == pytest.approx(1j * SQ)


def test_dc_table():
    c = splitter_coeffs(SplitterSpec(kind="dc", k=0.2))
    assert c.t == pytest.approx(math.sqrt(0.8))
    assert c.r == pytest.approx(1j * math.sqrt(0.2))
    assert c.tp == c.t and c.rp == c.r


def test_yb_table_is_real_with_one_sign_flip():
    c = splitter_coeffs(SplitterSpec(kind="yb", k=0.3))
    assert c.t == pytest.approx(math.sqrt(0.7))
    assert c.tp == pytest.approx(math.sqrt(0.7))
    assert c.rp == pytest.approx(math.sqrt(0.3))
    assert c.r == pytest.approx(-math.sqrt(0.3))


def test_reverse_swaps_cross_couplings():
    fwd = splitter_coeffs(SplitterSpec(kind="yb", k=0.3))
    rev = splitter_coeffs(SplitterSpec(kind="yb", k=0.3, reverse=True))
    assert (rev.t, rev.tp) == (fwd.t, fwd.tp)
    assert (rev.r, rev.rp) == (fwd.rp, fwd.r)
    assert np.allclose(rev.as_matrix(), fwd.as_matrix().T)
    assert fwd.reversed() == rev


@pytest.mark.parametrize("kind", ["dc", "yb"])
@given(k=st.floats(0.0, 1.0, allow_nan=False))
def test_tables_match_generator_route(kind, k):
    spec = SplitterSpec(kind=kind, k=k)
    table = splitter_coeffs(spec).as_matrix()
    assert np.max(np.abs(table - splitter_generator_oracle(spec))) < 1e-12


@given(theta=st.floats(-math.pi, math.pi, allow_nan=False))
def test_bulk_matches_generator_route(theta):
    spec = SplitterSpec(kind="bulk", theta_split=theta)
    table = splitter_coeffs(spec).as_matrix()
    assert np.max(np.abs(table - splitter_generator_oracle(spec))) < 1e-12


@pytest.mark.parametrize("kind", ["bulk", "dc", "yb"])
@pytest.mark.parametrize("x", [0.0, 0.1, 0.25, 0.5, 0.77, 1.0])
def test_reciprocity_holds_across_grid(kind, x):
    if kind == "bulk":
        spec = SplitterSpec(kind="bulk", theta_split=2.0 * math.asin(math.sqrt(x)))
    else:
        spec = SplitterSpec(kind=kind, k=x)
    report = verify_reciprocity(splitter_coeffs(spec))
    assert report.passed
    assert report.violations == ()
    assert max(report.row_in_defect, report.row_out_defect, report.cross_defect) < 1e-14


def test_reciprocity_flags_broken_tables():
    lossy = SplitterCoeffs(t=0.9 + 0.0j, tp=0.9 + 0.0j, r=0.1j, rp=0.1j)
    report = verify_reciprocity(lossy)
    assert not report.passed
    assert "input_row_norm" in report.violations
    assert "output_row_norm" in report.violations

    nonreciprocal = SplitterCoeffs(t=SQ + 0j, tp=SQ + 0j, r=SQ + 0j, rp=1j * SQ)
    report = verify_reciprocity(nonreciprocal)
    assert "cross_reciprocity" in report.violations


@given(
    k=st.floats(0.0, 1.0, allow_nan=False),
    re_a=st.floats(-3, 3), im_a=st.floats(-3, 3),
    re_b=st.floats(-3, 3), im_b=st.floats(-3, 3),
)
def test_coherent_energy_conservation(k, re_a, im_a, re_b, im_b):
    alpha = complex(re_a, im_a)
    beta = complex(re_b, im_b)
    for kind in ("dc", "yb"):
        c = splitter_coeffs(SplitterSpec(kind=kind, k=k))
        out1, out2 = coherent_through_splitter(c, alpha, beta)
        p_in = abs(alpha) ** 2 + abs(beta) ** 2
        p_out = abs(out1) ** 2 + abs(out2) ** 2
        assert p_out == pytest.approx(p_in, abs=1e-12 * max(1.0, p_in))


def test_balanced_yb_splits_evenly():
    c = splitter_coeffs(SplitterSpec(kind="yb", k=0.5))
    out1, out2 = coherent_through_splitter(c, 1.0 + 0.0j, 0.0j)
    assert out1 == pytest.approx(SQ)
    assert out2 == pytest.approx(SQ)


def test_spec_validation():
    with pytest.raises(ValueError):
        SplitterSpec(kind="bulk", k=0.5)
    with pytest.raises(ValueError):
        SplitterSpec(kind="dc", theta_split=0.3)
    with pytest.raises(ValueError):
        SplitterSpec(kind="dc", k=1.5)
    with pytest.raises(ValueError):
        SplitterSpec(kind="yb")
    with pytest.raises(ValueError):
        SplitterSpec(kind="mmi", k=0.5)
