import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eomsim import verify
from eomsim.splitters import SplitterCoeffs, SplitterSpec, splitter_coeffs
from eomsim.verify import _reciprocity_defect, splitter_generator_oracle
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
    assert _reciprocity_defect(splitter_coeffs(spec)) < 1e-14


@pytest.mark.parametrize(
    "table",
    [
        # unit rows broken on both sides, cross relation intact
        SplitterCoeffs(t=0.9 + 0.0j, tp=0.9 + 0.0j, r=0.1j, rp=0.1j),
        # unit rows intact, cross relation broken
        SplitterCoeffs(t=SQ + 0j, tp=SQ + 0j, r=SQ + 0j, rp=1j * SQ),
    ],
    ids=["lossy", "nonreciprocal"],
)
def test_splitter_laws_check_flags_broken_tables(monkeypatch, table):
    monkeypatch.setattr(verify, "splitter_coeffs", lambda spec: table)
    result = verify.check_splitter_laws()
    assert not result.passed
    assert "reciprocity broken" in result.detail
    assert _reciprocity_defect(table) > 0.1


def test_splitter_laws_check_flags_nan_table(monkeypatch):
    table = SplitterCoeffs(t=complex(math.nan, 0.0), tp=SQ + 0j, r=1j * SQ, rp=1j * SQ)
    monkeypatch.setattr(verify, "splitter_coeffs", lambda spec: table)
    result = verify.check_splitter_laws()
    assert not result.passed
    assert "reciprocity defect nan" in result.detail
    assert "reciprocity broken" in result.detail
    assert math.isnan(_reciprocity_defect(table))


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


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(kind="bulk", theta_split=math.nan), "theta_split"),
        (dict(kind="bulk", theta_split=math.inf), "theta_split"),
        (dict(kind="bulk", theta_split=True), "theta_split"),
        (dict(kind="dc", k=math.nan), "k"),
        (dict(kind="yb", k=True), "k"),
        (dict(kind="yb", k=0.5, reverse="no"), "reverse"),
        (dict(kind="dc", k=0.5, reverse=1), "reverse"),
    ],
)
def test_spec_rejects_values_the_json_path_rejects(kwargs, field):
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        SplitterSpec(**kwargs)
