import math

import pytest
from hypothesis import given, strategies as st

from eomsim.lattice import TWO_PI, decompose_mode, mode_omega
from oracles import sideband_mode


@pytest.mark.parametrize(
    "n0, tone, q0, r0",
    [
        (100, 3, 34, 2),
        (1, 1, 1, 0),
        (7, 7, 1, 0),
        (8, 7, 2, 6),
        (60, 2, 30, 0),
        (5, 12, 1, 7),
    ],
)
def test_decompose_examples(n0, tone, q0, r0):
    assert decompose_mode(n0, tone) == (q0, r0)
    assert q0 * tone - r0 == n0


@given(n0=st.integers(1, 10_000), tone=st.integers(1, 64))
def test_decompose_roundtrip(n0, tone):
    q0, r0 = decompose_mode(n0, tone)
    assert q0 >= 1
    assert 0 <= r0 < tone
    assert q0 * tone - r0 == n0
    assert sideband_mode(q0, tone, r0) == n0


@given(n0=st.integers(1, 5_000), tone=st.integers(1, 32), step=st.integers(-5, 40))
def test_sideband_modes_stay_on_ladder(n0, tone, step):
    q0, r0 = decompose_mode(n0, tone)
    q = q0 + step
    if q < 1:
        with pytest.raises(ValueError):
            sideband_mode(q, tone, r0)
    else:
        mode = sideband_mode(q, tone, r0)
        assert mode >= 1
        assert (mode - n0) % tone == 0


def test_mode_omega_defaults():
    # defaults place the lattice at unit spacing, omega = n
    assert mode_omega(1) == pytest.approx(1.0)
    assert mode_omega(137) == pytest.approx(137.0)


def test_mode_omega_scaling():
    assert mode_omega(10, nu=2.0) == pytest.approx(20.0)
    assert mode_omega(10, length=TWO_PI / 3) == pytest.approx(30.0)
    assert mode_omega(4, nu=0.5, length=math.pi) == pytest.approx(4.0)


@pytest.mark.parametrize("bad", [0, -3, 1.5, True, "2"])
def test_decompose_rejects_bad_mode(bad):
    with pytest.raises((ValueError, TypeError)):
        decompose_mode(bad, 3)


@pytest.mark.parametrize("bad", [0, -1, 2.0, False])
def test_decompose_rejects_bad_tone(bad):
    with pytest.raises((ValueError, TypeError)):
        decompose_mode(10, bad)
