import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eomsim.special import bessel_j_array
from eomsim.verify import unitary_exp

from oracles import bessel_integral, bessel_reference, bessel_series, unitary_exp_taylor

# Reference values computed from the defining series/integral at 40-digit
# precision and frozen here.  They cover small, moderate and large arguments
# including the regime where naive series summation fails completely.
FROZEN = [
    (0, 0.5, 0.9384698072408129),
    (1, 0.5, 0.2422684576748739),
    (2, 1.0, 0.11490348493190047),
    (0, 2.0, 0.22389077914123567),
    (5, 2.0, 0.007039629755871685),
    (3, 7.5, -0.2580609131934603),
    (10, 10.0, 0.20748610663335887),
    (7, 3.25, 0.0042407275934821615),
    (0, 50.0, 0.055812327669251816),
    (4, 50.0, 0.07084097728165495),
    (40, 50.0, -0.13817628120116143),
]


@pytest.mark.parametrize("s, m, want", FROZEN)
def test_bessel_frozen_values(s, m, want):
    assert bessel_j_array(s, m)[s] == pytest.approx(want, abs=2e-15)


@pytest.mark.parametrize("s, m, want", FROZEN)
def test_oracles_agree_with_frozen_values(s, m, want):
    # make sure the test-side references themselves are sound
    assert bessel_reference(s, m) == pytest.approx(want, abs=5e-14)


@pytest.mark.parametrize("m", [0.05, 0.5, 2.0, 5.0, 8.0])
def test_bessel_matches_series_small_arguments(m):
    for s in range(13):
        assert bessel_j_array(s, m)[s] == pytest.approx(bessel_series(s, m), abs=1e-13)


@pytest.mark.parametrize("m", [10.0, 25.0, 50.0])
@pytest.mark.parametrize("s", [0, 1, 5, 17, 40])
def test_bessel_matches_integral_large_arguments(s, m):
    assert bessel_j_array(s, m)[s] == pytest.approx(bessel_integral(s, m), abs=1e-12)


def test_series_oracle_is_wrong_at_large_argument():
    # documents why the integral form exists: at m = 50 the ascending series
    # loses everything to cancellation
    assert abs(bessel_series(4, 50.0) - 0.07084097728165495) > 1.0


@given(
    s=st.integers(1, 20),
    m=st.floats(0.1, 30.0, allow_nan=False, allow_infinity=False),
)
def test_three_term_recurrence(s, m):
    lo = bessel_j_array(s - 1, m)[s - 1]
    mid = bessel_j_array(s, m)[s]
    hi = bessel_j_array(s + 1, m)[s + 1]
    lhs = lo + hi
    rhs = (2.0 * s / m) * mid
    scale = max(abs(lo), abs(hi), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale + 1e-300


@given(m=st.floats(1e-12, 30.0, allow_nan=False, allow_infinity=False))
def test_squared_sum_rule(m):
    # J_0^2 + 2 sum_{s>=1} J_s^2 = 1: independent of the normalization used
    # inside the backward recurrence, which is linear in the J's
    arr = bessel_j_array(int(m) + 60, m)
    total = arr[0] ** 2 + 2.0 * float(np.sum(arr[1:] ** 2))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_array_prefix_consistency():
    # growing the requested order must not change lower-order values beyond
    # roundoff introduced by the normalization pass
    short = bessel_j_array(10, 3.7)
    long = bessel_j_array(45, 3.7)
    assert np.max(np.abs(short - long[:11])) < 1e-14


def test_bessel_argument_cap():
    with pytest.raises(ValueError):
        bessel_j_array(0, 50.5)
    with pytest.raises(ValueError):
        bessel_j_array(5, -51.0)


def test_tiny_argument_values():
    # two-term series territory
    assert bessel_j_array(0, 1e-10)[0] == pytest.approx(1.0, abs=1e-16)
    assert bessel_j_array(1, 1e-10)[1] == pytest.approx(5e-11, rel=1e-12)
    assert bessel_j_array(3, 1e-12)[3] == pytest.approx((0.5e-12) ** 3 / 6.0, rel=1e-10)


def test_unitary_exp_pauli_x_closed_form():
    theta = 0.8137
    gen = np.array([[0.0, theta], [theta, 0.0]], dtype=complex)
    got = unitary_exp(gen)
    want = np.array(
        [
            [math.cos(theta), 1j * math.sin(theta)],
            [1j * math.sin(theta), math.cos(theta)],
        ]
    )
    assert np.max(np.abs(got - want)) < 1e-14


def test_unitary_exp_diagonal_closed_form():
    phis = np.array([0.3, -1.2, 2.9])
    got = unitary_exp(np.diag(phis).astype(complex))
    want = np.diag(np.exp(1j * phis))
    assert np.max(np.abs(got - want)) < 1e-14


def test_unitary_exp_against_taylor_series():
    # the package exponentiates through eigh; the reference is a plain Taylor
    # sum, valid because every generator here is scaled to 1-norm 1
    rng = np.random.default_rng(7)
    for dim in (3, 8, 40):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gen = 0.5 * (a + a.conj().T)
        gen /= np.linalg.norm(gen, 1)
        got = unitary_exp(gen)
        assert np.max(np.abs(got - unitary_exp_taylor(gen))) < 1e-12
        eye = got @ got.conj().T
        assert np.max(np.abs(eye - np.eye(dim))) < 1e-12


@pytest.mark.parametrize("dim", [357, 512])
def test_unitary_exp_large_lattice_generator(dim):
    # the full-lattice hopping generator: bias on the diagonal, hopping
    # m/2 e^{j theta} between modes n and n + N
    m, theta, phi_b, tone = 50.0, 0.7, 0.4, 2
    chi = 0.5 * m * np.exp(1j * theta)
    gen = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(gen, phi_b)
    idx = np.arange(dim - tone)
    gen[idx, idx + tone] = chi
    gen[idx + tone, idx] = np.conj(chi)
    full = unitary_exp(gen)
    half = unitary_exp(0.5 * gen)
    assert np.max(np.abs(full @ full.conj().T - np.eye(dim))) < 1e-12
    assert np.max(np.abs(full - half @ half)) < 1e-12


def test_unitary_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        unitary_exp(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        unitary_exp(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))
