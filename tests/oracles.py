"""Independent reference implementations used only by the tests.

The Bessel references are stdlib-only and the matrix-exponential reference
uses only numpy arithmetic.  Each deliberately avoids the algorithm used
inside the package (backward recurrence, eigendecomposition), so an agreement
between the two is meaningful.
"""

import math

import numpy as np


def bessel_series(s: int, m: float, terms: int = 60) -> float:
    """Ascending power series for J_s(m).

    Accurate to near machine precision for |m| up to roughly 10; beyond that
    the alternating terms cancel catastrophically and the result is garbage,
    which is why the integral form below exists.
    """
    if s < 0:
        raise ValueError("series oracle takes s >= 0")
    half = 0.5 * m
    term = half**s / math.factorial(s)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (s + k))
        total += term
    return total


def bessel_integral(s: int, m: float, npts: int = 800) -> float:
    """Midpoint rule for J_s(m) = (1/pi) int_0^pi cos(s tau - m sin tau) dtau.

    The integrand is smooth and periodic-like over the interval, so the
    midpoint rule converges spectrally; npts = 800 is far more than enough
    for s, m up to 50.
    """
    if s < 0:
        raise ValueError("integral oracle takes s >= 0")
    total = 0.0
    for k in range(npts):
        tau = math.pi * (k + 0.5) / npts
        total += math.cos(s * tau - m * math.sin(tau))
    return total / npts


def bessel_reference(s: int, m: float) -> float:
    """Pick whichever oracle is trustworthy for this argument."""
    s_abs = abs(s)
    m_val = m
    sign = 1.0
    if m_val < 0.0:
        m_val = -m_val
        sign *= -1.0 if s_abs % 2 else 1.0
    if s < 0:
        sign *= -1.0 if s_abs % 2 else 1.0
    base = bessel_series(s_abs, m_val) if m_val <= 8.0 else bessel_integral(s_abs, m_val)
    return sign * base


def unitary_exp_taylor(gen: np.ndarray, terms: int = 30) -> np.ndarray:
    """Plain Taylor sum of exp(1j*G), with no scaling or squaring.

    Only valid for a 1-norm of G at most 1: the truncation error is then
    below 1/terms!, far under double precision for the default 30 terms.
    """
    g = np.asarray(gen, dtype=np.complex128)
    if np.linalg.norm(g, 1) > 1.0 + 1e-12:
        raise ValueError("Taylor oracle needs a 1-norm of at most 1")
    a = 1j * g
    term = np.eye(g.shape[0], dtype=np.complex128)
    total = term.copy()
    for k in range(1, terms):
        term = term @ a / k
        total += term
    return total
