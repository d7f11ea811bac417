"""Numerical kernels: integer-order Bessel J and a unitary matrix exponential.

Both are deliberately self-contained so the closed-form scattering route and
the generator-exponential route stay independent of each other.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_ARG = 50.0
_RESCALE = 1e250


def bessel_j_array(s_max: int, m: float) -> np.ndarray:
    """J_0(m) .. J_{s_max}(m) in one backward-recurrence pass, 0 < m <= 50.

    Miller recurrence J_{k-1} = (2k/m) J_k - J_{k+1}, started well inside
    the super-exponential decay zone and normalized with the identity
    J_0 + 2*sum_k J_{2k} = 1; stable for all orders at once, unlike the
    forward recurrence.  Absolute error below 1e-12.  Callers reflect
    negative orders with J_{-s}(m) = (-1)^s J_s(m).
    """
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    if not 0.0 < m <= _MAX_ARG:
        raise ValueError(f"argument must satisfy 0 < m <= {_MAX_ARG}, got {m!r}")
    if m < 1e-8:
        # two leading series terms are exact to double precision here, and the
        # backward recurrence would need growth factors ~1/m per step
        half = 0.5 * m
        out = np.zeros(s_max + 1)
        for s in range(s_max + 1):
            if s > 170:
                break  # factorial exceeds float range; true values are ~0 anyway
            lead = half**s if s else 1.0
            out[s] = lead / math.factorial(s) * (1.0 - half * half / (s + 1))
        return out
    # start far enough above both the order and the turning point that the
    # seeded tail is below double precision after normalization
    start = s_max + int(m) + 60
    out = np.zeros(s_max + 1)
    jkp1 = 0.0
    jk = 1e-300
    norm = 0.0
    for k in range(start, 0, -1):
        jkm1 = (2.0 * k / m) * jk - jkp1
        jkp1 = jk
        jk = jkm1
        if k - 1 <= s_max:
            out[k - 1] = jk
        if (k - 1) % 2 == 0:
            norm += jk if k == 1 else 2.0 * jk
        if abs(jk) > _RESCALE:
            jk /= _RESCALE
            jkp1 /= _RESCALE
            norm /= _RESCALE
            out /= _RESCALE
    return out / norm


def unitary_exp(gen: np.ndarray) -> np.ndarray:
    """exp(1j*G) for a Hermitian matrix G, by scaling and squaring.

    1j*G is scaled by 2^-k until its 1-norm is at most 0.5, exponentiated
    with a truncated Taylor series, then squared k times.  The result is
    unitary to ~1e-11 max-norm for dimensions up to 512.
    """
    g = np.asarray(gen, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {g.shape}")
    n = g.shape[0]
    if n == 0:
        raise ValueError("generator must have dimension >= 1")
    scale = max(1.0, float(np.max(np.abs(g))))
    defect = float(np.max(np.abs(g - g.conj().T)))
    if defect > 1e-14 * scale:
        raise ValueError(f"generator is not Hermitian (defect {defect:.3e})")

    a = 1j * g
    nrm = float(np.linalg.norm(a, 1))
    squarings = 0 if nrm <= 0.5 else int(math.ceil(math.log2(nrm / 0.5)))
    a /= 2.0 ** squarings

    u = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for j in range(1, 40):
        term = term @ a / j
        u += term
        if float(np.max(np.abs(term))) < 1e-18:
            break
    for _ in range(squarings):
        u = u @ u
    return u
