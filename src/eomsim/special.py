"""Numerical kernel of the closed-form path: integer-order Bessel J.

`bessel_j_array` evaluates J_0..J_s by Miller's backward recurrence.  The
generator-exponential cross-check lives in `verify` and shares no code with
it.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_INDEX = 50.0  # modulation index cap of every phase-modulator drive
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
    if not 0.0 < m <= _MAX_INDEX:
        raise ValueError(f"argument must satisfy 0 < m <= {_MAX_INDEX}, got {m!r}")
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

