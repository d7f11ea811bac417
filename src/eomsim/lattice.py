"""Quantized frequency lattice bookkeeping.

A cavity of round-trip length L supports optical modes at omega_n =
2*pi*n*nu/L for integer n >= 1, and an RF drive is an integer harmonic
N >= 1 of the same fundamental.  Everything downstream works with the
plain integers n and N; physical frequencies only ever appear through
:func:`mode_omega`.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def decompose_mode(n0: int, tone: int) -> tuple[int, int]:
    """Carrier position (q0, r0) on the sideband ladder of an RF tone.

    n0 = q0*tone - r0 with 0 <= r0 < tone and q0 >= 1, so sideband rung q
    of the ladder is lattice mode q*tone - r0.
    """
    _check_mode(n0)
    _check_tone(tone)
    q0 = -(-n0 // tone)  # ceil division
    return q0, q0 * tone - n0


def mode_omega(n: int, nu: float = 1.0, length: float = TWO_PI) -> float:
    """Angular frequency of lattice mode n.

    Defaults are normalized so the mode spacing 2*pi*nu/length is exactly 1
    and mode_omega(n) == n.
    """
    _check_mode(n)
    if nu <= 0.0 or length <= 0.0:
        raise ValueError("nu and length must be positive")
    return TWO_PI * n * nu / length


def _check_mode(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"mode number must be an integer >= 1, got {n!r}")


def _check_tone(tone: int) -> None:
    if not isinstance(tone, int) or isinstance(tone, bool) or tone < 1:
        raise ValueError(f"tone must be an integer >= 1, got {tone!r}")
