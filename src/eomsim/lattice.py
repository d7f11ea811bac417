"""Quantized frequency lattice bookkeeping.

A cavity of round-trip length L supports optical modes at omega_n =
2*pi*n*nu/L for integer n >= 1, and an RF drive is an integer harmonic
N >= 1 of the same fundamental.  Everything downstream works with the
plain integers n and N; physical frequencies only ever appear through
:func:`mode_omega`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SidebandDecomposition:
    """Carrier position on the sideband ladder of an RF tone.

    A carrier mode n0 driven at tone N sits at rung q0 of the ladder
    n = q*N - r0, with 0 <= r0 < N and q0 >= 1, so sideband rung q is
    lattice mode q*N - r0.
    """

    q0: int
    r0: int
    tone: int

    @property
    def carrier(self) -> int:
        return self.q0 * self.tone - self.r0


def decompose_mode(n0: int, tone: int) -> SidebandDecomposition:
    """Split carrier n0 into (q0, r0) with n0 = q0*tone - r0, 0 <= r0 < tone."""
    _check_mode(n0)
    _check_tone(tone)
    q0 = -(-n0 // tone)  # ceil division
    r0 = q0 * tone - n0
    return SidebandDecomposition(q0=q0, r0=r0, tone=tone)


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
