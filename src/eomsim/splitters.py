"""Two-port splitter models: bulk beamsplitter, directional coupler, Y-branch.

Coefficient tables follow the row-per-input convention: the port-1 creation
operator maps to t' * (port 1) + r' * (port 2), the port-2 operator to
r * (port 1) + t * (port 2).  All three kinds are lossless and reciprocal,
so the table is a unitary 2x2 matrix:

    |t'|^2 + |r'|^2 = 1,   |t|^2 + |r|^2 = 1,   conj(r) t' + r' conj(t) = 0.

Sign conventions are fixed: the directional coupler and bulk splitter carry
+j on every reflection; the Y-branch is real with r' = sqrt(k) = -r.  This
module holds only the closed-form tables; `verify` checks them against the
relations above and against the exchange-generator exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("bulk", "dc", "yb")


@dataclass(frozen=True)
class SplitterSpec:
    """Declarative splitter description.

    kind: "bulk" (parameter theta_split, the mixing angle), "dc" or "yb"
    (parameter k, the power coupling ratio in [0, 1]).  reverse=True uses the
    device in the combiner orientation, i.e. transposes the coefficient table
    (swaps r and r'); this only changes the Y-branch, whose table is not
    symmetric.
    """

    kind: str
    theta_split: float | None = None
    k: float | None = None
    reverse: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown splitter kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "bulk":
            if self.theta_split is None:
                raise ValueError("bulk splitter requires theta_split")
            if self.k is not None:
                raise ValueError("bulk splitter takes theta_split, not k")
            if isinstance(self.theta_split, bool) or not math.isfinite(self.theta_split):
                raise ValueError(f"theta_split must be a finite number, got {self.theta_split!r}")
        else:
            if self.k is None:
                raise ValueError(f"{self.kind} splitter requires coupling ratio k")
            if self.theta_split is not None:
                raise ValueError(f"{self.kind} splitter takes k, not theta_split")
            if isinstance(self.k, bool) or not 0.0 <= self.k <= 1.0:
                raise ValueError(f"coupling ratio k must be a number in [0, 1], got {self.k!r}")
        if not isinstance(self.reverse, bool):
            raise ValueError(f"reverse must be True or False, got {self.reverse!r}")


@dataclass(frozen=True)
class SplitterCoeffs:
    """Scattering coefficients (t, t', r, r') of a lossless two-port splitter."""

    t: complex
    tp: complex
    r: complex
    rp: complex

    def as_matrix(self) -> np.ndarray:
        """2x2 table [[t', r'], [r, t]]; row = input port, column = output port."""
        return np.array([[self.tp, self.rp], [self.r, self.t]], dtype=np.complex128)

    def reversed(self) -> "SplitterCoeffs":
        """Combiner orientation: transposed table, i.e. r and r' swapped."""
        return SplitterCoeffs(t=self.t, tp=self.tp, r=self.rp, rp=self.r)


def splitter_coeffs(spec: SplitterSpec) -> SplitterCoeffs:
    """Coefficient table for a splitter spec."""
    if spec.kind == "bulk":
        half = 0.5 * spec.theta_split
        c = SplitterCoeffs(
            t=math.cos(half), tp=math.cos(half),
            r=1j * math.sin(half), rp=1j * math.sin(half),
        )
    elif spec.kind == "dc":
        c = SplitterCoeffs(
            t=math.sqrt(1.0 - spec.k), tp=math.sqrt(1.0 - spec.k),
            r=1j * math.sqrt(spec.k), rp=1j * math.sqrt(spec.k),
        )
    else:  # yb
        c = SplitterCoeffs(
            t=math.sqrt(1.0 - spec.k), tp=math.sqrt(1.0 - spec.k),
            r=-math.sqrt(spec.k), rp=math.sqrt(spec.k),
        )
    return c.reversed() if spec.reverse else c

