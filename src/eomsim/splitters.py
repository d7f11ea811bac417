"""Two-port splitter models: bulk beamsplitter, directional coupler, Y-branch.

Coefficient tables follow the row-per-input convention: the port-1 creation
operator maps to t' * (port 1) + r' * (port 2), the port-2 operator to
r * (port 1) + t * (port 2).  All three kinds are lossless, so the table is
a unitary 2x2 matrix and the reciprocity relations hold:

    |t'|^2 + |r'|^2 = 1,   |t|^2 + |r|^2 = 1,   conj(r) t' + r' conj(t) = 0.

Sign conventions are fixed: the directional coupler and bulk splitter carry
+j on every reflection; the Y-branch is real with r' = sqrt(k) = -r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import unitary_exp

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
        else:
            if self.k is None:
                raise ValueError(f"{self.kind} splitter requires coupling ratio k")
            if self.theta_split is not None:
                raise ValueError(f"{self.kind} splitter takes k, not theta_split")
            if not 0.0 <= self.k <= 1.0:
                raise ValueError(f"coupling ratio must lie in [0, 1], got {self.k!r}")


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


@dataclass(frozen=True)
class ReciprocityReport:
    """Result of checking the lossless reciprocity relations on a table."""

    row_in_defect: float
    row_out_defect: float
    cross_defect: float
    tol: float
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


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


def verify_reciprocity(coeffs: SplitterCoeffs, tol: float = 1e-14) -> ReciprocityReport:
    """Check unit rows and the cross relation conj(r) t' + r' conj(t) = 0."""
    row_in = abs(abs(coeffs.tp) ** 2 + abs(coeffs.rp) ** 2 - 1.0)
    row_out = abs(abs(coeffs.t) ** 2 + abs(coeffs.r) ** 2 - 1.0)
    cross = abs(coeffs.r.conjugate() * coeffs.tp + coeffs.rp * coeffs.t.conjugate())
    violations = []
    if row_in > tol:
        violations.append("input_row_norm")
    if row_out > tol:
        violations.append("output_row_norm")
    if cross > tol:
        violations.append("cross_reciprocity")
    return ReciprocityReport(
        row_in_defect=row_in, row_out_defect=row_out, cross_defect=cross,
        tol=tol, violations=tuple(violations),
    )


def splitter_generator_oracle(spec: SplitterSpec) -> np.ndarray:
    """Coefficient table built from the exchange-generator exponential.

    Independent route to the same 2x2 table: exponentiate the one-photon
    exchange generator instead of writing the trig closed form.  The bulk
    splitter and directional coupler use the symmetric exchange generator at
    mixing angle theta (theta = 2*atan2(sqrt(k), sqrt(1-k)) for the coupler,
    which unlike 2*asin(sqrt(k)) stays accurate when k approaches 1); the
    Y-branch uses the antisymmetric one.  The generator is written in the
    same row-per-input convention as :meth:`SplitterCoeffs.as_matrix` (the
    adjoint action on creation operators, i.e. the transpose of the
    one-photon-subspace matrix); only the Y-branch is sensitive to the
    distinction.
    """
    if spec.kind == "bulk":
        theta = spec.theta_split
    else:
        theta = 2.0 * math.atan2(math.sqrt(spec.k), math.sqrt(1.0 - spec.k))
    if spec.kind == "yb":
        gen = np.array([[0.0, -0.5j * theta], [0.5j * theta, 0.0]], dtype=np.complex128)
    else:
        gen = np.array([[0.0, 0.5 * theta], [0.5 * theta, 0.0]], dtype=np.complex128)
    mat = unitary_exp(gen)
    return mat.T.copy() if spec.reverse else mat
