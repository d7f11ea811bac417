"""Single-arm electro-optic phase modulator on the quantized mode lattice.

A drive V(t) = V_DC + V_m cos(Omega t + theta_rf) at integer tone N scatters
a photon at carrier n0 = q0*N - r0 along the sideband ladder q*N - r0 with
amplitudes

    C_q(q0) = exp(j phi_b) (j exp(j theta_rf))^(q - q0)
              * [J_{q-q0}(m) - (-1)^q0 J_{q+q0}(m)],

where phi_b = pi V_DC / V_pi is the bias phase and m = pi V_m / V_pi the
modulation index.  The second Bessel term is the reflection of the ladder off
the bottom of the positive-frequency lattice; dropping it gives the optical
limit, valid when the carrier sits many rungs up (q0 >> m).

Two independent routes are provided: the closed form above, and the matrix
exponential of the lattice hopping generator (`pm_generator_oracle`), which
shares no code with the Bessel evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import decompose_mode
from .special import bessel_j_array, unitary_exp

# j^s for s mod 4 = 0, 1, 2, 3; kept exact instead of going through exp()
_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_HALF_PI = 0.5 * math.pi

_MAX_INDEX = 50.0

_MAX_MARGIN = 400


def phase_factor(angle: float) -> complex:
    """exp(j angle), exact on the quarter-turn grid.

    Quadrature bias and RF phase settings are where the interesting
    cancellations live; evaluating them through exp() leaves ~1e-16 residue
    that would otherwise litter the output with ghost entries.
    """
    if angle == 0.0:
        return 1.0 + 0.0j
    k = round(angle / _HALF_PI)
    if angle == k * _HALF_PI:
        return _QUARTER_TURNS[k % 4]
    return cmath.exp(1j * angle)


@dataclass(frozen=True)
class PMConfig:
    """Single-tone phase modulator settings.

    phi_b: bias phase (rad); any fixed arm phase is folded in here.
    m: modulation index, 0 <= m <= 50.
    theta_rf: RF drive phase (rad).
    tone: integer RF harmonic N >= 1 of the lattice fundamental.
    """

    phi_b: float
    m: float
    theta_rf: float
    tone: int

    def __post_init__(self) -> None:
        if not isinstance(self.tone, int) or isinstance(self.tone, bool) or self.tone < 1:
            raise ValueError(f"tone must be an integer >= 1, got {self.tone!r}")
        if not 0.0 <= self.m <= _MAX_INDEX:
            raise ValueError(f"modulation index must lie in [0, {_MAX_INDEX}], got {self.m!r}")
        for name in ("phi_b", "theta_rf"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")


@dataclass(frozen=True)
class ToneDrive:
    """One small-signal RF tone: index m, phase theta_rf, integer harmonic."""

    m: float
    theta_rf: float
    tone: int

    def __post_init__(self) -> None:
        if not isinstance(self.tone, int) or isinstance(self.tone, bool) or self.tone < 1:
            raise ValueError(f"tone must be an integer >= 1, got {self.tone!r}")
        if self.m < 0.0 or not math.isfinite(self.m):
            raise ValueError(f"modulation index must be >= 0, got {self.m!r}")
        if not math.isfinite(self.theta_rf):
            raise ValueError(f"theta_rf must be finite, got {self.theta_rf!r}")


@dataclass(frozen=True)
class MultitonePMConfig:
    """First-order multitone modulator (subcarrier-multiplexing regime).

    Each tone contributes one upper and one lower sideband.  `convention`
    selects the per-sideband amplitude: "full" uses m_k per sideband (the
    literal small-signal form), "half" uses m_k/2, which is what the exact
    single-tone model linearizes to (J_1(m) ~ m/2).  Comparisons against the
    exact model must match conventions; "full" at index m corresponds to the
    exact model at index 2m.
    """

    phi_b: float
    tones: tuple[ToneDrive, ...]
    convention: str = "full"

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi_b):
            raise ValueError(f"phi_b must be finite, got {self.phi_b!r}")
        if self.convention not in ("full", "half"):
            raise ValueError(f"convention must be 'full' or 'half', got {self.convention!r}")
        object.__setattr__(self, "tones", tuple(self.tones))


@dataclass(frozen=True)
class Truncation:
    """Sideband retention policy for scatter rows.

    Orders are kept while |J_{q-q0}(m)| >= eps, then `margin` further orders
    on each side are retained on purpose (they matter for unitarity audits),
    so entries below eps do appear in rows.  The scan starts past order m
    and every J_s(m) with s > m + 361 is exactly 0.0 for m <= 50, so a
    margin of 400 already reaches every nonzero amplitude; larger margins
    are rejected rather than looped over.
    """

    eps: float = 1e-12
    margin: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not isinstance(self.margin, int) or not 0 <= self.margin <= _MAX_MARGIN:
            raise ValueError(f"margin must be an integer in [0, {_MAX_MARGIN}], got {self.margin!r}")


def ladder_phase(s: int, theta_rf: float) -> complex:
    """(j exp(j theta_rf))^s, exact whenever theta_rf sits on the quarter-turn grid."""
    if theta_rf == 0.0:
        return _QUARTER_TURNS[s % 4]
    k = round(theta_rf / _HALF_PI)
    if theta_rf == k * _HALF_PI:
        return _QUARTER_TURNS[(s * (k + 1)) % 4]
    return _QUARTER_TURNS[s % 4] * cmath.exp(1j * (s * theta_rf))


def retained_halfwidth(m: float, truncation: Truncation) -> int:
    """Half-width of the retained sideband window for modulation index m."""
    if m == 0.0:
        return truncation.margin
    # scan past the turning point, where J_s(m) decays monotonically in s;
    # for m <= 50 it underflows to 0.0 before order int(m) + 362, so the scan
    # stops inside the array for every eps > 0
    top = int(m) + 401
    jarr = bessel_j_array(top, m)
    s = int(m) + 1
    while s < top and abs(jarr[s]) >= truncation.eps:
        s += 1
    return s + truncation.margin


def pm_scatter_row(
    n0: int,
    cfg: PMConfig,
    truncation: Truncation | None = None,
    model: str = "exact",
) -> dict[int, complex]:
    """Output spectrum {mode: amplitude} for a photon entering at carrier n0.

    `model` is "exact" (semi-infinite lattice, unitary row) or "optical"
    (reflection term dropped).  Entries that are exactly zero are omitted, so
    m = 0 yields the single carrier entry exp(j phi_b).
    """
    _check_model(model)
    tr = truncation if truncation is not None else Truncation()
    dec = decompose_mode(n0, cfg.tone)
    bias = phase_factor(cfg.phi_b)
    if cfg.m == 0.0:
        return {n0: bias}
    hw = retained_halfwidth(cfg.m, tr)
    q_lo = max(1, dec.q0 - hw)
    q_hi = dec.q0 + hw
    # image orders q + q0 past hw + m + 80 lie below double precision, so
    # the array length, and the cost, does not grow with the carrier
    top = min(q_hi + dec.q0, hw + int(cfg.m) + 80)
    jarr = bessel_j_array(top, cfg.m)
    sign = -1.0 if dec.q0 % 2 else 1.0
    row: dict[int, complex] = {}
    for q in range(q_lo, q_hi + 1):
        s = q - dec.q0
        js = jarr[s] if s >= 0 else (jarr[-s] if s % 2 == 0 else -jarr[-s])
        image = jarr[q + dec.q0] if q + dec.q0 <= top else 0.0
        bracket = js if model == "optical" else js - sign * image
        amp = bias * ladder_phase(s, cfg.theta_rf) * bracket
        if amp != 0.0:
            row[q * dec.tone - dec.r0] = amp
    return row


def pm_generator_oracle(cfg: PMConfig, n_max: int) -> np.ndarray:
    """Full one-photon scattering matrix from the lattice hopping generator.

    Builds the Hermitian generator with bias phi_b on the diagonal and
    hopping chi = exp(j theta_rf) m / 2 between modes n and n + N, then
    exponentiates.  Row i (0-based) holds the output amplitudes for input
    mode i + 1, matching pm_scatter_row away from the top truncation edge.
    This route never touches a Bessel function.
    """
    if n_max < 1:
        raise ValueError(f"lattice size must be >= 1, got {n_max!r}")
    chi = 0.5 * cfg.m * cmath.exp(1j * cfg.theta_rf)
    gen = np.zeros((n_max, n_max), dtype=np.complex128)
    np.fill_diagonal(gen, cfg.phi_b)
    for i in range(n_max - cfg.tone):
        gen[i, i + cfg.tone] = chi
        gen[i + cfg.tone, i] = chi.conjugate()
    return unitary_exp(gen)


def pm_multitone_row(n0: int, cfg: MultitonePMConfig) -> dict[int, complex]:
    """First-order output spectrum of the multitone modulator.

    Carrier keeps exp(j phi_b); each tone adds sidebands at n0 +- N_k with
    amplitude j exp(+-j theta_k) times m_k (or m_k/2 under the "half"
    convention), all behind the common bias phase.  Sidebands must stay on
    the positive lattice.
    """
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 1:
        raise ValueError(f"carrier mode must be an integer >= 1, got {n0!r}")
    for drive in cfg.tones:
        if n0 - drive.tone < 1:
            raise ValueError(
                f"lower sideband of tone {drive.tone} falls off the lattice for carrier {n0}"
            )
    bias = phase_factor(cfg.phi_b)
    scale = 1.0 if cfg.convention == "full" else 0.5
    row: dict[int, complex] = {n0: bias}
    for drive in cfg.tones:
        if drive.m == 0.0:
            continue
        amp = bias * scale * drive.m * 1j
        tone_phase = phase_factor(drive.theta_rf)
        for mode, phase in (
            (n0 + drive.tone, tone_phase),
            (n0 - drive.tone, tone_phase.conjugate()),
        ):
            row[mode] = row.get(mode, 0.0) + amp * phase
    return {mode: amp for mode, amp in row.items() if amp != 0.0}


def _check_model(model: str) -> None:
    if model not in ("exact", "optical"):
        raise ValueError(f"model must be 'exact' or 'optical', got {model!r}")
