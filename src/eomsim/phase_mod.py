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

This module evaluates only the closed form; `verify` cross-checks it
against the exponential of the lattice hopping generator, which shares no
code with the Bessel evaluation.

Wherever a real meets a complex, the real is promoted with complex(x) first,
the rule Python applied up to 3.13; 3.14 follows C99 instead and can flip
the sign of a zero part, which would change the printed bytes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .lattice import _check_mode, _check_tone, decompose_mode
from .special import _MAX_INDEX, bessel_j_array

# j^s for s mod 4 = 0, 1, 2, 3; kept exact instead of going through exp()
_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_HALF_PI = 0.5 * math.pi

MODELS = ("exact", "optical")

_MAX_MARGIN = 400

# orders past the Bessel bound's estimate that the halfwidth scan still reads
_BOUND_SLACK = 4


def phase_factor(angle: float) -> complex:
    """exp(j angle), exact on the quarter-turn grid.

    Quadrature bias and RF phase settings are where the interesting
    cancellations live; evaluating them through exp() leaves ~1e-16 residue
    that would otherwise litter the output with ghost entries.
    """
    k = _quarter_turns(angle)
    if k is not None:
        return _QUARTER_TURNS[k % 4]
    return cmath.exp(1j * complex(angle))


def _quarter_turns(angle: float) -> int | None:
    """k when angle is exactly k pi/2 (either zero gives 0), else None."""
    k = round(angle / _HALF_PI)
    return k if angle == k * _HALF_PI else None


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
        _check_drive(self.m, self.theta_rf, self.tone)
        _check_phase("phi_b", self.phi_b)


@dataclass(frozen=True)
class ToneDrive:
    """One small-signal RF tone: index 0 <= m <= 50, phase theta_rf, integer harmonic."""

    m: float
    theta_rf: float
    tone: int

    def __post_init__(self) -> None:
        _check_drive(self.m, self.theta_rf, self.tone)


@dataclass(frozen=True)
class MultitonePMConfig:
    """First-order multitone modulator (subcarrier-multiplexing regime).

    Each tone contributes one upper and one lower sideband.  `convention`
    selects the per-sideband amplitude: "full" uses m_k per sideband (the
    literal small-signal form), "half" uses m_k/2, which is what the exact
    single-tone model linearizes to (J_1(m) ~ m/2).  Comparisons against the
    exact model must match conventions; "full" at index m corresponds to the
    exact model at index 2m.

    The row is not normalised.  When no two sidebands share a mode its power
    is 1 + 2*sum_k (scale*m_k)^2, scale being 1 ("full") or 1/2 ("half"), so
    it is meaningful only for m_k << 1; the m_k <= 50 cap bounds the input,
    not the error of the first-order form.
    """

    phi_b: float
    tones: tuple[ToneDrive, ...]
    convention: str = "full"

    def __post_init__(self) -> None:
        _check_phase("phi_b", self.phi_b)
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
        if (
            not isinstance(self.margin, int)
            or isinstance(self.margin, bool)
            or not 0 <= self.margin <= _MAX_MARGIN
        ):
            raise ValueError(f"margin must be an integer in [0, {_MAX_MARGIN}], got {self.margin!r}")


def _ladder(theta_rf: float):
    """s -> (j exp(j theta_rf))^s, the rung phase of the sideband ladder.

    Whether theta_rf sits on the quarter-turn grid is decided once.  On it,
    theta_rf = k pi/2 and the phase is the exact j^(s (k + 1)), which
    repeats every four rungs; off it, j^s exp(j s theta_rf).
    """
    k = _quarter_turns(theta_rf)
    if k is not None:
        cycle = tuple(_QUARTER_TURNS[(s * (k + 1)) % 4] for s in range(4))
        return lambda s: cycle[s % 4]
    return lambda s: _QUARTER_TURNS[s % 4] * cmath.exp(1j * complex(s * theta_rf))


def retained_halfwidth(m: float, truncation: Truncation) -> int:
    """Half-width of the retained sideband window for modulation index m.

    The window ends at the first order s > int(m) whose |J_s(m)| falls below
    eps, plus `margin`.  The scan reads one Bessel array, sized by the bound
    |J_s(m)| <= (m/2)^s / s! (DLMF 10.14.4): the array reaches the first
    order past int(m) where that bound drops below eps, plus `_BOUND_SLACK`
    orders so that rounding in lgamma cannot cut it short.  The recurrence's
    length therefore follows the window, not a fixed int(m) + 401 orders.
    The array comes from `_bessel_pass`, which keeps the last four passes.
    """
    if m == 0.0:
        return truncation.margin
    # log(m) - log(2), not log(m/2): half of the smallest subnormal is 0.0
    log_half_m = math.log(m) - math.log(2.0)
    log_eps = math.log(truncation.eps)
    bound = int(m) + 1
    while bound * log_half_m - math.lgamma(bound + 1) >= log_eps:
        bound += 1
    # scan past the turning point, where J_s(m) decays monotonically in s;
    # for m <= 50 it underflows to 0.0 before order int(m) + 362 and stays
    # under the bound, so the scan stops inside the array for every eps > 0
    top = min(int(m) + 401, bound + _BOUND_SLACK)
    jarr = _bessel_pass(top, m)
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

    Everything but the bias and the RF phase depends only on (n0, m, tone,
    truncation, model): that window of real Bessel brackets comes from
    `_scatter_window`.  Three memos, each sized for one two-arm device, keep
    the work it reads: `_scatter_window` its last two windows,
    `_halfwidth` its last two (m, truncation) halfwidths, and `_bessel_pass`
    its last four (s_max, m) Bessel passes (each arm's halfwidth scan and
    window array).  Matched arms, the input ports and points that repeat
    them, and carriers of one depth past the array's cut share their passes;
    a run of distinct devices keeps nothing.  Whether theta_rf lies on the
    quarter-turn grid is decided once per row, by `_ladder`.
    """
    _check_model(model)
    _check_mode(n0)
    bias = phase_factor(cfg.phi_b)
    if cfg.m == 0.0:
        return {n0: bias}
    tr = truncation if truncation is not None else Truncation()
    phase = _ladder(cfg.theta_rf)
    row: dict[int, complex] = {}
    for mode, s, bracket in _scatter_window(n0, cfg.m, cfg.tone, tr, model):
        amp = bias * phase(s) * bracket
        if amp != 0.0:
            row[mode] = amp
    return row


@functools.lru_cache(maxsize=2)
def _scatter_window(
    n0: int, m: float, tone: int, truncation: Truncation, model: str
) -> tuple[tuple[int, int, complex], ...]:
    """(mode, s, bracket) per retained sideband rung q = q0 + s of `pm_scatter_row`.

    bracket is complex(J_s(m) - (-1)^q0 J_{q+q0}(m)), or complex(J_s(m)) in
    the optical model.  The memo holds two windows, one per arm: enough for
    the arms of one device, and too few to outlast a run of distinct points.
    The halfwidth and the Bessel array come from their own memos, sized the
    same way, so a window that misses may still reuse its arm's passes.
    """
    q0, r0 = decompose_mode(n0, tone)
    hw = _halfwidth(m, truncation)
    q_lo = max(1, q0 - hw)
    q_hi = q0 + hw
    # image orders q + q0 past hw + m + 80 lie below double precision, so
    # the array length, and the cost, does not grow with the carrier
    top = min(q_hi + q0, hw + int(m) + 80)
    jarr = _bessel_pass(top, m)
    sign = -1.0 if q0 % 2 else 1.0
    window = []
    for q in range(q_lo, q_hi + 1):
        s = q - q0
        js = jarr[s] if s >= 0 else (jarr[-s] if s % 2 == 0 else -jarr[-s])
        image = jarr[q + q0] if q + q0 <= top else 0.0
        bracket = js if model == "optical" else js - sign * image
        window.append((q * tone - r0, s, complex(bracket)))
    return tuple(window)


@functools.lru_cache(maxsize=2)
def _halfwidth(m: float, truncation: Truncation) -> int:
    """`retained_halfwidth`, kept for the last two (m, truncation), one per arm.

    `_scatter_window` and verify's oracle lattice read it, so one device's
    two arms scan their windows once between them.
    """
    return retained_halfwidth(m, truncation)


@functools.lru_cache(maxsize=4)
def _bessel_pass(s_max: int, m: float) -> tuple[float, ...]:
    """`bessel_j_array(s_max, m)` as a tuple, kept for the last four passes:
    an arm's halfwidth scan and its window's array, for each of two arms.

    `bessel_j_array` stays a plain function, so a wrapper around it sees
    only the passes that run.
    """
    return tuple(bessel_j_array(s_max, m).tolist())


def pm_multitone_row(n0: int, cfg: MultitonePMConfig) -> dict[int, complex]:
    """First-order output spectrum of the multitone modulator.

    Carrier keeps exp(j phi_b); each tone adds sidebands at n0 +- N_k with
    amplitude j exp(+-j theta_k) times m_k (or m_k/2 under the "half"
    convention), all behind the common bias phase.  Sidebands must stay on
    the positive lattice.
    """
    _check_mode(n0)
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
        amp = bias * complex(scale) * complex(drive.m) * 1j
        tone_phase = phase_factor(drive.theta_rf)
        for mode, phase in (
            (n0 + drive.tone, tone_phase),
            (n0 - drive.tone, tone_phase.conjugate()),
        ):
            row[mode] = row.get(mode, 0j) + amp * phase
    return {mode: amp for mode, amp in row.items() if amp != 0.0}


def _check_drive(m: float, theta_rf: float, tone: int) -> None:
    """The rules of one RF drive: an integer tone >= 1, index 0 <= m <= 50, finite phase."""
    _check_tone(tone)
    if not 0.0 <= m <= _MAX_INDEX:
        raise ValueError(f"modulation index must lie in [0, {_MAX_INDEX}], got {m!r}")
    _check_phase("theta_rf", theta_rf)


def _check_phase(name: str, val: float) -> None:
    if not math.isfinite(val):
        raise ValueError(f"{name} must be finite, got {val!r}")


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
