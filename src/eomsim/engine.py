"""Full modulator assembly: splitter, two phase-modulator arms, combiner.

The device is input splitter -> (arm 1 lower, arm 2 upper) -> output
combiner.  A creation operator entering port 1 ends up as

    port 1: t'_i t'_o C_q + r'_i r_o Cbar_q
    port 2: t'_i r'_o C_q + r'_i t_o Cbar_q

and entering port 2 as

    port 1: r_i t'_o C_q + t_i r_o Cbar_q
    port 2: r_i r'_o C_q + t_i t_o Cbar_q,

with C (Cbar) the arm-1 (arm-2) scatter rows.  Coherent states displace with
alpha times the same weights.  Everything here is closed-form; the
`composition_oracle` rebuilds the same outputs from raw matrix products of
the splitter tables and the arm generator exponentials, sharing none of the
closed-form code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import decompose_mode, mode_omega, TWO_PI
from .phase_mod import (
    MultitonePMConfig,
    PMConfig,
    Truncation,
    pm_generator_oracle,
    pm_multitone_row,
    pm_scatter_row,
    retained_halfwidth,
)
from .splitters import SplitterCoeffs, SplitterSpec, splitter_coeffs

PairKey = tuple[tuple[int, int], tuple[int, int]]

PRESETS = ("yb_dual", "yb_single", "dc_dual", "dc_single", "hybrid_dual", "hybrid_single")


@dataclass(frozen=True)
class EOMConfig:
    """Amplitude modulator: two splitters and up to two modulator arms.

    An arm set to None is an undriven delay-free waveguide (identity).
    Splitters may be given as specs or as explicit coefficient tables.
    """

    splitter_in: SplitterSpec | SplitterCoeffs
    splitter_out: SplitterSpec | SplitterCoeffs
    pm1: PMConfig | MultitonePMConfig | None = None
    pm2: PMConfig | MultitonePMConfig | None = None

    def __post_init__(self) -> None:
        for name in ("splitter_in", "splitter_out"):
            val = getattr(self, name)
            if not isinstance(val, (SplitterSpec, SplitterCoeffs)):
                raise ValueError(f"{name} must be a SplitterSpec or SplitterCoeffs")
        for name in ("pm1", "pm2"):
            val = getattr(self, name)
            if val is not None and not isinstance(val, (PMConfig, MultitonePMConfig)):
                raise ValueError(f"{name} must be PMConfig, MultitonePMConfig or None")

    def coeffs_in(self) -> SplitterCoeffs:
        return _resolve(self.splitter_in)

    def coeffs_out(self) -> SplitterCoeffs:
        return _resolve(self.splitter_out)


@dataclass(frozen=True)
class TwoPortSpectrum:
    """Mode-resolved complex amplitudes on the two output ports."""

    port1: dict[int, complex]
    port2: dict[int, complex]

    def port(self, which: int) -> dict[int, complex]:
        _check_port(which)
        return self.port1 if which == 1 else self.port2

    def total_power(self) -> float:
        return sum(abs(a) ** 2 for a in self.port1.values()) + sum(
            abs(a) ** 2 for a in self.port2.values()
        )

    def scaled(self, factor: complex) -> "TwoPortSpectrum":
        return TwoPortSpectrum(
            port1={m: factor * a for m, a in self.port1.items()},
            port2={m: factor * a for m, a in self.port2.items()},
        )


@dataclass(frozen=True)
class TwoPhotonState:
    """Two-photon amplitudes over unordered (port, mode) pairs.

    The stored number for a pair {x, y} is the coefficient of the monomial
    a_x^dag a_y^dag in the output operator product (both orderings summed
    when x != y).  The bosonic sqrt(2) for doubly occupied labels enters at
    norm/probability computation, so a double occupancy contributes
    2*|amp|^2 and (b^dag)^2 acting on vacuum has squared norm 2.
    """

    amps: dict[PairKey, complex]

    def norm_sq(self) -> float:
        return sum(
            (2.0 if x == y else 1.0) * abs(c) ** 2 for (x, y), c in self.amps.items()
        )

    def pair_probability(self, key: PairKey) -> float:
        x, y = key
        c = self.amps.get(key, 0.0)
        return (2.0 if x == y else 1.0) * abs(c) ** 2

    def sector_probabilities(self) -> dict[str, float]:
        """Probabilities of both photons on port 1, one per port, both on 2."""
        out = {"both_port1": 0.0, "split": 0.0, "both_port2": 0.0}
        for key in self.amps:
            (p1, _m1), (p2, _m2) = key
            if p1 == p2:
                name = "both_port1" if p1 == 1 else "both_port2"
            else:
                name = "split"
            out[name] += self.pair_probability(key)
        return out


@dataclass(frozen=True)
class MeanFieldSeries:
    """Classical field reconstruction: phasor table and sampled waveform.

    Each occupied mode contributes the phasor j*xi(omega)*amplitude, with
    xi(omega) = field_scale*sqrt(omega); the real field at time t is
    sum over modes of (phasor * exp(-j omega t) + c.c.).
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    terms: tuple[tuple[int, float, complex], ...]  # (mode, omega, phasor)


def preset(name: str, pm1=None, pm2=None) -> EOMConfig:
    """Named balanced configurations.

    yb_dual/yb_single: Y-branch in, reversed Y-branch out (all weights 1/2).
    dc_dual/dc_single: 3-dB directional couplers both sides.
    hybrid_dual/hybrid_single: Y-branch in, 3-dB coupler out.
    *_single variants keep arm 2 as an undriven waveguide.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {PRESETS}")
    kind = name.split("_")[0]
    single = name.endswith("_single")
    if single and pm2 is not None:
        raise ValueError(f"preset {name!r} has no second modulator arm")
    if kind == "yb":
        s_in: SplitterSpec = SplitterSpec(kind="yb", k=0.5)
        s_out: SplitterSpec = SplitterSpec(kind="yb", k=0.5, reverse=True)
    elif kind == "dc":
        s_in = SplitterSpec(kind="dc", k=0.5)
        s_out = SplitterSpec(kind="dc", k=0.5)
    else:  # hybrid
        s_in = SplitterSpec(kind="yb", k=0.5)
        s_out = SplitterSpec(kind="dc", k=0.5)
    return EOMConfig(splitter_in=s_in, splitter_out=s_out, pm1=pm1, pm2=pm2)


def dsb_settings(m: float, tone: int) -> tuple[PMConfig, PMConfig]:
    """Arm settings for double-sideband quadrature operation.

    Equal indices, antiphase drives, opposite quarter-wave biases: port 1 of
    the dual Y-branch then carries Re[C_q] and port 2 carries -j*Im[C_q], so
    even-order sidebands vanish on port 1 and odd orders on port 2.
    """
    half_pi = 0.5 * math.pi
    return (
        PMConfig(phi_b=half_pi, m=m, theta_rf=0.0, tone=tone),
        PMConfig(phi_b=-half_pi, m=m, theta_rf=math.pi, tone=tone),
    )


def ssb_settings(m: float, tone: int, cancel: str = "lower") -> tuple[PMConfig, PMConfig]:
    """Arm settings for single-sideband operation.

    `cancel` names the first-order sideband suppressed on port 1 of the dual
    Y-branch: "lower" uses a +90 degree drive offset on arm 2, "upper" -90.
    """
    if cancel not in ("lower", "upper"):
        raise ValueError(f"cancel must be 'lower' or 'upper', got {cancel!r}")
    half_pi = 0.5 * math.pi
    theta2 = half_pi if cancel == "lower" else -half_pi
    return (
        PMConfig(phi_b=half_pi, m=m, theta_rf=0.0, tone=tone),
        PMConfig(phi_b=0.0, m=m, theta_rf=theta2, tone=tone),
    )


def single_photon_output(
    cfg: EOMConfig,
    input_port: int,
    n0: int,
    truncation: Truncation | None = None,
    model: str = "exact",
) -> TwoPortSpectrum:
    """Output amplitudes for one photon entering `input_port` at carrier n0.

    Total probability over both ports is 1 (within truncation) for exact
    single-tone arms; distinct arm tones interleave two sideband ladders, and
    colliding modes add coherently.
    """
    _check_port(input_port)
    row1 = _arm_row(cfg.pm1, n0, truncation, model)
    row2 = _arm_row(cfg.pm2, n0, truncation, model)
    (w11, w12), (w21, w22) = _port_weights(cfg.coeffs_in(), cfg.coeffs_out(), input_port)
    return TwoPortSpectrum(
        port1=_accumulate(w11, row1, w12, row2),
        port2=_accumulate(w21, row1, w22, row2),
    )


def coherent_output(
    cfg: EOMConfig,
    input_port: int,
    n0: int,
    alpha: complex,
    truncation: Truncation | None = None,
    model: str = "exact",
) -> TwoPortSpectrum:
    """Displacement amplitudes for a coherent state alpha at carrier n0.

    Same code path as the single-photon map scaled by alpha, so the
    correspondence is exact and total output power is |alpha|^2.
    """
    return single_photon_output(cfg, input_port, n0, truncation, model).scaled(alpha)


def two_photon_output(
    cfg: EOMConfig,
    n0: int,
    truncation: Truncation | None = None,
    model: str = "exact",
) -> TwoPhotonState:
    """Joint state for one photon in each input port, both at carrier n0.

    Built by multiplying the two transformed creation operators and applying
    them to vacuum; for balanced splitters the amplitude for the photons to
    take different arms cancels exactly (t_i t'_i + r_i r'_i = 0), the
    two-photon interference that makes the output bunch.
    """
    spec_a = single_photon_output(cfg, 1, n0, truncation, model)
    spec_b = single_photon_output(cfg, 2, n0, truncation, model)
    amps: dict[PairKey, complex] = {}
    entries_b = [
        ((port, mode), amp)
        for port, row in ((1, spec_b.port1), (2, spec_b.port2))
        for mode, amp in row.items()
    ]
    for port_a, row_a in ((1, spec_a.port1), (2, spec_a.port2)):
        for mode_a, amp_a in row_a.items():
            label_a = (port_a, mode_a)
            for label_b, amp_b in entries_b:
                key = (label_a, label_b) if label_a <= label_b else (label_b, label_a)
                amps[key] = amps.get(key, 0.0) + amp_a * amp_b
    return TwoPhotonState(amps={k: c for k, c in amps.items() if c != 0.0})


def port_entanglement(state: TwoPhotonState) -> np.ndarray:
    """Schmidt coefficients of the port bipartition, cut at the numeric rank.

    Rows of the coefficient matrix index occupation states of port 1, columns
    of port 2.  The matrix is block-diagonal by the number of photons on
    port 1: a column A over the 2|0 pairs, a block B whose rows are port-1
    modes and columns port-2 modes over the split pairs, and a row C over the
    0|2 pairs.  The spectrum is therefore {|A|, |C|} together with svd(B),
    and B is the only matrix decomposed.  Only singular values above
    sigma_max * max(rows, cols) * eps are returned (numpy's `matrix_rank`
    tolerance, strict), with rows and cols the label counts of the full
    coefficient matrix: rows = 2|0 pairs + port-1 modes of B + 1 if any 0|2
    pair exists, and cols the mirror count.  So the round-off tail of the
    SVD, which varies with the BLAS build, never reaches the output; a
    product state, whose two output ports are unentangled, yields exactly one
    value.  For a normalized state the squared values sum to 1.
    """
    bunched = {1: 0, 2: 0}  # 2|0 and 0|2 pair counts
    bunched_sq = {1: 0.0, 2: 0.0}  # squared norms of the column A and the row C
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    split = []
    for ((p1, m1), (p2, m2)), c in sorted(state.amps.items()):
        if p1 == p2:
            bunched[p1] += 1
            bunched_sq[p1] += abs(c * (math.sqrt(2.0) if m1 == m2 else 1.0)) ** 2
        else:
            split.append((rows.setdefault(m1, len(rows)), cols.setdefault(m2, len(cols)), c))
    svs = [math.sqrt(bunched_sq[p]) for p in (1, 2) if bunched[p]]
    if split:
        block = np.zeros((len(rows), len(cols)), dtype=np.complex128)
        for i, j, c in split:
            block[i, j] = c
        svs.extend(np.linalg.svd(block, compute_uv=False))
    if not svs:
        return np.zeros(0)
    svs = np.sort(svs)[::-1]
    shape = (bunched[1] + len(rows) + (bunched[2] > 0), (bunched[1] > 0) + len(cols) + bunched[2])
    return svs[svs > svs[0] * max(shape) * np.finfo(float).eps]


def mean_field(
    spectrum: TwoPortSpectrum,
    port: int,
    times,
    nu: float = 1.0,
    length: float = TWO_PI,
    field_scale: float = 1.0,
) -> MeanFieldSeries:
    """Classical field waveform carried by one output port.

    Each mode's displacement amplitude A becomes the phasor j*xi(omega)*A
    with xi(omega) = field_scale*sqrt(omega); the sampled field is the sum
    of phasor*exp(-j omega t) plus conjugate over occupied modes.
    """
    amps = spectrum.port(port)
    terms = tuple(
        (mode, mode_omega(mode, nu, length), 1j * field_scale * math.sqrt(mode_omega(mode, nu, length)) * amps[mode])
        for mode in sorted(amps)
    )
    tlist = tuple(float(t) for t in times)
    values = []
    for t in tlist:
        total = 0.0
        for _mode, omega, phasor in terms:
            rot = phasor * complex(math.cos(omega * t), -math.sin(omega * t))
            total += 2.0 * rot.real
        values.append(total)
    return MeanFieldSeries(times=tlist, values=tuple(values), terms=terms)


def composition_oracle(
    cfg: EOMConfig, input_port: int, n0: int, n_max: int | None = None
) -> TwoPortSpectrum:
    """Brute-force reference: raw matrix product of the three stages.

    Applies the input splitter table, the arm generator exponentials (full
    lattice matrices), and the output table to the basis vector of (port,
    n0).  Shares no code with the closed-form path beyond the splitter
    tables themselves; disagreement beyond truncation error means the closed
    forms are wrong.  `n_max` defaults to a lattice comfortably larger than
    every occupied ladder.
    """
    _check_port(input_port)
    for name in ("pm1", "pm2"):
        if isinstance(getattr(cfg, name), MultitonePMConfig):
            raise ValueError("composition oracle requires exact single-tone or undriven arms")
    if n_max is None:
        n_max = _auto_lattice(cfg, n0)
    if n_max < n0:
        raise ValueError(f"lattice size {n_max} cannot hold carrier {n0}")
    mat_in = cfg.coeffs_in().as_matrix()
    mat_out = cfg.coeffs_out().as_matrix()
    rows = []
    for arm in (cfg.pm1, cfg.pm2):
        if arm is None:
            e = np.zeros(n_max, dtype=np.complex128)
            e[n0 - 1] = 1.0
            rows.append(e)
        else:
            rows.append(pm_generator_oracle(arm, n_max)[n0 - 1, :])
    w_arm1 = mat_in[input_port - 1, 0]
    w_arm2 = mat_in[input_port - 1, 1]
    arm1 = w_arm1 * rows[0]
    arm2 = w_arm2 * rows[1]
    port1_vec = mat_out[0, 0] * arm1 + mat_out[1, 0] * arm2
    port2_vec = mat_out[0, 1] * arm1 + mat_out[1, 1] * arm2
    return TwoPortSpectrum(
        port1={i + 1: complex(a) for i, a in enumerate(port1_vec) if a != 0.0},
        port2={i + 1: complex(a) for i, a in enumerate(port2_vec) if a != 0.0},
    )


def _resolve(sp: SplitterSpec | SplitterCoeffs) -> SplitterCoeffs:
    return sp if isinstance(sp, SplitterCoeffs) else splitter_coeffs(sp)


def _check_port(port: int) -> None:
    if port not in (1, 2):
        raise ValueError(f"port must be 1 or 2, got {port!r}")


def _arm_row(arm, n0: int, truncation: Truncation | None, model: str) -> dict[int, complex]:
    if arm is None:
        return {n0: 1.0 + 0.0j}
    if isinstance(arm, MultitonePMConfig):
        return pm_multitone_row(n0, arm)
    return pm_scatter_row(n0, arm, truncation, model)


def _port_weights(
    ci: SplitterCoeffs, co: SplitterCoeffs, input_port: int
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """((arm1, arm2) weights reaching port 1, same for port 2)."""
    if input_port == 1:
        into_arm1, into_arm2 = ci.tp, ci.rp
    else:
        into_arm1, into_arm2 = ci.r, ci.t
    return (
        (into_arm1 * co.tp, into_arm2 * co.r),
        (into_arm1 * co.rp, into_arm2 * co.t),
    )


def _accumulate(
    w1: complex, row1: dict[int, complex], w2: complex, row2: dict[int, complex]
) -> dict[int, complex]:
    out: dict[int, complex] = {}
    if w1 != 0.0:
        for mode, amp in row1.items():
            out[mode] = out.get(mode, 0.0) + w1 * amp
    if w2 != 0.0:
        for mode, amp in row2.items():
            out[mode] = out.get(mode, 0.0) + w2 * amp
    return {mode: amp for mode, amp in sorted(out.items()) if amp != 0.0}


def _auto_lattice(cfg: EOMConfig, n0: int) -> int:
    top = n0 + 8
    for arm in (cfg.pm1, cfg.pm2):
        if isinstance(arm, PMConfig):
            dec = decompose_mode(n0, arm.tone)
            hw = retained_halfwidth(arm.m, Truncation())
            top = max(top, (dec.q0 + hw + 12) * arm.tone)
    return top
