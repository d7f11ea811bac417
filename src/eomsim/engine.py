"""Full modulator assembly: splitter, two phase-modulator arms, combiner.

The device is input splitter -> (arm 1 lower, arm 2 upper) -> output
combiner.  A creation operator entering port 1 ends up as

    port 1: t'_i t'_o C_q + r'_i r_o Cbar_q
    port 2: t'_i r'_o C_q + r'_i t_o Cbar_q

and entering port 2 as

    port 1: r_i t'_o C_q + t_i r_o Cbar_q
    port 2: r_i r'_o C_q + t_i t_o Cbar_q,

with C (Cbar) the arm-1 (arm-2) scatter rows.  Coherent states displace with
alpha times the same weights.  Everything here is closed-form; `verify`
rebuilds the same outputs from raw matrix products of the splitter tables
and the arm generator exponentials, sharing none of the closed-form code.
As in `phase_mod`, a real meeting a complex is promoted with complex(x)
first, so the outputs do not depend on the interpreter's mixed-mode rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .lattice import mode_omega, TWO_PI
from .phase_mod import (
    MultitonePMConfig,
    PMConfig,
    Truncation,
    pm_multitone_row,
    pm_scatter_row,
)
from .splitters import SplitterCoeffs, SplitterSpec, splitter_coeffs

PairKey = tuple[tuple[int, int], tuple[int, int]]

PRESETS = ("yb_dual", "yb_single", "dc_dual", "dc_single", "hybrid_dual", "hybrid_single")


@dataclass(frozen=True)
class EOMConfig:
    """Amplitude modulator: two splitters and up to two modulator arms.

    An arm set to None is an undriven delay-free waveguide (identity).
    Splitters are specs; their coefficient tables come from `splitter_coeffs`.
    """

    splitter_in: SplitterSpec
    splitter_out: SplitterSpec
    pm1: PMConfig | MultitonePMConfig | None = None
    pm2: PMConfig | MultitonePMConfig | None = None

    def __post_init__(self) -> None:
        for name in ("splitter_in", "splitter_out"):
            val = getattr(self, name)
            if not isinstance(val, SplitterSpec):
                raise ValueError(f"{name} must be a SplitterSpec")
        for name in ("pm1", "pm2"):
            val = getattr(self, name)
            if val is not None and not isinstance(val, (PMConfig, MultitonePMConfig)):
                raise ValueError(f"{name} must be PMConfig, MultitonePMConfig or None")


@dataclass(frozen=True)
class TwoPortSpectrum:
    """Mode-resolved complex amplitudes on the two output ports."""

    port1: dict[int, complex]
    port2: dict[int, complex]

    def port(self, which: int) -> dict[int, complex]:
        _check_port(which)
        return self.port1 if which == 1 else self.port2

    def total_power(self) -> float:
        return _sum_in_order([abs(a) ** 2 for a in self.port1.values()]) + _sum_in_order(
            [abs(a) ** 2 for a in self.port2.values()]
        )

    def scaled(self, factor: complex) -> "TwoPortSpectrum":
        factor = complex(factor)
        return TwoPortSpectrum(
            port1={m: factor * a for m, a in self.port1.items()},
            port2={m: factor * a for m, a in self.port2.items()},
        )


class PairTable(NamedTuple):
    """A two-photon state's pairs as arrays, one entry per pair, in its record field order."""

    port_a: np.ndarray
    mode_a: np.ndarray
    port_b: np.ndarray
    mode_b: np.ndarray
    re: np.ndarray
    im: np.ndarray
    prob: np.ndarray  # (2 if both labels match else 1) * |amplitude|**2


@dataclass(frozen=True)
class TwoPhotonState:
    """Photon pair from one photon in each input port.

    `first` and `second` are the one-photon outputs of input ports 1 and 2.
    The pair amplitude of unordered (port, mode) labels {x, y} is
    first_x*second_y + first_y*second_x, or first_x*second_x when x == y: the
    coefficient of a_x^dag a_y^dag.  The bosonic sqrt(2) for doubly occupied
    labels enters at norm/probability computation, so a double occupancy
    contributes 2*|amp|^2 and (b^dag)^2 acting on vacuum has squared norm 2.
    """

    first: TwoPortSpectrum
    second: TwoPortSpectrum

    @cached_property
    def pairs(self) -> PairTable:
        """Nonzero pairs {x, y}, x <= y, in sorted label order, from one array pass.

        Complex products are spelled out in real arithmetic, as Python
        multiplies complex numbers, with a missing entry as 0.0 + 0.0j; numpy's
        complex multiply differs in the last digit, by CPU.  Each amplitude is a
        running sum from 0.0 (a -0.0 product adds as +0.0).  `prob` takes
        Python's float ** on each modulus: numpy's square and power differ from
        it in the last digit.
        """
        first, second = self.first, self.second
        labels = sorted({(p, m) for spec in (first, second) for p in (1, 2) for m in spec.port(p)})
        a = np.array([first.port(p).get(m, 0.0) for p, m in labels], dtype=complex)
        b = np.array([second.port(p).get(m, 0.0) for p, m in labels], dtype=complex)
        x, y = np.triu_indices(len(labels))
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        re = 0.0 + (ar[x] * br[y] - ai[x] * bi[y])
        im = 0.0 + (ar[x] * bi[y] + ai[x] * br[y])
        off = x != y
        np.add(re, ar[y] * br[x] - ai[y] * bi[x], out=re, where=off)
        np.add(im, ar[y] * bi[x] + ai[y] * br[x], out=im, where=off)
        keep = (re != 0.0) | (im != 0.0)
        x, y, re, im, off = x[keep], y[keep], re[keep], im[keep], off[keep]
        squares = np.array([h ** 2 for h in np.hypot(re, im).tolist()])
        ports = np.array([p for p, _m in labels])
        modes = np.array([m for _p, m in labels])
        return PairTable(ports[x], modes[x], ports[y], modes[y], re, im,
                         np.where(off, 1.0, 2.0) * squares)

    @cached_property
    def amps(self) -> dict[PairKey, complex]:
        """Nonzero pair amplitudes, in sorted key order: a dict view of `pairs`."""
        t = self.pairs
        pa, ma, pb, mb = (column.tolist() for column in t[:4])
        label = {x: x for x in zip(pa + pb, ma + mb)}  # keys share one tuple per label
        keys = zip(map(label.get, zip(pa, ma)), map(label.get, zip(pb, mb)))
        return dict(zip(keys, map(complex, t.re.tolist(), t.im.tolist())))

    def norm_sq(self) -> float:
        return _sum_in_order(self.pairs.prob)

    def sector_probabilities(self) -> dict[str, float]:
        """Probabilities of both photons on port 1, one per port, both on 2."""
        t = self.pairs
        return {
            "both_port1": _sum_in_order(t.prob[(t.port_a == 1) & (t.port_b == 1)]),
            "split": _sum_in_order(t.prob[t.port_a != t.port_b]),
            "both_port2": _sum_in_order(t.prob[(t.port_a == 2) & (t.port_b == 2)]),
        }


@dataclass(frozen=True)
class MeanFieldSeries:
    """Classical field reconstruction: phasor table and sampled waveform.

    Each occupied mode contributes the phasor j*xi(omega)*amplitude, with
    xi(omega) = field_scale*sqrt(omega); the real field at time t is
    sum over modes of (phasor * exp(-j omega t) + c.c.).  `values` are
    evaluated as arrays and cross-checked by scalar math in verify check 10.
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
    (w11, w12), (w21, w22) = _port_weights(splitter_coeffs(cfg.splitter_in),
                                           splitter_coeffs(cfg.splitter_out), input_port)
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

    The state is the two one-photon outputs; in their product the amplitude
    for the photons to take different arms of a balanced splitter cancels
    exactly (t_i t'_i + r_i r'_i = 0), the interference that makes it bunch.
    """
    return TwoPhotonState(
        first=single_photon_output(cfg, 1, n0, truncation, model),
        second=single_photon_output(cfg, 2, n0, truncation, model),
    )


def port_entanglement(state: TwoPhotonState) -> np.ndarray:
    """Schmidt coefficients of the port bipartition, cut at the numeric rank.

    Rows of the coefficient matrix index occupation states of port 1, columns
    of port 2.  It is block-diagonal by the photon count on port 1: a column A
    over the 2|0 pairs, a block B (port-1 by port-2 modes) and a row C over
    the 0|2 pairs, all read off a = `state.first` and b = `state.second`
    without the pair table.  With u = [a1 b1] and v = [b2 a2] over each
    port's union of supports, |A|^2 = G00*G11 + |G01|^2 for G = u^H u (C
    mirrors it with v), and B = u v^T has rank <= 2: its singular values are
    those of the core R_u R_v^T of the two QR factors.  Only values above
    sigma_max * max(rows, cols) * eps are returned (numpy's `matrix_rank`
    tolerance, strict), with rows = 2|0 pairs + port-1 modes + 1 if any 0|2
    pair, and cols the mirror; a port with supports Sa and Sb counts
    |Sa|*|Sb| - C(|Sa & Sb|, 2) bunched pairs.  So the BLAS-dependent
    round-off tail never reaches the output and a product state yields one
    value.  For a normalized state the squared values sum to 1.
    """
    u, norm_a, pairs_a = _port_factors(state.first.port1, state.second.port1)
    v, norm_c, pairs_c = _port_factors(state.second.port2, state.first.port2)
    svs = [norm_a, norm_c]
    if len(u) and len(v):
        core = np.linalg.qr(u, mode="r") @ np.linalg.qr(v, mode="r").T
        svs.extend(np.linalg.svd(core, compute_uv=False))
    svs = np.sort(svs)[::-1]
    shape = (pairs_a + len(u) + (pairs_c > 0), (pairs_a > 0) + len(v) + pairs_c)
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
    of phasor*exp(-j omega t) plus conjugate over occupied modes.  It is
    summed one numpy pass per term over all sample times, with the same
    float operations as the scalar 2*Re(phasor*complex(cos, -sin)) that
    verify check 10 recomputes and compares for exact equality.
    """
    amps = spectrum.port(port)
    omegas = {mode: mode_omega(mode, nu, length) for mode in sorted(amps)}
    terms = tuple((mode, omega, 1j * complex(field_scale) * complex(math.sqrt(omega)) * amps[mode])
                  for mode, omega in omegas.items())
    tarr = np.asarray(times, dtype=float)
    values = np.zeros(len(tarr))
    for _mode, omega, phasor in terms:
        phase = omega * tarr
        values += 2.0 * (phasor.real * np.cos(phase) + phasor.imag * np.sin(phase))
    return MeanFieldSeries(times=tuple(tarr.tolist()), values=tuple(values.tolist()), terms=terms)


def _sum_in_order(values, start: float | complex = 0.0) -> float | complex:
    """Sum added left to right from `start`: 0.0 for floats, 0j for complex values.

    The builtin sum() compensates its float rounding from Python 3.12 on, and
    its complex rounding from 3.14, so the printed totals would depend on the
    interpreter; np.sum adds pairwise.
    """
    kind = type(start)
    arr = np.asarray(values, dtype=kind)
    return start + kind(np.add.accumulate(arr)[-1]) if arr.size else start


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
        (_product(into_arm1, co.tp), _product(into_arm2, co.r)),
        (_product(into_arm1, co.rp), _product(into_arm2, co.t)),
    )


def _product(a: complex, b: complex) -> complex:
    """a * b, a real factor promoted to complex(x, 0.0) only beside a complex one.

    That is how Python multiplied up to 3.13; from 3.14 a real scales the
    complex factor's parts instead, which can flip the sign of a zero part.
    """
    if isinstance(a, complex) or isinstance(b, complex):
        return complex(a) * complex(b)
    return a * b


def _accumulate(
    w1: complex, row1: dict[int, complex], w2: complex, row2: dict[int, complex]
) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for w, row in ((complex(w1), row1), (complex(w2), row2)):
        if w != 0.0:
            for mode, amp in row.items():
                out[mode] = out.get(mode, 0j) + w * amp
    return {mode: amp for mode, amp in sorted(out.items()) if amp != 0.0}


def _port_factors(x: dict[int, complex], y: dict[int, complex]) -> tuple[np.ndarray, float, int]:
    """One port's [x y] over the union of modes, and its bunched pairs' norm and count."""
    modes = sorted(x.keys() | y.keys())
    u = np.array([(x.get(m, 0.0), y.get(m, 0.0)) for m in modes], dtype=np.complex128).reshape(-1, 2)
    g = u.conj().T @ u
    pairs = len(x) * len(y) - math.comb(len(x.keys() & y.keys()), 2)
    return u, math.sqrt(g[0, 0].real * g[1, 1].real + abs(g[0, 1]) ** 2), pairs

