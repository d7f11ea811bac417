"""Self-checks covering the library's core guarantees.

Each check exercises one family of invariants (splitter algebra, scattering
unitarity, generator agreement, interference nulls, photon statistics, the
small-signal limit) at a fixed tolerance.  ``run_all`` executes the whole
battery and is what ``eomsim verify`` calls; the acceptance test suite reuses
the individual check functions so the command line and the tests cannot
drift apart.

This module also owns the generator route, the battery's independent
reference: the splitter tables, the phase-modulator rows and the whole
device rebuilt from exponentials of their Hermitian generators, with no
Bessel function and none of the closed-form code.  A splitter's exchange
generator squares to a multiple of the identity, so its exponential has an
exact closed form (``splitter_generator_oracle``).  A modulator row comes
from the exact sine eigenbasis of its carrier's ladder chain
(``pm_generator_oracle``), on a lattice sized by that arm's own retained
window, so the oracle's cost follows the window rather than the other arm's
tone.

Tolerances may be loosened or tightened globally through ``tolerance_scale``;
the shipped defaults are what the package is expected to meet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    EOMConfig,
    TwoPortSpectrum,
    _check_port,
    _sum_in_order,
    coherent_output,
    dsb_settings,
    mean_field,
    port_entanglement,
    preset,
    single_photon_output,
    ssb_settings,
    two_photon_output,
)
from .lattice import decompose_mode, mode_omega
from .phase_mod import (
    MultitonePMConfig,
    PMConfig,
    ToneDrive,
    Truncation,
    pm_multitone_row,
    pm_scatter_row,
    retained_halfwidth,
)
from .splitters import SplitterCoeffs, SplitterSpec, splitter_coeffs


def splitter_generator_oracle(spec: SplitterSpec) -> np.ndarray:
    """Coefficient table built from the exchange-generator exponential.

    Independent route to the same 2x2 table: exponentiate the one-photon
    exchange generator G = (theta/2) P, with P = [[0, 1], [1, 0]] for the bulk
    splitter and directional coupler (theta = 2*atan2(sqrt(k), sqrt(1-k)) for
    the coupler, accurate as k approaches 1) and P = [[0, -j], [j, 0]] for the
    Y-branch.  P^2 = I, so exp(jG) = cos(theta/2) I + j sin(theta/2) P exactly,
    with no division by theta (k = 0 is on check 1's grid).  G is written in
    the row-per-input convention of :meth:`SplitterCoeffs.as_matrix` (the
    adjoint action on creation operators, i.e. the transpose of the
    one-photon-subspace matrix), which only the Y-branch can tell apart.  For
    the bulk splitter theta is spec.theta_split, so the trig values are the
    ones splitter_coeffs computes: there this route checks the convention
    (entry positions and the placement of j), not the values.
    """
    if spec.kind == "bulk":
        theta = spec.theta_split
    else:
        theta = 2.0 * math.atan2(math.sqrt(spec.k), math.sqrt(1.0 - spec.k))
    exchange = np.array([[0.0, -1j], [1j, 0.0]] if spec.kind == "yb" else [[0.0, 1.0], [1.0, 0.0]])
    mat = math.cos(0.5 * theta) * np.eye(2) + math.sin(0.5 * theta) * (1j * exchange)
    return mat.T.copy() if spec.reverse else mat


def pm_generator_oracle(cfg: PMConfig, n0: int, n_max: int) -> dict[int, complex]:
    """Row n0 of the one-photon scattering matrix on the lattice 1..n_max.

    The lattice hopping generator has bias phi_b on the diagonal and hopping
    chi = exp(j theta_rf) m / 2 from mode n to n + N, so it couples n0 only
    to its chain n0 + kN (integer k, 1 <= mode <= n_max): L modes, indexed
    k = 0..L-1 from the lattice wall, on which G is tridiagonal.  The
    similarity D = diag(exp(j k theta_rf)) takes G to phi_b I + (m/2) A_L,
    with A_L the adjacency matrix of the path of L nodes, whose eigenpairs
    are exact: eigenvalue 2 cos(a_p), a_p = pi p / (L + 1), eigenvector
    v_p[k] = sqrt(2 / (L + 1)) sin((k + 1) a_p), p = 1..L (the finite case of
    Strang & MacNamara, SIAM Rev. 56, 2014).  Hence, with k0 the carrier's
    index,

        exp(jG)[k0, k] = exp(j phi_b) exp(j (k - k0) theta_rf)
                         * sum_p v_p[k0] v_p[k] exp(j m cos a_p),

    one O(L^2) pass with no eigendecomposition and only the carrier's row
    formed.  The sines come from one table of sin(pi t / (L + 1)), indexed
    by (k + 1) p mod 2(L + 1), so every argument is reduced exactly.  The
    result is {mode: amplitude} over the chain, matching pm_scatter_row away
    from the top truncation edge.  This route never touches a Bessel
    function.
    """
    if not 1 <= n0 <= n_max:
        raise ValueError(f"lattice of {n_max} modes cannot hold carrier {n0}")
    modes = range((n0 - 1) % cfg.tone + 1, n_max + 1, cfg.tone)
    size = len(modes)
    k0 = modes.index(n0)
    ks = np.arange(1, size + 1)
    sines = np.sin(np.pi / (size + 1) * np.arange(2 * size + 2))
    basis = sines[np.outer(ks, ks) % (2 * size + 2)]  # basis[k, p - 1] = sin((k + 1) a_p)
    weights = basis[k0] * np.exp(1j * cfg.m * np.cos(np.pi / (size + 1) * ks)) * (2.0 / (size + 1))
    row = (basis @ weights) * np.exp(1j * (cfg.phi_b + (ks - 1 - k0) * cfg.theta_rf))
    return dict(zip(modes, row.tolist()))


def composition_oracle(cfg: EOMConfig, input_port: int, n0: int) -> TwoPortSpectrum:
    """Brute-force reference: raw matrix product of the three stages.

    Applies the input splitter table, the arm generator exponentials and the
    output table to the basis vector of (port, n0).  Each driven arm
    exponentiates its own chain lattice 1..max(n0 + 8, (q0 + hw + 12) N),
    with that arm's carrier rung q0, retained half-width hw and tone N, so
    every arm keeps hw + 12 rungs past its carrier and none exponentiates
    modes that only the other arm reaches.  Modes beyond an arm's lattice
    count as zero in that arm.  No amplitude comes from the closed-form path
    beyond the splitter tables themselves: the lattice size reads the
    closed form's ``retained_halfwidth``, but only to size the lattice.
    Disagreement beyond truncation error means the closed forms are wrong.
    """
    _check_port(input_port)
    arms = (cfg.pm1, cfg.pm2)
    if any(isinstance(arm, MultitonePMConfig) for arm in arms):
        raise ValueError("composition oracle requires exact single-tone or undriven arms")
    rows = [{n0: 1.0 + 0.0j} if arm is None else pm_generator_oracle(arm, n0, _arm_lattice(arm, n0))
            for arm in arms]
    modes = sorted(rows[0].keys() | rows[1].keys())
    arm_vecs = np.array([[row.get(n, 0.0) for n in modes] for row in rows], dtype=np.complex128)
    mat_in = splitter_coeffs(cfg.splitter_in).as_matrix()
    mat_out = splitter_coeffs(cfg.splitter_out).as_matrix()
    port_vecs = mat_out.T @ (mat_in[input_port - 1, :, None] * arm_vecs)
    port1, port2 = (
        {n: complex(a) for n, a in zip(modes, vec) if a != 0.0} for vec in port_vecs
    )
    return TwoPortSpectrum(port1=port1, port2=port2)


def _arm_lattice(arm: PMConfig, n0: int) -> int:
    dec = decompose_mode(n0, arm.tone)
    hw = retained_halfwidth(arm.m, Truncation())
    return max(n0 + 8, (dec.q0 + hw + 12) * arm.tone)


def _spectrum_defects(got: dict[int, complex], want: dict[int, complex]) -> list[float]:
    """|got - want| on every mode either spectrum holds, a missing mode reading 0."""
    return [abs(got.get(mode, 0.0) - want.get(mode, 0.0)) for mode in got.keys() | want.keys()]


def _reciprocity_defect(c: SplitterCoeffs) -> float:
    """Worst of the two unit-row defects and the cross relation |conj(r) t' + r' conj(t)|.

    The max propagates NaN, so a NaN coefficient reads as a NaN defect.
    """
    return float(np.max([
        abs(abs(c.tp) ** 2 + abs(c.rp) ** 2 - 1.0),
        abs(abs(c.t) ** 2 + abs(c.r) ** 2 - 1.0),
        abs(c.r.conjugate() * c.tp + c.rp * c.t.conjugate()),
    ]))


@dataclass(frozen=True)
class Margin:
    """One measure of a check: its worst defect and the tolerance it must meet."""

    label: str
    worst: float
    tolerance: float


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    margins: tuple[Margin, ...]


def _result(index: int, name: str, measures, note: str = "") -> CheckResult:
    """One check's verdict from its measures, each (label, defects, tol).

    A measure's worst is the largest of its defects (0.0 when there are
    none).  The max propagates NaN, so a NaN defect is the worst and fails.
    The check passes when every worst is within its tolerance.  `margins`
    carries each worst and tolerance as numbers; `detail` prints them to
    four digits.
    """
    margins = tuple(
        Margin(label, float(np.max(np.asarray(defects, dtype=float), initial=0.0)), float(tol))
        for label, defects, tol in measures
    )
    parts = [f"{m.label} {m.worst:.3e} (tol {m.tolerance:.3e})" for m in margins]
    if note:
        parts.append(note)
    return CheckResult(index=index, name=name, passed=all(m.worst <= m.tolerance for m in margins),
                       detail="; ".join(parts), margins=margins)


def check_splitter_laws(scale: float = 1.0) -> CheckResult:
    """Energy conservation and reciprocity for every splitter table."""
    law_tol = 1e-14 * scale
    cases = [
        (spec, k)
        for k in (i / 10.0 for i in range(11))
        for spec in (
            SplitterSpec(kind="bulk", theta_split=2.0 * math.asin(math.sqrt(k))),
            SplitterSpec(kind="dc", k=k),
            SplitterSpec(kind="yb", k=k),
            SplitterSpec(kind="yb", k=k, reverse=True),
        )
    ]
    tables = [(spec, splitter_coeffs(spec)) for spec, _k in cases]
    laws = [_reciprocity_defect(coeffs) for _spec, coeffs in tables]
    mismatches = [np.max(np.abs(splitter_generator_oracle(spec) - coeffs.as_matrix()))
                  for spec, coeffs in tables]
    broken = [f"reciprocity broken at kind={spec.kind} k={k}"
              for (spec, k), defect in zip(cases, laws) if not defect <= law_tol]
    return _result(1, "splitter_laws", [("reciprocity defect", laws, law_tol),
                                        ("generator mismatch", mismatches, 1e-12 * scale)],
                   note=broken[0] if broken else "")


def check_scatter_unitarity(scale: float = 1.0) -> CheckResult:
    """Row norms and cross-row orthogonality of the scattering coefficients."""
    norms = []
    inners = []
    for m, tone, q0 in itertools.product((0.5, 1.0, 2.0), (1, 3, 7), (20, 40)):
        n0 = q0 * tone
        cfg = PMConfig(phi_b=0.3, m=m, theta_rf=0.7, tone=tone)
        row_a = pm_scatter_row(n0, cfg)
        row_b = pm_scatter_row(n0 + tone, cfg)
        norms.append(abs(_sum_in_order([abs(v) ** 2 for v in row_a.values()]) - 1.0))
        products = [v * row_b[k].conjugate() for k, v in row_a.items() if k in row_b]
        inners.append(abs(_sum_in_order(products, 0j)))
    return _result(2, "scatter_unitarity", [("norm defect", norms, 1e-10 * scale),
                                            ("orthogonality", inners, 1e-8 * scale)])


def check_generator_agreement(scale: float = 1.0) -> CheckResult:
    """Closed-form coefficients against matrix exponential of the generator."""
    diffs = []
    # the last case sits two rungs above the wall, where the image term counts
    for m, tone, n0, n_max in ((1.0, 3, 30, 120), (2.0, 1, 25, 60), (0.7, 5, 60, 160), (2.0, 2, 3, 80)):
        cfg = PMConfig(phi_b=0.4, m=m, theta_rf=1.1, tone=tone)
        oracle = pm_generator_oracle(cfg, n0, n_max)
        dec = decompose_mode(n0, tone)
        row = pm_scatter_row(n0, cfg)
        for q in range(max(1, dec.q0 - 10), dec.q0 + 11):
            n = q * tone - dec.r0
            diffs.append(abs(oracle[n] - row.get(n, 0.0)))
    return _result(3, "generator_agreement", [("generator mismatch", diffs, 1e-8 * scale)])


def check_optical_limit(scale: float = 1.0) -> CheckResult:
    """High-order carriers make the image contribution negligible."""
    diffs = []
    for q0, m, tone in itertools.product((20, 25, 40), (0.5, 1.0, 2.0), (1, 3)):
        cfg = PMConfig(phi_b=0.2, m=m, theta_rf=0.9, tone=tone)
        exact = pm_scatter_row(q0 * tone, cfg, model="exact")
        optical = pm_scatter_row(q0 * tone, cfg, model="optical")
        diffs += _spectrum_defects(exact, optical)
    return _result(4, "optical_limit", [("exact vs optical", diffs, 1e-15 * scale)])


def check_dsb_suppression(scale: float = 1.0) -> CheckResult:
    """Opposite-quadrature biasing separates even and odd orders by port."""
    n0, tone = 100, 3
    dec = decompose_mode(n0, tone)
    leaks = []
    for m in (0.1, 0.5, 1.0):
        pm1, pm2 = dsb_settings(m, tone)
        cfg = preset("yb_dual", pm1=pm1, pm2=pm2)
        out = single_photon_output(cfg, 1, n0, model="optical")
        # odd orders belong on port 1 and even orders on port 2
        for parity, amps in ((1, out.port1), (0, out.port2)):
            leaks += [abs(amp) for mode, amp in amps.items()
                      if ((mode + dec.r0) // tone - dec.q0) % 2 != parity]
    return _result(5, "dsb_suppression", [("wrong-parity amplitude", leaks, 1e-14 * scale)])


def check_ssb_cancellation(scale: float = 1.0) -> CheckResult:
    """Quadrature RF offsets null one first-order sideband per sign."""
    n0, tone = 100, 3
    residues = []
    for m, cancel in itertools.product((0.3, 0.5, 1.5), ("lower", "upper")):
        pm1, pm2 = ssb_settings(m, tone, cancel)
        out = single_photon_output(preset("yb_dual", pm1=pm1, pm2=pm2), 1, n0, model="optical")
        target = n0 - tone if cancel == "lower" else n0 + tone
        residues.append(abs(out.port1.get(target, 0.0)))
    return _result(6, "ssb_cancellation", [("cancelled sideband", residues, 1e-14 * scale)])


def closure_trials():
    """The 50 seeded random devices of check 7, as (cfg, input_port, n0)."""
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        tone1 = int(rng.choice([1, 1, 2, 2, 3, 3, 5, 7]))
        tone2 = tone1 if rng.random() < 0.7 else int(rng.choice([1, 2, 3, 5, 7]))
        q0 = int(rng.integers(8, 21))
        r0 = int(rng.integers(0, tone1))
        n0 = max(1, q0 * tone1 - r0)

        def rand_spec() -> SplitterSpec:
            kind = ["bulk", "dc", "yb"][int(rng.integers(0, 3))]
            if kind == "bulk":
                return SplitterSpec(kind="bulk", theta_split=float(rng.uniform(0.0, math.pi)))
            return SplitterSpec(kind=kind, k=float(rng.uniform(0.0, 1.0)),
                                reverse=bool(rng.random() < 0.3))

        def rand_arm(tone: int):
            if rng.random() < 0.1:
                return None
            return PMConfig(
                phi_b=float(rng.uniform(-math.pi, math.pi)),
                m=float(rng.uniform(0.0, 2.0)),
                theta_rf=float(rng.uniform(-math.pi, math.pi)),
                tone=tone,
            )

        cfg = EOMConfig(splitter_in=rand_spec(), splitter_out=rand_spec(),
                        pm1=rand_arm(tone1), pm2=rand_arm(tone2))
        yield cfg, int(rng.integers(1, 3)), n0


def check_randomized_closure(scale: float = 1.0) -> CheckResult:
    """Random devices conserve probability and match the matrix-product oracle."""
    tol = 1e-8 * scale
    norms = []
    diffs = []
    for cfg, port, n0 in closure_trials():
        out = single_photon_output(cfg, port, n0)
        norms.append(abs(out.total_power() - 1.0))
        oracle = composition_oracle(cfg, port, n0)
        for port in (1, 2):
            diffs += _spectrum_defects(out.port(port), oracle.port(port))
    return _result(7, "randomized_closure", [("norm defect", norms, tol),
                                             ("oracle mismatch", diffs, tol)],
                   note="50 seeded trials")


def check_coherent_scaling(scale: float = 1.0) -> CheckResult:
    """Coherent amplitudes are the single-photon ones scaled by alpha."""
    amps = []
    powers = []
    cases = [
        ("yb_dual", 0.8, 2, 40, 0.7 + 0.2j),
        ("dc_dual", 1.5, 3, 90, 1.3 - 0.4j),
        ("hybrid_single", 0.5, 1, 25, -0.9j),
    ]
    for name, m, tone, n0, alpha in cases:
        pm1, pm2 = dsb_settings(m, tone)
        if name.endswith("_single"):
            cfg = preset(name, pm1=pm1)
        else:
            cfg = preset(name, pm1=pm1, pm2=pm2)
        scaled = single_photon_output(cfg, 1, n0).scaled(alpha)
        coh = coherent_output(cfg, 1, n0, alpha)
        for port in (1, 2):
            amps += _spectrum_defects(coh.port(port), scaled.port(port))
        powers.append(abs(coh.total_power() - abs(alpha) ** 2))
    return _result(8, "coherent_scaling", [("amplitude defect", amps, 1e-14 * scale),
                                           ("power defect", powers, 1e-10 * scale)])


def check_two_photon(scale: float = 1.0) -> CheckResult:
    """Pair interference: nulls, norms, and the bias-controlled statistics."""
    norm_tol = 1e-10 * scale
    null_tol = 1e-14 * scale
    n0, tone, m = 60, 2, 0.4

    crosses = []
    for name in ("yb_dual", "dc_dual", "hybrid_dual"):
        coeffs = splitter_coeffs(preset(name).splitter_in)
        crosses.append(abs(coeffs.t * coeffs.tp + coeffs.r * coeffs.rp))

    norms = []
    weights = []
    probs = []
    second_svs = []
    coalesced = []
    for dphi in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
        pm1 = PMConfig(phi_b=dphi, m=m, theta_rf=0.0, tone=tone)
        pm2 = PMConfig(phi_b=0.0, m=m, theta_rf=0.0, tone=tone)
        cfg = preset("dc_dual", pm1=pm1, pm2=pm2)
        state = two_photon_output(cfg, n0)
        norms.append(abs(state.norm_sq() - 1.0))
        probs.append(abs(state.sector_probabilities()["split"] - math.cos(dphi) ** 2))
        # the spectrum comes from the one-photon outputs, the norm from the pair table
        svs = port_entanglement(state)
        weights.append(abs(float(np.sum(svs**2)) - state.norm_sq()))
        if dphi == 0.0:
            second_svs += list(svs[1:2])
        if dphi == math.pi / 2:
            pairs = state.pairs
            coalesced += np.hypot(pairs.re, pairs.im)[pairs.port_a != pairs.port_b].tolist()

    # With a balanced input the one-in-each-arm term cancels, so both photons
    # ride the same arm's ladder.  Distinct RF tones make those ladders
    # distinguishable: every surviving pair must sit entirely on one of them.
    cfg = preset("dc_dual",
                 pm1=PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=2),
                 pm2=PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=5))
    pairs = two_photon_output(cfg, 60).pairs
    offsets_a, offsets_b = pairs.mode_a - 60, pairs.mode_b - 60
    on_ladder = ((offsets_a % 2 == 0) & (offsets_b % 2 == 0)) | ((offsets_a % 5 == 0) & (offsets_b % 5 == 0))
    stray = np.hypot(pairs.re, pairs.im)[~on_ladder]

    return _result(9, "two_photon", [
        ("balanced input cross-term", crosses, 0.0),
        ("norm defect", norms, norm_tol),
        ("Schmidt weight vs norm", weights, norm_tol),
        ("split-probability defect", probs, 1e-10 * scale),
        ("matched-pair second Schmidt coefficient", second_svs, 1e-12 * scale),
        ("coalescence split amplitude", coalesced, null_tol),
        ("stray off-ladder amplitude", stray, null_tol),
    ])


def check_small_signal(scale: float = 1.0) -> CheckResult:
    """First-order rows track the exact model at small depth; phasors are exact."""
    n0, tone, m = 200, 3, 1e-3
    phi_b = 0.6
    approx = pm_multitone_row(n0, MultitonePMConfig(
        phi_b=phi_b, tones=(ToneDrive(m=m, theta_rf=0.4, tone=tone),),
        convention="full",
    ))
    exact = pm_scatter_row(n0, PMConfig(phi_b=phi_b, m=2.0 * m, theta_rf=0.4, tone=tone))
    rels = [abs(approx.get(mode, 0.0) - exact.get(mode, 0.0)) / abs(exact.get(mode, 0.0))
            for mode in (n0 - tone, n0, n0 + tone)]

    cfg = preset("yb_dual",
                 pm1=PMConfig(phi_b=0.2, m=0.3, theta_rf=0.1, tone=2),
                 pm2=PMConfig(phi_b=-0.4, m=0.3, theta_rf=0.9, tone=2))
    out = coherent_output(cfg, 1, 50, 1.2 + 0.3j)
    series = mean_field(out, 1, times=tuple(k / 64 for k in range(65)), field_scale=0.7)
    phasors = [abs(phasor - 1j * complex(0.7) * complex(math.sqrt(mode_omega(mode))) * out.port1[mode])
               for mode, _omega, phasor in series.terms]
    fields = [abs(_sum_in_order([2.0 * (ph * complex(math.cos(om * t), -math.sin(om * t))).real
                                 for _n, om, ph in series.terms]) - value)
              for t, value in zip(series.times, series.values)]

    return _result(10, "small_signal", [("relative defect", rels, 1e-5 * scale),
                                        ("phasor identity defect", phasors, 0.0),
                                        ("field reconstruction defect", fields, 0.0)])


CHECKS = (
    check_splitter_laws,
    check_scatter_unitarity,
    check_generator_agreement,
    check_optical_limit,
    check_dsb_suppression,
    check_ssb_cancellation,
    check_randomized_closure,
    check_coherent_scaling,
    check_two_photon,
    check_small_signal,
)


def run_all(scale: float = 1.0) -> list[CheckResult]:
    """Run every check and return the results in order."""
    return [check(scale) for check in CHECKS]
