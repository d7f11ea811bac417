"""Self-checks covering the library's core guarantees.

Each check exercises one family of invariants (splitter algebra, scattering
unitarity, generator agreement, interference nulls, photon statistics, the
small-signal limit) at a fixed tolerance.  ``run_all`` executes the whole
battery and is what ``eomsim verify`` calls; the acceptance test suite reuses
the individual check functions so the command line and the tests cannot
drift apart.

Tolerances may be loosened or tightened globally through ``tolerance_scale``;
the shipped defaults are what the package is expected to meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    EOMConfig,
    coherent_output,
    composition_oracle,
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
    pm_generator_oracle,
    pm_multitone_row,
    pm_scatter_row,
)
from .splitters import (
    SplitterSpec,
    splitter_coeffs,
    splitter_generator_oracle,
    verify_reciprocity,
)


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str


def _result(index: int, name: str, worst: float, tol: float, extra: str = "") -> CheckResult:
    worst = float(worst)
    detail = f"worst defect {worst:.3e}; tolerance {tol:.3e}"
    if extra:
        detail += f"; {extra}"
    return CheckResult(index=index, name=name, passed=worst <= tol, detail=detail)


def check_splitter_laws(scale: float = 1.0) -> CheckResult:
    """Energy conservation and reciprocity for every splitter table."""
    law_tol = 1e-14 * scale
    oracle_tol = 1e-12 * scale
    worst = 0.0
    for i in range(11):
        k = i / 10.0
        specs = [
            SplitterSpec(kind="bulk", theta_split=2.0 * math.asin(math.sqrt(k))),
            SplitterSpec(kind="dc", k=k),
            SplitterSpec(kind="yb", k=k),
            SplitterSpec(kind="yb", k=k, reverse=True),
        ]
        for spec in specs:
            coeffs = splitter_coeffs(spec)
            report = verify_reciprocity(coeffs, tol=law_tol)
            worst = max(worst, report.row_in_defect, report.row_out_defect, report.cross_defect)
            if not report.passed:
                return _result(1, "splitter_laws", worst, law_tol,
                               extra=f"violations {report.violations} at kind={spec.kind} k={k}")
            gen_mat = splitter_generator_oracle(spec)
            table = coeffs.as_matrix()
            diff = float(np.max(np.abs(gen_mat - table)))
            if diff > oracle_tol:
                return CheckResult(1, "splitter_laws", False,
                                   f"generator oracle mismatch {diff:.3e} > {oracle_tol:.3e} "
                                   f"at kind={spec.kind} k={k}")
    return _result(1, "splitter_laws", worst, law_tol)


def check_scatter_unitarity(scale: float = 1.0) -> CheckResult:
    """Row norms and cross-row orthogonality of the scattering coefficients."""
    norm_tol = 1e-10 * scale
    ortho_tol = 1e-8 * scale
    worst_norm = 0.0
    worst_ortho = 0.0
    for m in (0.5, 1.0, 2.0):
        for tone in (1, 3, 7):
            for q0 in (20, 40):
                n0 = q0 * tone
                cfg = PMConfig(phi_b=0.3, m=m, theta_rf=0.7, tone=tone)
                row_a = pm_scatter_row(n0, cfg)
                row_b = pm_scatter_row(n0 + tone, cfg)
                norm = sum(abs(v) ** 2 for v in row_a.values())
                worst_norm = max(worst_norm, abs(norm - 1.0))
                inner = sum(v * row_b[k].conjugate() for k, v in row_a.items() if k in row_b)
                worst_ortho = max(worst_ortho, abs(inner))
    passed = worst_norm <= norm_tol and worst_ortho <= ortho_tol
    detail = (f"worst norm defect {worst_norm:.3e} (tol {norm_tol:.3e}); "
              f"worst orthogonality {worst_ortho:.3e} (tol {ortho_tol:.3e})")
    return CheckResult(2, "scatter_unitarity", passed, detail)


def check_generator_agreement(scale: float = 1.0) -> CheckResult:
    """Closed-form coefficients against matrix exponential of the generator."""
    tol = 1e-8 * scale
    cases = [
        (1.0, 3, 30, 120),
        (2.0, 1, 25, 60),
        (0.7, 5, 60, 160),
    ]
    worst = 0.0
    for m, tone, n0, n_max in cases:
        cfg = PMConfig(phi_b=0.4, m=m, theta_rf=1.1, tone=tone)
        mat = pm_generator_oracle(cfg, n_max)
        dec = decompose_mode(n0, tone)
        row = pm_scatter_row(n0, cfg)
        for q in range(max(1, dec.q0 - 10), dec.q0 + 11):
            n = q * tone - dec.r0
            worst = max(worst, abs(mat[n0 - 1, n - 1] - row.get(n, 0.0)))
    return _result(3, "generator_agreement", worst, tol)


def check_optical_limit(scale: float = 1.0) -> CheckResult:
    """High-order carriers make the image contribution negligible."""
    tol = 1e-15 * scale
    worst = 0.0
    for q0 in (20, 25, 40):
        for m in (0.5, 1.0, 2.0):
            for tone in (1, 3):
                n0 = q0 * tone
                cfg = PMConfig(phi_b=0.2, m=m, theta_rf=0.9, tone=tone)
                exact = pm_scatter_row(n0, cfg, model="exact")
                optical = pm_scatter_row(n0, cfg, model="optical")
                for mode in set(exact) | set(optical):
                    diff = abs(exact.get(mode, 0.0) - optical.get(mode, 0.0))
                    worst = max(worst, diff)
    return _result(4, "optical_limit", worst, tol)


def check_dsb_suppression(scale: float = 1.0) -> CheckResult:
    """Opposite-quadrature biasing separates even and odd orders by port."""
    tol = 1e-14 * scale
    n0, tone = 100, 3
    dec = decompose_mode(n0, tone)
    worst = 0.0
    for m in (0.1, 0.5, 1.0):
        pm1, pm2 = dsb_settings(m, tone)
        cfg = preset("yb_dual", pm1=pm1, pm2=pm2)
        out = single_photon_output(cfg, 1, n0, model="optical")
        for mode, amp in out.port1.items():
            order = (mode + dec.r0) // tone - dec.q0
            if order % 2 == 0:
                worst = max(worst, abs(amp))
        for mode, amp in out.port2.items():
            order = (mode + dec.r0) // tone - dec.q0
            if order % 2 != 0:
                worst = max(worst, abs(amp))
    return _result(5, "dsb_suppression", worst, tol)


def check_ssb_cancellation(scale: float = 1.0) -> CheckResult:
    """Quadrature RF offsets null one first-order sideband per sign."""
    tol = 1e-14 * scale
    n0, tone = 100, 3
    worst = 0.0
    for m in (0.3, 0.5, 1.5):
        for cancel in ("lower", "upper"):
            pm1, pm2 = ssb_settings(m, tone, cancel)
            cfg = preset("yb_dual", pm1=pm1, pm2=pm2)
            out = single_photon_output(cfg, 1, n0, model="optical")
            target = n0 - tone if cancel == "lower" else n0 + tone
            worst = max(worst, abs(out.port1.get(target, 0.0)))
    return _result(6, "ssb_cancellation", worst, tol)


def check_randomized_closure(scale: float = 1.0) -> CheckResult:
    """Random devices conserve probability and match the matrix-product oracle."""
    tol = 1e-8 * scale
    rng = np.random.default_rng(20240817)
    worst_norm = 0.0
    worst_diff = 0.0
    for trial in range(50):
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
        port = int(rng.integers(1, 3))
        out = single_photon_output(cfg, port, n0)
        worst_norm = max(worst_norm, abs(out.total_power() - 1.0))
        oracle = composition_oracle(cfg, port, n0)
        for got, want in ((out.port1, oracle.port1), (out.port2, oracle.port2)):
            for mode in set(got) | set(want):
                worst_diff = max(worst_diff, abs(got.get(mode, 0.0) - want.get(mode, 0.0)))
    passed = worst_norm <= tol and worst_diff <= tol
    detail = (f"worst norm defect {worst_norm:.3e}; worst oracle mismatch "
              f"{worst_diff:.3e}; tolerance {tol:.3e}; 50 seeded trials")
    return CheckResult(7, "randomized_closure", passed, detail)


def check_coherent_scaling(scale: float = 1.0) -> CheckResult:
    """Coherent amplitudes are the single-photon ones scaled by alpha."""
    amp_tol = 1e-14 * scale
    pow_tol = 1e-10 * scale
    worst_amp = 0.0
    worst_pow = 0.0
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
        single = single_photon_output(cfg, 1, n0)
        coh = coherent_output(cfg, 1, n0, alpha)
        for got, base in ((coh.port1, single.port1), (coh.port2, single.port2)):
            for mode in set(got) | set(base):
                want = alpha * base.get(mode, 0.0)
                worst_amp = max(worst_amp, abs(got.get(mode, 0.0) - want))
        worst_pow = max(worst_pow, abs(coh.total_power() - abs(alpha) ** 2))
    passed = worst_amp <= amp_tol and worst_pow <= pow_tol
    detail = (f"worst amplitude defect {worst_amp:.3e} (tol {amp_tol:.3e}); "
              f"worst power defect {worst_pow:.3e} (tol {pow_tol:.3e})")
    return CheckResult(8, "coherent_scaling", passed, detail)


def check_two_photon(scale: float = 1.0) -> CheckResult:
    """Pair interference: nulls, norms, and the bias-controlled statistics."""
    norm_tol = 1e-10 * scale
    prob_tol = 1e-10 * scale
    sv_tol = 1e-12 * scale
    null_tol = 1e-14 * scale
    n0, tone, m = 60, 2, 0.4

    for name in ("yb_dual", "dc_dual", "hybrid_dual"):
        coeffs = splitter_coeffs(preset(name).splitter_in)
        cross = coeffs.t * coeffs.tp + coeffs.r * coeffs.rp
        if cross != 0.0:
            return CheckResult(9, "two_photon", False,
                               f"balanced input cross-term {cross!r} is not exactly zero ({name})")

    worst_norm = 0.0
    worst_prob = 0.0
    for dphi in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
        pm1 = PMConfig(phi_b=dphi, m=m, theta_rf=0.0, tone=tone)
        pm2 = PMConfig(phi_b=0.0, m=m, theta_rf=0.0, tone=tone)
        cfg = preset("dc_dual", pm1=pm1, pm2=pm2)
        state = two_photon_output(cfg, n0)
        worst_norm = max(worst_norm, abs(state.norm_sq() - 1.0))
        sectors = state.sector_probabilities()
        worst_prob = max(worst_prob, abs(sectors["split"] - math.cos(dphi) ** 2))
        if dphi == 0.0:
            svs = port_entanglement(state)
            if len(svs) > 1 and svs[1] > sv_tol:
                return CheckResult(9, "two_photon", False,
                                   f"second Schmidt coefficient {svs[1]:.3e} > {sv_tol:.3e} "
                                   "for a matched pair")
        if dphi == math.pi / 2:
            worst_split = max(
                (abs(a) for ((p1, _m1), (p2, _m2)), a in state.amps.items() if p1 != p2),
                default=0.0,
            )
            if worst_split > null_tol:
                return CheckResult(9, "two_photon", False,
                                   f"split amplitude {worst_split:.3e} survives the "
                                   f"coalescence point (tol {null_tol:.3e})")

    # With a balanced input the one-in-each-arm term cancels, so both photons
    # ride the same arm's ladder.  Distinct RF tones make those ladders
    # distinguishable: every surviving pair must sit entirely on one of them.
    cfg = preset("dc_dual",
                 pm1=PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=2),
                 pm2=PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=5))
    state = two_photon_output(cfg, 60)
    stray = 0.0
    for ((_p1, m1), (_p2, m2)), amp in state.amps.items():
        both_arm1 = (m1 - 60) % 2 == 0 and (m2 - 60) % 2 == 0
        both_arm2 = (m1 - 60) % 5 == 0 and (m2 - 60) % 5 == 0
        if not (both_arm1 or both_arm2):
            stray = max(stray, abs(amp))

    passed = worst_norm <= norm_tol and worst_prob <= prob_tol and stray <= null_tol
    detail = (f"worst norm defect {worst_norm:.3e} (tol {norm_tol:.3e}); "
              f"worst split-probability defect {worst_prob:.3e} (tol {prob_tol:.3e}); "
              f"stray off-ladder amplitude {stray:.3e}")
    return CheckResult(9, "two_photon", passed, detail)


def check_small_signal(scale: float = 1.0) -> CheckResult:
    """First-order rows track the exact model at small depth; phasors are exact."""
    rel_tol = 1e-5 * scale
    n0, tone, m = 200, 3, 1e-3
    phi_b = 0.6
    approx = pm_multitone_row(n0, MultitonePMConfig(
        phi_b=phi_b, tones=(ToneDrive(m=m, theta_rf=0.4, tone=tone),),
        convention="full",
    ))
    exact = pm_scatter_row(n0, PMConfig(phi_b=phi_b, m=2.0 * m, theta_rf=0.4, tone=tone))
    worst_rel = 0.0
    for mode in (n0 - tone, n0, n0 + tone):
        want = exact.get(mode, 0.0)
        got = approx.get(mode, 0.0)
        worst_rel = max(worst_rel, abs(got - want) / abs(want))

    cfg = preset("yb_dual",
                 pm1=PMConfig(phi_b=0.2, m=0.3, theta_rf=0.1, tone=2),
                 pm2=PMConfig(phi_b=-0.4, m=0.3, theta_rf=0.9, tone=2))
    out = coherent_output(cfg, 1, 50, 1.2 + 0.3j)
    series = mean_field(out, 1, times=(0.0, 0.5, 1.0), field_scale=0.7)
    phasor_exact = all(
        phasor == 1j * 0.7 * math.sqrt(mode_omega(mode)) * out.port1[mode]
        for mode, _omega, phasor in series.terms
    )
    recomputed = [
        sum(2.0 * (ph * complex(math.cos(om * t), -math.sin(om * t))).real
            for _n, om, ph in series.terms)
        for t in series.times
    ]
    field_exact = all(a == b for a, b in zip(recomputed, series.values))

    passed = worst_rel <= rel_tol and phasor_exact and field_exact
    detail = (f"worst relative defect {worst_rel:.3e} (tol {rel_tol:.3e}); "
              f"phasor identity {'exact' if phasor_exact else 'BROKEN'}; "
              f"field reconstruction {'exact' if field_exact else 'BROKEN'}")
    return CheckResult(10, "small_signal", passed, detail)


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
