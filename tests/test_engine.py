import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eomsim.engine import (
    EOMConfig,
    PRESETS,
    SampleGrid,
    _sum_in_order,
    coherent_output,
    dsb_settings,
    mean_field,
    preset,
    single_photon_output,
    ssb_settings,
)
from eomsim.lattice import decompose_mode, mode_omega
from eomsim.phase_mod import PMConfig, pm_scatter_row
from eomsim.splitters import SplitterSpec
from eomsim import verify
from eomsim.verify import closure_trials, composition_oracle
from oracles import composition_full, shared_lattice, single_drive_output, sum_left


def _order(mode, n0, tone):
    q0, r0 = decompose_mode(n0, tone)
    return (mode + r0) // tone - q0


def test_preset_names():
    for name in PRESETS:
        cfg = preset(name)
        assert cfg.pm1 is None and cfg.pm2 is None
    with pytest.raises(ValueError):
        preset("ring_dual")


def test_single_presets_reject_second_arm():
    pm = PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=1)
    with pytest.raises(ValueError):
        preset("yb_single", pm1=pm, pm2=pm)
    cfg = preset("yb_single", pm1=pm)
    assert cfg.pm2 is None


def test_undriven_balanced_device_is_transparent():
    out = single_photon_output(preset("yb_dual"), 1, 42)
    assert set(out.port1) == {42}
    assert out.port1[42] == pytest.approx(1.0, abs=1e-14)
    # the cross port cancels with identical float products, hence exactly
    assert out.port2 == {}


def test_quadrature_biased_carrier_routes_to_port2():
    pm1 = PMConfig(phi_b=math.pi / 2, m=0.0, theta_rf=0.0, tone=1)
    pm2 = PMConfig(phi_b=-math.pi / 2, m=0.0, theta_rf=0.0, tone=1)
    out = single_photon_output(preset("yb_dual", pm1=pm1, pm2=pm2), 1, 42)
    # opposite quarter-turn biases cancel the carrier exactly on port 1
    assert out.port1 == {}
    assert abs(out.port2[42]) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [0.1, 0.5, 1.0])
def test_dsb_sorts_orders_by_parity(m):
    n0, tone = 100, 3
    pm1, pm2 = dsb_settings(m, tone)
    out = single_photon_output(preset("yb_dual", pm1=pm1, pm2=pm2), 1, n0, model="optical")
    assert out.port1, "modulated port should carry the odd orders"
    for mode in out.port1:
        assert _order(mode, n0, tone) % 2 == 1
    for mode in out.port2:
        assert _order(mode, n0, tone) % 2 == 0
    # first-order lines are balanced and the port-1 spectrum is purely real
    assert out.port1[n0 + tone].imag == 0.0
    assert abs(out.port1[n0 + tone]) == pytest.approx(abs(out.port1[n0 - tone]))


@pytest.mark.parametrize("cancel", ["lower", "upper"])
def test_ssb_removes_one_sideband(cancel):
    n0, tone, m = 100, 3, 0.7
    pm1, pm2 = ssb_settings(m, tone, cancel)
    out = single_photon_output(preset("yb_dual", pm1=pm1, pm2=pm2), 1, n0, model="optical")
    gone = n0 - tone if cancel == "lower" else n0 + tone
    kept = n0 + tone if cancel == "lower" else n0 - tone
    assert gone not in out.port1
    assert abs(out.port1[kept]) > 0.1


def test_ssb_settings_validation():
    with pytest.raises(ValueError):
        ssb_settings(0.5, 3, cancel="both")


@settings(deadline=None)
@given(
    name=st.sampled_from(PRESETS),
    m=st.floats(0.0, 2.5, allow_nan=False),
    tone=st.integers(1, 4),
    q0=st.integers(6, 25),
    port=st.integers(1, 2),
)
def test_presets_conserve_probability(name, m, tone, q0, port):
    pm1 = PMConfig(phi_b=0.3, m=m, theta_rf=0.8, tone=tone)
    if name.endswith("_single"):
        cfg = preset(name, pm1=pm1)
    else:
        cfg = preset(name, pm1=pm1, pm2=PMConfig(phi_b=-0.9, m=m, theta_rf=0.0, tone=tone))
    out = single_photon_output(cfg, port, q0 * tone)
    assert out.total_power() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "splitter_in, splitter_out",
    [
        (SplitterSpec(kind="yb", k=0.5), SplitterSpec(kind="yb", k=0.5, reverse=True)),
        (SplitterSpec(kind="dc", k=0.3), SplitterSpec(kind="dc", k=0.8)),
        (SplitterSpec(kind="bulk", theta_split=1.1), SplitterSpec(kind="yb", k=0.25)),
    ],
)
@pytest.mark.parametrize("port", [1, 2])
def test_matches_composition_oracle(splitter_in, splitter_out, port):
    cfg = EOMConfig(
        splitter_in=splitter_in,
        splitter_out=splitter_out,
        pm1=PMConfig(phi_b=0.7, m=1.2, theta_rf=0.4, tone=2),
        pm2=PMConfig(phi_b=-0.2, m=0.6, theta_rf=-1.3, tone=2),
    )
    got = single_photon_output(cfg, port, 36)
    want = composition_oracle(cfg, port, 36)
    for gp, wp in ((got.port1, want.port1), (got.port2, want.port2)):
        for mode in set(gp) | set(wp):
            assert gp.get(mode, 0.0) == pytest.approx(wp.get(mode, 0.0), abs=1e-10)


def test_mixed_tone_arms_interleave_ladders():
    cfg = preset(
        "dc_dual",
        pm1=PMConfig(phi_b=0.0, m=0.8, theta_rf=0.0, tone=2),
        pm2=PMConfig(phi_b=0.0, m=0.8, theta_rf=0.0, tone=5),
    )
    out = single_photon_output(cfg, 1, 60)
    offsets = {(mode - 60) for mode in out.port1}
    assert any(off % 2 == 0 and off != 0 for off in offsets)
    assert any(off % 5 == 0 and off != 0 for off in offsets)
    assert out.total_power() == pytest.approx(1.0, abs=1e-10)
    oracle = composition_oracle(cfg, 1, 60)
    for mode, amp in out.port1.items():
        assert amp == pytest.approx(oracle.port1.get(mode, 0.0), abs=1e-10)


@pytest.mark.parametrize(
    "tone1, tone2, n0, m",
    [(2, 5, 60, 0.8), (1, 7, 3, 2.0), (7, 1, 5, 50.0), (3, 7, 40, 50.0), (7, 7, 2, 12.0)],
)
@pytest.mark.parametrize("port", [1, 2])
def test_composition_oracle_matches_full_lattice(tone1, tone2, n0, m, port):
    # each arm exponentiates only the carrier's own chain, on a lattice sized
    # by its own window; the reference exponentiates the whole lattice on the
    # modes 1..n_max that the arm reaching highest needs, for both arms
    cfg = EOMConfig(
        splitter_in=SplitterSpec(kind="dc", k=0.3),
        splitter_out=SplitterSpec(kind="yb", k=0.6, reverse=True),
        pm1=PMConfig(phi_b=0.7, m=m, theta_rf=0.4, tone=tone1),
        pm2=PMConfig(phi_b=-0.2, m=0.5 * m, theta_rf=-1.3, tone=tone2),
    )
    n_max = shared_lattice(cfg, n0)
    full = composition_full(cfg, port, n0, n_max)
    got = composition_oracle(cfg, port, n0)
    for idx, row in enumerate((got.port1, got.port2)):
        assert set(row) <= set(range(1, n_max + 1))
        worst = max(abs(row.get(mode, 0.0) - full[idx, mode - 1]) for mode in range(1, n_max + 1))
        assert worst < 1e-13


def test_per_arm_lattices_match_shared_lattice_on_closure_trials(monkeypatch):
    # check 7's devices, mixed tones included: sizing each arm's lattice by
    # its own window loses nothing against one lattice for both arms
    for cfg, port, n0 in closure_trials():
        got = composition_oracle(cfg, port, n0)
        n_max = shared_lattice(cfg, n0)
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_arm_lattice", lambda arm, carrier: n_max)
            want = composition_oracle(cfg, port, n0)
        for gp, wp in ((got.port1, want.port1), (got.port2, want.port2)):
            assert max(abs(gp.get(mode, 0.0) - wp.get(mode, 0.0)) for mode in set(gp) | set(wp)) < 1e-13


def test_single_drive_closed_form_matches_general_path():
    pm = PMConfig(phi_b=0.45, m=1.1, theta_rf=0.25, tone=3)
    cfg = preset("yb_dual", pm1=pm)
    closed = single_drive_output(cfg, 90)
    general = single_photon_output(cfg, 1, 90)
    for cp, gp in ((closed.port1, general.port1), (closed.port2, general.port2)):
        assert set(cp) == set(gp)
        for mode in cp:
            assert cp[mode] == pytest.approx(gp[mode], abs=1e-12)


def test_single_drive_carrier_keeps_undriven_arm():
    pm = PMConfig(phi_b=0.45, m=1.1, theta_rf=0.25, tone=3)
    out = single_drive_output(preset("yb_dual", pm1=pm), 90)
    row = pm_scatter_row(90, pm)
    c0, c1 = row[90], row[93]
    assert out.port1[90] == pytest.approx(0.5 * (c0 + 1.0), abs=1e-14)
    assert out.port2[90] == pytest.approx(0.5 * (1.0 - c0), abs=1e-14)
    assert out.port1[93] == pytest.approx(0.5 * c1, abs=1e-14)
    assert out.port2[93] == pytest.approx(-0.5 * c1, abs=1e-14)


def test_single_drive_requires_balanced_yb_and_single_arm():
    pm = PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=1)
    with pytest.raises(ValueError):
        single_drive_output(preset("yb_dual", pm1=pm, pm2=pm), 30)
    with pytest.raises(ValueError):
        single_drive_output(preset("dc_dual", pm1=pm), 30)


def test_coherent_output_is_scaled_single_photon():
    cfg = preset("yb_dual", pm1=PMConfig(phi_b=0.3, m=0.9, theta_rf=0.1, tone=2),
                 pm2=PMConfig(phi_b=-0.6, m=0.9, theta_rf=0.7, tone=2))
    alpha = 1.4 - 0.6j
    single = single_photon_output(cfg, 1, 44)
    coh = coherent_output(cfg, 1, 44, alpha)
    for sp, cp in ((single.port1, coh.port1), (single.port2, coh.port2)):
        assert set(sp) == set(cp)
        for mode in sp:
            assert cp[mode] == alpha * sp[mode]
    assert coh.total_power() == pytest.approx(abs(alpha) ** 2, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), max_size=50))
def test_sum_in_order_adds_left_to_right(values):
    assert repr(_sum_in_order(values)) == repr(sum_left(values))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n), min_size=1, max_size=5)))
def test_sum_in_order_adds_each_row_left_to_right(rows):
    assert repr(_sum_in_order(np.array(rows))) == repr([sum_left(row) for row in rows])


def test_sum_in_order_is_neither_pairwise_nor_compensated():
    values = [1.0] + [1e-16] * 200
    assert _sum_in_order(values) == 1.0
    assert math.fsum(values) != 1.0 and float(np.sum(values)) != 1.0


@pytest.mark.parametrize("m", [0.4, 5.0, 50.0])
def test_total_power_adds_each_port_left_to_right(m):
    cfg = preset("dc_dual", pm1=PMConfig(phi_b=0.3, m=m, theta_rf=0.0, tone=2),
                 pm2=PMConfig(phi_b=0.0, m=m, theta_rf=0.0, tone=3))
    out = coherent_output(cfg, 1, 1000, 1.5 - 0.5j)
    assert out.total_power() == (sum_left(abs(a) ** 2 for a in out.port1.values())
                                 + sum_left(abs(a) ** 2 for a in out.port2.values()))


def test_spectrum_container_helpers():
    cfg = preset("yb_single", pm1=PMConfig(phi_b=0.0, m=0.4, theta_rf=0.0, tone=1))
    out = single_photon_output(cfg, 1, 20)
    assert out.port(1) == out.port1
    assert out.port(2) == out.port2
    with pytest.raises(ValueError):
        out.port(3)
    doubled = out.scaled(2.0)
    assert doubled.total_power() == pytest.approx(4.0 * out.total_power())


def test_eom_config_type_validation():
    with pytest.raises(ValueError):
        EOMConfig(splitter_in="yb", splitter_out=SplitterSpec(kind="yb", k=0.5))
    with pytest.raises(ValueError):
        EOMConfig(
            splitter_in=SplitterSpec(kind="yb", k=0.5),
            splitter_out=SplitterSpec(kind="yb", k=0.5),
            pm1=0.4,
        )


def test_input_port_validation():
    with pytest.raises(ValueError):
        single_photon_output(preset("yb_dual"), 3, 10)


def test_mean_field_phasors_and_samples():
    cfg = preset("yb_dual",
                 pm1=PMConfig(phi_b=math.pi / 2, m=0.2, theta_rf=0.0, tone=1),
                 pm2=PMConfig(phi_b=-math.pi / 2, m=0.2, theta_rf=0.0, tone=1))
    alpha = 2.0 + 0.0j
    out = coherent_output(cfg, 1, 30, alpha)
    series = mean_field(out, 1, SampleGrid(0.0, 2.0 * math.pi * 15 / 16, 16), field_scale=0.5)
    assert series.times.tolist() == pytest.approx([2.0 * math.pi * k / 16 for k in range(16)], abs=1e-15)
    assert len(series.values) == 16
    for mode, omega, phasor in series.terms:
        assert omega == mode_omega(mode)
        assert phasor == 1j * 0.5 * math.sqrt(omega) * out.port1[mode]
    for t, val in zip(series.times, series.values):
        manual = sum(2.0 * (ph * cmath.exp(-1j * om * t)).real for _, om, ph in series.terms)
        assert val == pytest.approx(manual, abs=1e-12)


def test_mean_field_single_line_is_sinusoidal():
    out = coherent_output(preset("yb_dual"), 1, 9, 1.0 + 0.0j)
    series = mean_field(out, 1, SampleGrid(0.0, 3.9, 40))
    omega = mode_omega(9)
    amp = 2.0 * math.sqrt(omega)
    for t, val in zip(series.times, series.values):
        assert val == pytest.approx(amp * math.sin(omega * t), abs=1e-10)
