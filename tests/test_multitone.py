import cmath
import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eomsim import verify
from eomsim.engine import (
    SampleGrid,
    TwoPortSpectrum,
    coherent_output,
    mean_field,
    preset,
)
from eomsim.lattice import mode_omega
from eomsim.phase_mod import (
    MultitonePMConfig,
    PMConfig,
    ToneDrive,
    pm_multitone_row,
    pm_scatter_row,
)
from oracles import mean_field_scalar, sample_grid_loop


def _one_tone(m, theta=0.4, tone=3, phi_b=0.6, convention="full"):
    return MultitonePMConfig(
        phi_b=phi_b, tones=(ToneDrive(m=m, theta_rf=theta, tone=tone),), convention=convention
    )


@pytest.mark.parametrize("m", [1e-4, 1e-3])
def test_full_convention_tracks_exact_model_at_double_depth(m):
    n0, tone = 200, 3
    approx = pm_multitone_row(n0, _one_tone(m, convention="full"))
    exact = pm_scatter_row(n0, PMConfig(phi_b=0.6, m=2.0 * m, theta_rf=0.4, tone=tone))
    for mode in (n0 - tone, n0, n0 + tone):
        want = exact[mode]
        assert abs(approx[mode] - want) / abs(want) < 1e-5


@pytest.mark.parametrize("m", [1e-4, 1e-3])
def test_half_convention_tracks_exact_model_at_same_depth(m):
    n0, tone = 200, 3
    approx = pm_multitone_row(n0, _one_tone(m, convention="half"))
    exact = pm_scatter_row(n0, PMConfig(phi_b=0.6, m=m, theta_rf=0.4, tone=tone))
    for mode in (n0 - tone, n0, n0 + tone):
        want = exact[mode]
        assert abs(approx[mode] - want) / abs(want) < 1e-5


def test_sideband_amplitude_is_linear_in_depth():
    row1 = pm_multitone_row(100, _one_tone(1e-4))
    row2 = pm_multitone_row(100, _one_tone(2e-4))
    assert row2[103] == pytest.approx(2.0 * row1[103], rel=1e-14)
    assert row2[97] == pytest.approx(2.0 * row1[97], rel=1e-14)


@pytest.mark.parametrize("convention, scale", [("full", 1.0), ("half", 0.5)])
@pytest.mark.parametrize("depths", [(1e-3,), (0.05, 0.03), (50.0, 2.0, 0.7)])
def test_multitone_row_power_is_not_normalised(convention, scale, depths):
    # distinct tones put every sideband on its own mode, so the first-order
    # row's power is 1 + 2 sum (scale m_k)^2, far from 1 unless every m_k << 1
    tones = tuple(ToneDrive(m=m, theta_rf=0.3 * k, tone=k + 1) for k, m in enumerate(depths))
    row = pm_multitone_row(200, MultitonePMConfig(phi_b=0.6, tones=tones, convention=convention))
    assert len(row) == 1 + 2 * len(depths)
    power = sum(abs(amp) ** 2 for amp in row.values())
    assert power == pytest.approx(1.0 + 2.0 * sum((scale * m) ** 2 for m in depths), rel=1e-14)


def test_multitone_device_output_carries_every_tone():
    arm = MultitonePMConfig(
        phi_b=math.pi / 2,
        tones=(ToneDrive(m=0.05, theta_rf=0.0, tone=1), ToneDrive(m=0.03, theta_rf=0.2, tone=4)),
    )
    arm2 = MultitonePMConfig(
        phi_b=-math.pi / 2,
        tones=(ToneDrive(m=0.05, theta_rf=math.pi, tone=1), ToneDrive(m=0.03, theta_rf=0.2 + math.pi, tone=4)),
    )
    cfg = preset("yb_dual", pm1=arm, pm2=arm2)
    out = coherent_output(cfg, 1, 200, alpha=2.0 + 0.0j)
    assert {196, 199, 201, 204} <= set(out.port1)
    # antiphase drives put all sideband power on port 1 and none on port 2
    assert all(abs(a) < 1e-15 for mode, a in out.port2.items() if mode != 200)


def test_multitone_spectrum_equals_general_coherent_path():
    # balanced Y-branches with arm 2 undriven: port 1 carries
    # alpha (C + delta) / 2 and port 2 alpha (delta - C) / 2, C the multitone row
    arm = _one_tone(0.02)
    alpha = 0.5 - 0.25j
    out = coherent_output(preset("yb_single", pm1=arm), 1, 120, alpha=alpha)
    row = pm_multitone_row(120, arm)
    assert set(out.port1) == set(out.port2) == set(row)
    for mode, amp in row.items():
        carrier = 1.0 if mode == 120 else 0.0
        assert out.port1[mode] == pytest.approx(alpha * 0.5 * (amp + carrier), abs=1e-15)
        assert out.port2[mode] == pytest.approx(alpha * 0.5 * (carrier - amp), abs=1e-15)


def test_mean_field_phasor_identity_and_reconstruction():
    arm = _one_tone(0.05, theta=0.0, tone=2, phi_b=math.pi / 2)
    cfg = preset("yb_single", pm1=arm)
    out = coherent_output(cfg, 1, 50, alpha=1.0 + 0.0j)
    series = mean_field(out, 1, SampleGrid(0.0, 3.15, 64), field_scale=0.3)
    for mode, omega, phasor in series.terms:
        assert omega == mode_omega(mode)
        assert phasor == 1j * 0.3 * math.sqrt(omega) * out.port1[mode]
    for t, val in zip(series.times, series.values):
        manual = sum(2.0 * (ph * cmath.exp(-1j * om * t)).real for _, om, ph in series.terms)
        assert val == pytest.approx(manual, abs=1e-12)


@pytest.mark.parametrize("arms", [
    (_one_tone(0.05, theta=0.3, tone=2), _one_tone(0.04, theta=-1.1, tone=2, phi_b=0.7)),
    (MultitonePMConfig(phi_b=0.2, tones=(ToneDrive(m=0.05, theta_rf=0.0, tone=1),
                                         ToneDrive(m=0.03, theta_rf=1.2, tone=4))),
     MultitonePMConfig(phi_b=-0.9, tones=(ToneDrive(m=0.02, theta_rf=2.0, tone=3),),
                       convention="half")),
    (PMConfig(phi_b=0.4, m=10.0, theta_rf=0.25, tone=3),
     PMConfig(phi_b=-1.3, m=7.5, theta_rf=2.0, tone=3)),
    (PMConfig(phi_b=0.1, m=3.0, theta_rf=0.0, tone=1), None),
])
@pytest.mark.parametrize("port", [1, 2])
def test_mean_field_array_pass_equals_scalar_loop(arms, port):
    cfg = preset("yb_dual" if arms[1] is not None else "yb_single", pm1=arms[0], pm2=arms[1])
    out = coherent_output(cfg, 1, 120, alpha=1.3 - 0.4j)
    grid = SampleGrid(-3.0, -3.0 + 0.0027 * 4999, 5000)
    series = mean_field(out, port, grid, nu=1.5, length=5.0, field_scale=0.8)
    assert len(series.terms) > 1
    assert series.times.tolist() == list(sample_grid_loop(*grid))
    # the oracle's phasor table, without its samples
    assert series.terms == mean_field_scalar(out, port, (), nu=1.5, length=5.0, field_scale=0.8).terms
    # bit for bit against check 10's scalar reference of the same blocked arithmetic
    assert series.values.tolist() == verify.blocked_field_scalar(series.terms, grid)


@st.composite
def _fields(draw):
    """A port spectrum of 1..12 random amplitudes, a lattice geometry and a time grid."""
    modes = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=12, unique=True))
    parts = st.floats(-10.0, 10.0)
    spectrum = TwoPortSpectrum(port1={m: complex(draw(parts), draw(parts)) for m in modes}, port2={})
    geometry = dict(nu=draw(st.floats(0.1, 10.0)), length=draw(st.floats(0.5, 20.0)),
                    field_scale=draw(st.floats(0.01, 100.0)))
    t_start = draw(st.floats(-1e4, 1e5))
    samples = draw(st.integers(1, 2000) | st.sampled_from([4097, 65_537]))
    t_stop = t_start + draw(st.floats(1e-3, 1e3))
    return spectrum, geometry, SampleGrid(t_start, t_stop, samples)


@settings(max_examples=40, deadline=None)
@given(_fields())
def test_blocked_field_is_within_phase_round_off_of_the_direct_sum(case):
    spectrum, geometry, grid = case
    series = mean_field(spectrum, 1, grid, **geometry)
    direct = mean_field_scalar(spectrum, 1, sample_grid_loop(*grid), **geometry)
    # each sample's phase omega*t is rounded at the scale of eps*|omega*t|,
    # by either route, and moves the term by as much times |2*phasor|
    t_max = max(map(abs, direct.times))
    w_max = max(omega for _mode, omega, _ph in direct.terms)
    bound = 4.0 * sys.float_info.epsilon * (1.0 + w_max * t_max) * math.fsum(
        2.0 * abs(ph) for _mode, _omega, ph in direct.terms)
    assert float(np.max(np.abs(series.values - direct.values))) <= bound


def test_least_squares_recovers_the_phasors_from_a_deck_scale_waveform():
    # a deck-scale point: exact arms, 57 phasors, 20,000 samples over two periods
    cfg = preset("yb_dual", pm1=PMConfig(phi_b=0.7, m=4.0, theta_rf=0.3, tone=2),
                 pm2=PMConfig(phi_b=-1.1, m=3.0, theta_rf=2.2, tone=2))
    out = coherent_output(cfg, 1, 600, alpha=1.7 - 0.6j)
    series = mean_field(out, 2, SampleGrid(0.0, 4.0 * math.pi, 20_000), field_scale=0.2)
    omegas = np.array([omega for _mode, omega, _ph in series.terms])
    phase = np.multiply.outer(series.times, omegas)
    # field(t) = sum of 2*(Re P*cos(omega t) + Im P*sin(omega t))
    design = np.hstack([2.0 * np.cos(phase), 2.0 * np.sin(phase)])
    fit = np.linalg.lstsq(design, series.values, rcond=None)[0]
    recovered = fit[:len(omegas)] + 1j * fit[len(omegas):]
    want = np.array([ph for _mode, _omega, ph in series.terms])
    assert len(want) > 30
    assert float(np.max(np.abs(recovered - want))) <= 1e-11 * float(np.max(np.abs(want)))


def test_small_signal_check_catches_a_one_ulp_field_change(monkeypatch):
    # one sample moved by one ulp: check 10 compares at tolerance 0 and must
    # see it, whatever rounding the build's cos/sin kernels use
    def nudged_mean_field(spectrum, port, grid, **kwargs):
        series = mean_field(spectrum, port, grid, **kwargs)
        values = series.values.copy()
        values[17] = np.nextafter(values[17], np.inf)
        return dataclasses.replace(series, values=values)

    assert verify.check_small_signal().passed
    monkeypatch.setattr(verify, "mean_field", nudged_mean_field)
    result = verify.check_small_signal()
    assert not result.passed
    defect = re.search(r"field reconstruction defect (\S+) ", result.detail)
    assert float(defect.group(1)) > 0.0


def test_mean_field_scales_with_lattice_geometry():
    cfg = preset("yb_single", pm1=_one_tone(0.0))
    out = coherent_output(cfg, 1, 36, alpha=1.0 + 0.0j)
    series = mean_field(out, 1, SampleGrid(0.0, 0.0, 1), nu=2.0, length=math.pi)
    (term,) = series.terms
    assert term[1] == pytest.approx(mode_omega(36, nu=2.0, length=math.pi))
    assert term[1] == pytest.approx(4.0 * 36.0)
