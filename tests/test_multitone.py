import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from eomsim import verify
from eomsim.engine import (
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
from oracles import mean_field_scalar


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
    times = tuple(0.05 * k for k in range(64))
    series = mean_field(out, 1, times, field_scale=0.3)
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
    times = [-3.0 + 0.0027 * k for k in range(5000)]
    series = mean_field(out, port, times, nu=1.5, length=5.0, field_scale=0.8)
    want = mean_field_scalar(out, port, times, nu=1.5, length=5.0, field_scale=0.8)
    assert len(series.terms) > 1
    assert series.times == want.times
    assert series.terms == want.terms
    assert all(type(v) is float for v in series.values)
    assert series.values == want.values


def test_small_signal_check_catches_exp_rounded_field(monkeypatch):
    # the same field through complex exp() differs from the cos/sin pass in
    # the last bits at some sample times; check 10 must see that
    def exp_mean_field(spectrum, port, times, **kwargs):
        series = mean_field(spectrum, port, times, **kwargs)
        tarr = np.array(series.times)
        values = np.zeros(len(tarr))
        for _mode, omega, ph in series.terms:
            values += 2 * (ph * np.exp(-1j * omega * tarr)).real
        return dataclasses.replace(series, values=tuple(values.tolist()))

    assert verify.check_small_signal().passed
    monkeypatch.setattr(verify, "mean_field", exp_mean_field)
    result = verify.check_small_signal()
    assert not result.passed
    defect = re.search(r"field reconstruction defect (\S+) ", result.detail)
    assert float(defect.group(1)) > 0.0


def test_mean_field_scales_with_lattice_geometry():
    cfg = preset("yb_single", pm1=_one_tone(0.0))
    out = coherent_output(cfg, 1, 36, alpha=1.0 + 0.0j)
    series = mean_field(out, 1, (0.0,), nu=2.0, length=math.pi)
    (term,) = series.terms
    assert term[1] == pytest.approx(mode_omega(36, nu=2.0, length=math.pi))
    assert term[1] == pytest.approx(4.0 * 36.0)
