import cmath
import importlib
import itertools
import math
import pkgutil

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eomsim
from eomsim import phase_mod, special
from eomsim.lattice import decompose_mode
from eomsim.phase_mod import (
    MultitonePMConfig,
    PMConfig,
    ToneDrive,
    Truncation,
    phase_factor,
    pm_multitone_row,
    pm_scatter_row,
    retained_halfwidth,
)
from eomsim.special import bessel_j_array
from eomsim.verify import pm_generator_oracle

from conftest import MEMOS, clear_memos
from oracles import (
    bessel_reference,
    halfwidth_full_scan,
    ladder_reference,
    pm_generator_chain_eigh,
    pm_generator_full,
)

# Scattering amplitudes frozen from the defining expression evaluated at
# 40-digit precision: prefactor exp(j phi_b) (j exp(j theta))^(q-q0) times
# [J_{q-q0}(m) -+ J_{q+q0}(m)], wall term sign set by the parity of q0.
FROZEN_COEFFS = [
    (10, 10, 1.0, 0.3, 0.7, 0.7310212713633237 + 0.2261313784683892j),
    (12, 10, 1.0, 0.3, 0.7, 0.014804681408844146 - 0.11394574260532117j),
    (8, 10, 1.0, 0.3, 0.7, -0.05211977510339234 + 0.10240283146801794j),
    (1, 3, 2.0, -0.4, 1.1, 0.3314700608923846 + 0.1994112659735146j),
    (2, 1, 0.8, 0.0, 0.0, 0.37908881242472364j),
    (5, 2, 3.5, 1.2, -2.0, 0.37856955877603365 - 0.03325198592703809j),
]


@pytest.mark.parametrize("q, q0, m, phi_b, theta, want", FROZEN_COEFFS)
def test_frozen_scattering_amplitudes(q, q0, m, phi_b, theta, want):
    tone = 3
    cfg = PMConfig(phi_b=phi_b, m=m, theta_rf=theta, tone=tone)
    row = pm_scatter_row(q0 * tone, cfg)
    assert row[q * tone] == pytest.approx(want, abs=5e-15)


@pytest.mark.parametrize("q, q0, m, phi_b, theta, want", FROZEN_COEFFS)
def test_coefficients_against_independent_bessel_oracle(q, q0, m, phi_b, theta, want):
    s = q - q0
    pref = cmath.exp(1j * phi_b) * (1j * cmath.exp(1j * theta)) ** s
    sign = -1.0 if q0 % 2 else 1.0
    val = pref * (bessel_reference(s, m) - sign * bessel_reference(q + q0, m))
    assert val == pytest.approx(want, abs=5e-13)


@given(s=st.integers(-60, 60), theta=st.floats(-math.pi, math.pi, allow_nan=False))
def test_ladder_phase_matches_direct_power(s, theta):
    got = phase_mod._ladder(theta)(s)
    want = (1j) ** (s % 4) * cmath.exp(1j * (s * theta))
    assert abs(got) == pytest.approx(1.0, abs=1e-15)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "theta, table",
    [
        (0.0, (1, 1j, -1, -1j)),
        (math.pi / 2, (1, -1, 1, -1)),
        (math.pi, (1, -1j, -1, 1j)),
        (-math.pi / 2, (1, 1, 1, 1)),
    ],
)
def test_ladder_phase_exact_on_quarter_turn_grid(theta, table):
    rung = phase_mod._ladder(theta)
    for s in range(-8, 8):
        assert rung(s) == table[s % 4]
        assert ladder_reference(s, theta) == table[s % 4]


def test_phase_factor_exact_values():
    assert phase_factor(0.0) == 1.0
    assert repr(phase_factor(-0.0)) == repr(phase_factor(0.0)) == "(1+0j)"
    assert phase_factor(math.pi / 2) == 1j
    assert phase_factor(math.pi) == -1.0
    assert phase_factor(-math.pi / 2) == -1j
    assert phase_factor(0.3) == cmath.exp(0.3j)


def test_wall_term_matters_at_low_rungs():
    cfg = PMConfig(phi_b=0.0, m=1.5, theta_rf=0.0, tone=1)
    exact = pm_scatter_row(2, cfg, model="exact")
    optical = pm_scatter_row(2, cfg, model="optical")
    assert abs(exact[2] - optical[2]) > 1e-3


def test_wall_term_negligible_at_high_rungs():
    cfg = PMConfig(phi_b=0.0, m=2.0, theta_rf=0.0, tone=1)
    exact = pm_scatter_row(30, cfg, model="exact")
    optical = pm_scatter_row(30, cfg, model="optical")
    for q in range(20, 41):
        assert abs(exact[q] - optical[q]) < 1e-15


@settings(deadline=None)
@given(
    m=st.floats(0.0, 5.0, allow_nan=False),
    tone=st.integers(1, 5),
    q0=st.integers(5, 40),
)
def test_scatter_row_is_normalized(m, tone, q0):
    cfg = PMConfig(phi_b=0.5, m=m, theta_rf=-0.8, tone=tone)
    row = pm_scatter_row(q0 * tone, cfg)
    assert sum(abs(v) ** 2 for v in row.values()) == pytest.approx(1.0, abs=1e-11)


@settings(deadline=None)
@given(
    m=st.floats(0.1, 3.0, allow_nan=False),
    tone=st.integers(1, 4),
    n0=st.integers(1, 12),
)
def test_scatter_row_respects_lattice_wall(m, tone, n0):
    cfg = PMConfig(phi_b=0.0, m=m, theta_rf=0.4, tone=tone)
    row = pm_scatter_row(n0, cfg)
    assert all(mode >= 1 for mode in row)
    assert all((mode - n0) % tone == 0 for mode in row)
    assert sum(abs(v) ** 2 for v in row.values()) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("m, tone, n0", [(1.0, 3, 30), (2.4, 1, 7), (0.6, 5, 22)])
def test_scatter_row_matches_generator_route(m, tone, n0):
    cfg = PMConfig(phi_b=0.9, m=m, theta_rf=1.7, tone=tone)
    hw = retained_halfwidth(m, Truncation())
    n_max = (decompose_mode(n0, tone)[0] + hw + 12) * tone
    oracle = pm_generator_oracle(cfg, n0, n_max)
    row = pm_scatter_row(n0, cfg)
    for mode, amp in row.items():
        assert oracle[mode] == pytest.approx(amp, abs=1e-10)
    # and nothing sizable was dropped
    kept = set(row)
    for mode in range(1, n_max + 1):
        if mode not in kept and (mode - n0) % tone == 0:
            assert abs(oracle[mode]) < 1e-11


@pytest.mark.parametrize(
    "tone, n0",
    [(1, 1), (1, 2), (1, 40), (2, 1), (3, 2), (3, 3), (3, 31), (7, 3), (7, 7), (7, 50)],
)
@pytest.mark.parametrize("m", [0.4, 7.0, 50.0])
def test_generator_chain_row_matches_full_lattice(tone, n0, m):
    # the hopping generator couples n0 only to n0 + kN, so the row from the
    # carrier's chain must equal row n0 of the full-lattice exponential,
    # including carriers below one tone, where the chain starts at n0
    cfg = PMConfig(phi_b=0.4, m=m, theta_rf=1.1, tone=tone)
    n_max = (decompose_mode(n0, tone)[0] + retained_halfwidth(m, Truncation()) + 12) * tone
    full = pm_generator_full(cfg, n_max)[n0 - 1]
    chain = pm_generator_oracle(cfg, n0, n_max)
    assert min(chain) == (n0 - 1) % tone + 1
    assert set(chain) == set(range(min(chain), n_max + 1, tone))
    assert max(abs(chain.get(mode, 0.0) - full[mode - 1]) for mode in range(1, n_max + 1)) < 1e-13


def test_generator_chain_rejects_carrier_off_the_lattice():
    cfg = PMConfig(phi_b=0.0, m=1.0, theta_rf=0.0, tone=2)
    with pytest.raises(ValueError):
        pm_generator_oracle(cfg, 11, 10)
    with pytest.raises(ValueError):
        pm_generator_oracle(cfg, 0, 10)


def _chain_lattice(tone, n0, size):
    # the lattice 1..n_max on which the carrier n0's chain has `size` modes
    return (n0 - 1) % tone + 1 + (size - 1) * tone


def _worst_against_eigh(cfg, n0, n_max):
    got = pm_generator_oracle(cfg, n0, n_max)
    want = pm_generator_chain_eigh(cfg, n0, n_max)
    assert list(got) == list(want)
    return max(abs(got[mode] - want[mode]) for mode in want)


@pytest.mark.parametrize("m", [1e-6, 0.4, 2.0, 7.0, 50.0])
def test_eigenbasis_row_matches_chain_eigh(m):
    # the closed-form sine eigenbasis against a LAPACK eigendecomposition of
    # the same chain generator, carriers at the wall and far from it
    for tone, q0, size in itertools.product((1, 2, 3, 5, 7), (1, 2, 3, 40), (1, 2, 3, 17, 64, 300)):
        if q0 > size:
            continue
        n0 = q0 * tone - q0 % tone
        cfg = PMConfig(phi_b=0.4, m=m, theta_rf=1.1, tone=tone)
        assert _worst_against_eigh(cfg, n0, _chain_lattice(tone, n0, size)) < 1e-13


@settings(deadline=None, max_examples=60)
@given(
    m=st.floats(0.0, 50.0, allow_nan=False),
    phi_b=st.floats(-math.pi, math.pi),
    theta_rf=st.floats(-math.pi, math.pi),
    tone=st.integers(1, 7),
    r0=st.integers(0, 6),
    q0=st.integers(1, 60),
    extra=st.integers(0, 140),
)
def test_eigenbasis_row_matches_chain_eigh_drawn(m, phi_b, theta_rf, tone, r0, q0, extra):
    n0 = q0 * tone - r0 % tone
    cfg = PMConfig(phi_b=phi_b, m=m, theta_rf=theta_rf, tone=tone)
    size = decompose_mode(n0, tone)[0] + extra
    assert _worst_against_eigh(cfg, n0, _chain_lattice(tone, n0, size)) < 1e-13


def test_eigenbasis_row_uses_no_bessel_code(monkeypatch, fresh_windows):
    def refuse(*args, **kwargs):
        raise AssertionError("the generator route must not evaluate a Bessel function")

    monkeypatch.setattr(special, "bessel_j_array", refuse)
    monkeypatch.setattr(phase_mod, "bessel_j_array", refuse)
    cfg = PMConfig(phi_b=0.4, m=2.0, theta_rf=1.1, tone=2)
    assert _worst_against_eigh(cfg, 3, 80) < 1e-13
    with pytest.raises(AssertionError):
        pm_scatter_row(3, cfg)


def _full_array_row(n0, cfg, tr, model):
    # the row with every image term J_{q+q0}(m) read from one array that
    # reaches the top image order, however far up the carrier sits, and
    # each rung's RF phase from the per-rung reference
    q0, r0 = decompose_mode(n0, cfg.tone)
    hw = retained_halfwidth(cfg.m, tr)
    jarr = bessel_j_array(2 * q0 + hw, cfg.m)
    sign = -1.0 if q0 % 2 else 1.0
    row = {}
    for q in range(max(1, q0 - hw), q0 + hw + 1):
        s = q - q0
        js = jarr[abs(s)] if s >= 0 or s % 2 == 0 else -jarr[abs(s)]
        bracket = js if model == "optical" else js - sign * jarr[q + q0]
        amp = phase_factor(cfg.phi_b) * ladder_reference(s, cfg.theta_rf) * bracket
        if amp != 0.0:
            row[q * cfg.tone - r0] = amp
    return row


@pytest.mark.parametrize("model", ["exact", "optical"])
@pytest.mark.parametrize(
    "tr", [Truncation(), Truncation(1e-300, 0), Truncation(1e-5, 1), Truncation(1e-12, 40)]
)
@pytest.mark.parametrize("m", [1e-9, 0.15, 1.0, 5.0, 20.0, 50.0])
def test_scatter_row_matches_full_array_row(m, tr, model):
    hw = retained_halfwidth(m, tr)
    for tone in (1, 3):
        for q0 in (1, 2, 3, int(m) + 2, hw, int(m) + hw, 1000):
            cfg = PMConfig(phi_b=0.3, m=m, theta_rf=0.7, tone=tone)
            row = pm_scatter_row(q0 * tone, cfg, tr, model)
            want = _full_array_row(q0 * tone, cfg, tr, model)
            if 2 * q0 <= int(m) + 80:
                # the image array is not cut, so the row is the same numbers
                assert row == want
            else:
                assert set(row) == set(want)
                assert max(abs(row[k] - want[k]) for k in row) <= 4e-16


def test_scatter_cost_does_not_grow_with_carrier(monkeypatch, fresh_windows):
    m = 50.0
    hw = retained_halfwidth(m, Truncation())
    # the halfwidth scan reads orders up to the first s > int(m) whose bound
    # (m/2)^s / s! on |J_s(m)| drops below eps, plus a few slack orders
    bound = int(m) + 1
    while mpmath.mpf(m / 2) ** bound / mpmath.factorial(bound) >= Truncation().eps:
        bound += 1
    clear_memos()  # the halfwidth above left its Bessel pass in the memo
    real = phase_mod.bessel_j_array
    requests = []

    def recorder(s_max, x):
        requests.append(s_max)
        if s_max > max(int(m) + 401, hw + int(m) + 80):
            raise AssertionError(f"asked for {s_max} Bessel orders")
        return real(s_max, x)

    monkeypatch.setattr(phase_mod, "bessel_j_array", recorder)
    row = pm_scatter_row(10**9, PMConfig(0.1, m, 0.2, 1))
    assert requests == [bound + phase_mod._BOUND_SLACK, hw + int(m) + 80]
    assert len(row) <= 2 * hw + 1
    assert sum(abs(v) ** 2 for v in row.values()) == pytest.approx(1.0, abs=1e-11)


def test_zero_depth_row_is_pure_bias():
    cfg = PMConfig(phi_b=0.77, m=0.0, theta_rf=0.2, tone=4)
    assert pm_scatter_row(9, cfg) == {9: phase_factor(0.77)}


def test_retained_halfwidth_behavior():
    tr = Truncation()
    assert retained_halfwidth(0.0, tr) == tr.margin
    widths = [retained_halfwidth(m, tr) for m in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert widths == sorted(widths)
    assert retained_halfwidth(1.0, Truncation(eps=1e-6, margin=0)) < retained_halfwidth(
        1.0, Truncation(eps=1e-14, margin=0)
    )


@pytest.mark.parametrize("m", [0.05, 0.5, 1.0, 3.7, 12.0, 50.0])
@pytest.mark.parametrize("eps", [1e-5, 1e-12, 1e-100, 1e-300])
def test_retained_halfwidth_matches_mpmath(m, eps):
    # the window ends at the first order past the turning point whose Bessel
    # value drops below eps, located here with arbitrary-precision mpmath
    s = int(m) + 1
    while abs(mpmath.besselj(s, m)) >= eps:
        s += 1
    assert retained_halfwidth(m, Truncation(eps=eps, margin=0)) == s


HALFWIDTH_EPS = (0.5, 1e-5, 1e-12, 1e-100, 1e-300)


def _assert_halfwidth_matches_full_scan(m):
    for eps in HALFWIDTH_EPS:
        tr = Truncation(eps=eps, margin=0)
        assert retained_halfwidth(m, tr) == halfwidth_full_scan(m, tr), (m, eps)


def test_bounded_halfwidth_scan_matches_full_scan_on_dense_grid():
    # the scan's array is sized by the Bessel bound, so it must stop where a
    # scan over the fixed int(m) + 401 orders stops, for every depth and eps
    grid = np.exp(np.linspace(math.log(1e-6), math.log(50.0), 2000)).tolist()
    for m in grid + [5e-324, 1e-300, 1e-8, 50.0]:
        _assert_halfwidth_matches_full_scan(m)


@settings(max_examples=200, deadline=None)
@given(m=st.floats(0.0, 50.0))
def test_bounded_halfwidth_scan_matches_full_scan(m):
    _assert_halfwidth_matches_full_scan(m)


def test_truncation_controls_row_size():
    cfg = PMConfig(phi_b=0.0, m=1.0, theta_rf=0.0, tone=2)
    slim = pm_scatter_row(80, cfg, truncation=Truncation(eps=1e-4, margin=0))
    wide = pm_scatter_row(80, cfg)
    assert len(slim) < len(wide)
    assert sum(abs(v) ** 2 for v in slim.values()) == pytest.approx(1.0, abs=1e-6)


def test_multitone_row_structure():
    cfg = MultitonePMConfig(
        phi_b=0.25,
        tones=(ToneDrive(m=0.01, theta_rf=0.3, tone=2), ToneDrive(m=0.02, theta_rf=-0.6, tone=7)),
    )
    row = pm_multitone_row(50, cfg)
    assert set(row) == {43, 48, 50, 52, 57}
    bias = phase_factor(0.25)
    assert row[50] == bias
    assert row[52] == pytest.approx(bias * 1j * 0.01 * cmath.exp(0.3j))
    assert row[43] == pytest.approx(bias * 1j * 0.02 * cmath.exp(0.6j))


def test_multitone_same_tone_adds_coherently():
    cfg = MultitonePMConfig(
        phi_b=0.0,
        tones=(ToneDrive(m=0.01, theta_rf=0.0, tone=3), ToneDrive(m=0.01, theta_rf=math.pi, tone=3)),
    )
    row = pm_multitone_row(30, cfg)
    # equal depths in antiphase cancel both sidebands exactly
    assert set(row) == {30}


def test_multitone_half_convention_scales_sidebands():
    full = pm_multitone_row(40, MultitonePMConfig(
        phi_b=0.1, tones=(ToneDrive(m=0.02, theta_rf=0.5, tone=4),), convention="full"))
    half = pm_multitone_row(40, MultitonePMConfig(
        phi_b=0.1, tones=(ToneDrive(m=0.02, theta_rf=0.5, tone=4),), convention="half"))
    assert half[44] == pytest.approx(0.5 * full[44])
    assert half[36] == pytest.approx(0.5 * full[36])
    assert half[40] == full[40]


def test_multitone_rejects_wall_crossing():
    cfg = MultitonePMConfig(phi_b=0.0, tones=(ToneDrive(m=0.01, theta_rf=0.0, tone=10),))
    with pytest.raises(ValueError):
        pm_multitone_row(10, cfg)


def test_multitone_no_tones_is_carrier_only():
    cfg = MultitonePMConfig(phi_b=-0.4, tones=())
    assert pm_multitone_row(17, cfg) == {17: phase_factor(-0.4)}


def test_config_validation():
    with pytest.raises(ValueError):
        PMConfig(phi_b=0.0, m=-0.1, theta_rf=0.0, tone=1)
    with pytest.raises(ValueError):
        PMConfig(phi_b=0.0, m=51.0, theta_rf=0.0, tone=1)
    with pytest.raises(ValueError):
        PMConfig(phi_b=0.0, m=1.0, theta_rf=0.0, tone=0)
    with pytest.raises(ValueError):
        PMConfig(phi_b=math.inf, m=1.0, theta_rf=0.0, tone=1)
    with pytest.raises(ValueError):
        MultitonePMConfig(phi_b=0.0, tones=(ToneDrive(m=0.1, theta_rf=0.0, tone=1),),
                          convention="exact")
    # a multitone depth has the single-tone cap
    assert ToneDrive(m=50.0, theta_rf=0.0, tone=1).m == 50.0
    for m in (50.0001, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"modulation index must lie in \[0, 50\.0\]"):
            ToneDrive(m=m, theta_rf=0.0, tone=1)
    with pytest.raises(ValueError):
        Truncation(eps=0.0)
    with pytest.raises(ValueError):
        Truncation(margin=-1)
    with pytest.raises(ValueError, match="margin must be an integer"):
        Truncation(margin=True)


def test_scatter_row_rejects_unknown_model():
    cfg = PMConfig(phi_b=0.0, m=1.0, theta_rf=0.0, tone=1)
    with pytest.raises(ValueError):
        pm_scatter_row(10, cfg, model="classical")


def _row_text(row):
    return repr(list(row.items()))  # repr keeps the sign of a zero part


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([7, 8, 40]), st.sampled_from([0.0, 0.3, 2.0, 9.5]),
                          st.sampled_from([1, 2, 3]), st.sampled_from(["exact", "optical"]),
                          st.sampled_from([Truncation(), Truncation(eps=1e-4, margin=0)]),
                          st.sampled_from([0.0, 1.5707963267948966, 0.4]),
                          st.sampled_from([0.0, 3.141592653589793, 1.1])),
                min_size=1, max_size=8))
def test_window_memo_does_not_change_rows(calls):
    # rows computed one after another, sharing windows, equal rows computed
    # from an empty memo bit for bit
    shared = []
    for n0, m, tone, model, tr, phi_b, theta_rf in calls:
        shared.append(_row_text(pm_scatter_row(n0, PMConfig(phi_b, m, theta_rf, tone), tr, model)))
    for (n0, m, tone, model, tr, phi_b, theta_rf), text in zip(calls, shared):
        clear_memos()
        assert _row_text(pm_scatter_row(n0, PMConfig(phi_b, m, theta_rf, tone), tr, model)) == text


def test_matched_arms_share_one_bessel_window(monkeypatch, fresh_windows):
    real = phase_mod.bessel_j_array
    requests = []

    def recorder(s_max, x):
        requests.append((s_max, x))
        return real(s_max, x)

    def windows():
        return phase_mod._scatter_window.cache_info().misses

    monkeypatch.setattr(phase_mod, "bessel_j_array", recorder)
    arm1 = PMConfig(phi_b=0.5, m=2.0, theta_rf=0.0, tone=3)
    arm2 = PMConfig(phi_b=-0.5, m=2.0, theta_rf=math.pi, tone=3)
    pm_scatter_row(100, arm1)
    pm_scatter_row(100, arm2)
    assert (windows(), len(requests)) == (1, 2)  # the halfwidth scan and the row's array
    pm_scatter_row(100, arm1, model="optical")  # another model is another window
    pm_scatter_row(101, arm1)  # and so is another carrier,
    assert windows() == 3
    assert len(requests) == 2  # but both read the same halfwidth and Bessel pass
    pm_scatter_row(100, arm1)  # two windows kept: (100, exact) is gone
    assert (windows(), len(requests)) == (4, 2)
    for m in (0.5, 0.7, 0.9):
        pm_scatter_row(100, PMConfig(phi_b=0.0, m=m, theta_rf=0.0, tone=3))
    assert len(requests) == 8
    pm_scatter_row(100, arm1)  # two depths kept: m = 2 is gone
    assert len(requests) == 10


@pytest.mark.parametrize("model", ["exact", "optical"])
@pytest.mark.parametrize("theta_rf", [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2,
                                      0.7, -2.3])
def test_row_applies_ladder_phase_rung_by_rung(theta_rf, model):
    # the row decides once whether theta_rf is on the quarter-turn grid; the
    # result must equal ladder_reference applied per rung, the sign of every zero
    # part included, on both sides of the carrier
    tr = Truncation()
    for m, tone, q0 in ((0.8, 1, 3), (2.0, 3, 9), (5.0, 2, 30)):
        cfg = PMConfig(phi_b=0.3, m=m, theta_rf=theta_rf, tone=tone)
        row = pm_scatter_row(q0 * tone, cfg, tr, model)
        assert min(row) < q0 * tone < max(row)
        assert _row_text(row) == _row_text(_full_array_row(q0 * tone, cfg, tr, model))


def test_memo_list_names_every_memo():
    # the fixtures that empty or forget memos read MEMOS; a new memo left out
    # of it would carry state from one test into the next
    memos = set()
    for info in pkgutil.iter_modules(eomsim.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"eomsim.{info.name}")
        memos |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__}
    assert memos == {f"phase_mod.{name}" for name in MEMOS} | {"cli.build_parser"}


def test_window_memo_checks_the_carrier_first():
    cfg = PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=1)
    pm_scatter_row(1, cfg)
    with pytest.raises(ValueError, match="mode number"):
        pm_scatter_row(True, cfg)  # equal to 1 as a memo key, but not a mode number
