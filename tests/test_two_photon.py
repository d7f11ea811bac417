import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eomsim import engine
from eomsim.cli import emit_run, run_points
from eomsim.config import parse_config
from eomsim.engine import (PRESETS, PairTable, port_entanglement, preset, single_photon_output,
                           two_photon_output)
from eomsim.phase_mod import PMConfig, Truncation, pm_scatter_row
from oracles import (pair_records_loop, pair_table_accumulated, pair_table_loop, schmidt_dense,
                     schmidt_range, sum_left, two_photon_dc_closed_form)

DPHI_GRID = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]


def _pair_device(name, bias, m, tones):
    pm1 = PMConfig(phi_b=bias, m=m, theta_rf=0.0, tone=tones[0])
    pm2 = None if name.endswith("_single") else PMConfig(phi_b=0.0, m=m, theta_rf=0.0, tone=tones[1])
    return preset(name, pm1=pm1, pm2=pm2)


def _dc_pair_config(delta_phi, m=0.4, tone=2):
    return _pair_device("dc_dual", delta_phi, m, (tone, tone))


@pytest.mark.parametrize("model", ["exact", "optical"])
def test_each_arm_row_is_built_once_per_pair(monkeypatch, model):
    cfg = _pair_device("dc_dual", 0.3, 0.8, (2, 3))
    calls = []
    real = engine.pm_scatter_row

    def recorder(n0, arm, *args):
        calls.append(arm)
        return real(n0, arm, *args)

    monkeypatch.setattr(engine, "pm_scatter_row", recorder)
    state = two_photon_output(cfg, 40, model=model)
    assert calls == [cfg.pm1, cfg.pm2]  # one row per arm, shared by both input ports
    assert state.first == single_photon_output(cfg, 1, 40, model=model)
    assert state.second == single_photon_output(cfg, 2, 40, model=model)


def test_identity_device_keeps_photons_split():
    state = two_photon_output(preset("yb_dual"), 100)
    assert set(state.amps) == {((1, 100), (2, 100))}
    assert state.amps[(1, 100), (2, 100)] == pytest.approx(1.0, abs=1e-14)
    sectors = state.sector_probabilities()
    assert sectors["split"] == pytest.approx(1.0, abs=1e-12)
    svs = port_entanglement(state)
    assert len(svs) == 1
    assert svs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(svs**2) == pytest.approx(state.norm_sq(), abs=1e-12)


@pytest.mark.parametrize("dphi", DPHI_GRID)
def test_norm_and_sector_split(dphi):
    state = two_photon_output(_dc_pair_config(dphi), 60)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
    sectors = state.sector_probabilities()
    assert sum(sectors.values()) == pytest.approx(1.0, abs=1e-12)
    want_split = math.cos(dphi) ** 2
    assert sectors["split"] == pytest.approx(want_split, abs=1e-12)
    # bunched output is shared evenly between the two ports
    assert sectors["both_port1"] == pytest.approx(sectors["both_port2"], abs=1e-12)
    assert sectors["both_port1"] == pytest.approx(0.5 * math.sin(dphi) ** 2, abs=1e-12)
    # each occupied sector (1|1, 2|0, 0|2) is one Schmidt term: a matched
    # pair is a product state, full coalescence leaves the two bunched terms
    svs = port_entanglement(state)
    assert len(svs) == (1 if dphi == 0.0 else 2 if dphi == math.pi / 2 else 3)
    assert np.sum(svs**2) == pytest.approx(state.norm_sq(), abs=1e-12)


@pytest.mark.parametrize("dphi", DPHI_GRID)
def test_general_path_matches_closed_form(dphi):
    cfg = _dc_pair_config(dphi)
    state = two_photon_output(cfg, 60)
    # the closed form is driven by the common-arm scattering row
    row = pm_scatter_row(60, cfg.pm2)
    want = two_photon_dc_closed_form(dphi, row)
    keys = set(state.amps) | set(want)
    for key in keys:
        assert state.amps.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=1e-12)


def test_pair_coalescence_removes_split_outcomes():
    state = two_photon_output(_dc_pair_config(math.pi / 2), 60)
    split = [abs(a) for ((p1, _), (p2, _)), a in state.amps.items() if p1 != p2]
    assert max(split, default=0.0) < 1e-14
    svs = port_entanglement(state)
    assert len(svs) == 2
    assert svs[0] == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert svs[1] == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert np.sum(svs**2) == pytest.approx(state.norm_sq(), abs=1e-12)


def test_matched_pair_is_product_state():
    state = two_photon_output(_dc_pair_config(0.0), 60)
    svs = port_entanglement(state)
    assert len(svs) == 1
    assert svs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(svs**2) == pytest.approx(state.norm_sq(), abs=1e-12)


def test_distinct_tones_forbid_cross_ladder_pairs():
    cfg = preset(
        "dc_dual",
        pm1=PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=2),
        pm2=PMConfig(phi_b=0.0, m=0.5, theta_rf=0.0, tone=5),
    )
    state = two_photon_output(cfg, 60)
    for ((_, m1), (_, m2)), amp in state.amps.items():
        both_arm1 = (m1 - 60) % 2 == 0 and (m2 - 60) % 2 == 0
        both_arm2 = (m1 - 60) % 5 == 0 and (m2 - 60) % 5 == 0
        assert both_arm1 or both_arm2, f"cross-ladder pair {m1},{m2} with amp {amp!r}"


def test_double_occupancy_counts_twice():
    state = two_photon_output(_dc_pair_config(math.pi / 2), 60)
    manual = sum(
        (2.0 if x == y else 1.0) * abs(c) ** 2 for (x, y), c in state.amps.items()
    )
    assert state.norm_sq() == pytest.approx(manual, abs=0.0)
    key = ((1, 60), (1, 60))
    assert key in state.amps
    row = list(state.amps).index(key)
    assert state.pairs.prob[row] == 2.0 * abs(state.amps[key]) ** 2


def test_truncation_propagates_to_pairs():
    slim = two_photon_output(_dc_pair_config(0.3, m=0.3), 60, truncation=Truncation(eps=1e-4, margin=0))
    wide = two_photon_output(_dc_pair_config(0.3, m=0.3), 60)
    assert len(slim.amps) < len(wide.amps)
    assert slim.norm_sq() == pytest.approx(1.0, abs=1e-6)


def _schmidt_grid():
    for name, tones, bias, n0, model, m in itertools.product(
        ("yb_dual", "dc_dual", "hybrid_dual", "dc_single"),
        ((2, 2), (2, 5)),
        (0.0, 0.3, math.pi / 2),
        (2, 40),  # n0 = 2 puts the lattice wall inside the window
        ("exact", "optical"),
        (0.1, 0.4),
    ):
        if name.endswith("_single") and tones != (2, 2):
            continue  # arm 2 is undriven, so its tone is never used
        yield pytest.param(name, tones, bias, n0, model, m,
                           id=f"{name}-{tones[0]}/{tones[1]}-b{bias:.2f}-n{n0}-{model}-m{m}")


@pytest.mark.parametrize("name, tones, bias, n0, model, m", _schmidt_grid())
def test_block_spectrum_matches_dense_svd(name, tones, bias, n0, model, m):
    state = two_photon_output(_pair_device(name, bias, m, tones), n0, model=model)
    blocks = port_entanglement(state)
    dense, residual = schmidt_range(state)
    assert residual <= 1e-14  # the probes spanned the dense matrix's whole range
    assert len(blocks) == len(dense)
    assert np.max(np.abs(blocks - dense)) <= 1e-14


@pytest.mark.parametrize("name", ["yb_dual", "dc_dual", "hybrid_dual"])
def test_block_spectrum_matches_full_svd_on_the_largest_matrices(name):
    # n0 = 40, tones 2/5, m = 0.4 gives the grid's largest dense matrices
    state = two_photon_output(_pair_device(name, 0.3, 0.4, (2, 5)), 40)
    blocks = port_entanglement(state)
    dense = schmidt_dense(state)
    assert len(blocks) == len(dense)
    assert np.max(np.abs(blocks - dense)) <= 1e-14


@pytest.mark.parametrize("name, tones, bias, n0, model, m", _schmidt_grid())
def test_pair_table_matches_accumulated_products(name, tones, bias, n0, model, m):
    state = two_photon_output(_pair_device(name, bias, m, tones), n0, model=model)
    want = sorted(pair_table_accumulated(state.first, state.second).items())
    assert list(state.amps.items()) == want
    # == treats -0.0 and 0.0 alike; repr tells them apart
    assert [repr(c) for c in state.amps.values()] == [repr(c) for _, c in want]


def test_spectrum_does_not_build_the_pair_table():
    state = two_photon_output(_pair_device("dc_dual", 0.3, 2.0, (2, 3)), 200)
    svs = port_entanglement(state)
    assert len(svs) == 4
    assert "amps" not in vars(state)
    assert "pairs" not in vars(state)


# (preset, arm-1 bias, m, tones, n0): the depth cap, a small sweep point, the
# lattice wall inside the window and a wide window of two interleaved ladders
PAIR_STATES = {
    "depth-cap": ("dc_dual", 0.3, 50.0, (2, 3), 1000),
    "dc-m0.4-n60": ("dc_dual", 0.3, 0.4, (2, 5), 60),
    "wall-n2": ("dc_dual", 0.3, 1.5, (2, 3), 2),
    "yb-tones3/5-m5": ("yb_dual", 0.3, 5.0, (3, 5), 100),
}


def _assert_pairs_match_loop(state):
    want = pair_table_loop(state.first, state.second)
    assert list(state.amps) == list(want)
    # == treats -0.0 and 0.0 alike; repr tells them apart
    assert [repr(c) for c in state.amps.values()] == [repr(c) for c in want.values()]
    t = state.pairs
    labels = zip(zip(t.port_a.tolist(), t.mode_a.tolist()), zip(t.port_b.tolist(), t.mode_b.tolist()))
    assert list(labels) == list(want)
    assert t.prob.tolist() == [(2.0 if x == y else 1.0) * abs(c) ** 2 for (x, y), c in want.items()]


@pytest.mark.parametrize("name, bias, m, tones, n0", PAIR_STATES.values(), ids=PAIR_STATES)
def test_pair_arrays_match_the_python_loop(name, bias, m, tones, n0):
    _assert_pairs_match_loop(two_photon_output(_pair_device(name, bias, m, tones), n0))


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(PRESETS),
    tones=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    bias=st.floats(-math.pi, math.pi),
    m=st.floats(1e-3, 5.0),
    n0=st.integers(1, 300),
    model=st.sampled_from(["exact", "optical"]),
)
def test_pair_arrays_match_the_python_loop_on_random_devices(name, tones, bias, m, n0, model):
    _assert_pairs_match_loop(two_photon_output(_pair_device(name, bias, m, tones), n0, model=model))


def _pair_points(case):
    """The two-photon run points of a `PAIR_STATES` case, or of a shipped config."""
    if case.endswith(".json"):
        config = Path(__file__).resolve().parent.parent / "configs" / case
        return run_points(parse_config(config.read_text()))
    *device, n0 = PAIR_STATES[case]
    state = two_photon_output(_pair_device(*device), n0)
    return [{"point": 0, "norm": state.norm_sq(), "pairs": state.pairs,
             "sectors": state.sector_probabilities(), "singular_values": []}]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["depth-cap", "wall-n2", "dc-m0.4-n60", "dc_two_photon.json"])
def test_pair_writer_matches_the_per_record_writer(case, fmt):
    points = _pair_points(case)
    text = emit_run("two-photon", points, fmt)
    want = [pair_records_loop(p["pairs"], fmt) for p in points]
    if fmt == "csv":
        got = [line for line in text.splitlines() if line.split(",", 2)[1] == "pair"]
        assert got == ["%d,%s" % (p["point"], r) for p, records in zip(points, want) for r in records]
        return
    # the run's text with each point's pairs emptied, then the reference's records put back
    empty = [{**p, "pairs": PairTable(*(column[:0] for column in p["pairs"]))} for p in points]
    pieces = emit_run("two-photon", empty, fmt).split('"pairs": []')
    assert len(pieces) == len(points) + 1
    assert text == pieces[0] + "".join('"pairs": [\n%s\n      ]' % ",\n".join(records) + piece
                                       for records, piece in zip(want, pieces[1:]))


@pytest.mark.parametrize("name, bias, m, tones, n0", PAIR_STATES.values(), ids=PAIR_STATES)
def test_norm_and_sectors_add_pairs_left_to_right(name, bias, m, tones, n0):
    state = two_photon_output(_pair_device(name, bias, m, tones), n0)
    probs = [((x[0], y[0]), (2.0 if x == y else 1.0) * abs(c) ** 2)
             for (x, y), c in pair_table_loop(state.first, state.second).items()]
    assert state.norm_sq() == sum_left(p for _ports, p in probs)
    assert state.sector_probabilities() == {
        "both_port1": sum_left(p for ports, p in probs if ports == (1, 1)),
        "split": sum_left(p for ports, p in probs if ports == (1, 2)),
        "both_port2": sum_left(p for ports, p in probs if ports == (2, 2)),
    }


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(PRESETS),
    tones=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    bias=st.floats(-math.pi, math.pi),
    m=st.floats(1e-3, 5.0),
    n0=st.integers(1, 300),
)
def test_schmidt_rank_and_weight_from_one_photon_outputs(name, tones, bias, m, n0):
    state = two_photon_output(_pair_device(name, bias, m, tones), n0)
    svs = port_entanglement(state)
    assert 1 <= len(svs) <= 4
    assert np.sum(svs**2) == pytest.approx(state.norm_sq(), abs=1e-12)


@pytest.mark.parametrize("tones", [(1, 1), (2, 3)])
def test_schmidt_cost_is_bounded_by_the_ladder(monkeypatch, tones):
    state = two_photon_output(_pair_device("dc_dual", 0.3, 5.0, tones), 200)
    ladder = max(len(state.first.port(p).keys() | state.second.port(p).keys()) for p in (1, 2))
    assert len(state.amps) > 50 * ladder  # pairs far outnumber ladder modes
    norm = state.norm_sq()
    sizes = []
    sum_in_order = engine._sum_in_order

    def recording_sum(values, *args):
        sizes.append(np.shape(values)[-1])
        return sum_in_order(values, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("port_entanglement called LAPACK")

    for name in ("qr", "svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(engine, "_sum_in_order", recording_sum)
    svs = port_entanglement(state)
    assert sizes and max(sizes) <= ladder  # every sum runs over one port's modes, not the pairs
    assert len(sizes) == 8  # per port: the Gram entries, two projections and r11
    assert np.sum(svs**2) == pytest.approx(norm, abs=1e-12)


EPS = np.finfo(float).eps
PART = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
AMPLITUDE = st.builds(complex, PART, PART)


@st.composite
def _cores(draw):
    """Complex 2x2 matrices of rank 0, 1 or 2, equal singular values or a zero first column."""
    kind = draw(st.sampled_from(["full", "rank1", "rank0", "equal", "zero-column"]))
    a, b, c, d = (draw(AMPLITUDE) for _ in range(4))
    if kind == "rank1":
        core = ((a * c, a * d), (b * c, b * d))
    elif kind == "rank0":
        core = ((0j, 0j), (0j, 0j))
    elif kind == "equal":  # d times the unitary [[a, b], [-conj(b), conj(a)]]
        a = a if a or b else 1 + 0j
        size = math.hypot(abs(a), abs(b))
        a, b = a / size, b / size
        core = ((d * a, d * b), (-d * b.conjugate(), d * a.conjugate()))
    elif kind == "zero-column":
        core = ((0j, c), (0j, d))
    else:
        core = ((a, b), (c, d))
    scale = complex(10.0 ** draw(st.integers(-150, 150)))
    return tuple(tuple(scale * x for x in row) for row in core)


@settings(max_examples=400, deadline=None)
@given(core=_cores())
def test_closed_form_2x2_svd_matches_lapack(core):
    got = np.sort(engine._svd_2x2(core))[::-1]
    want = np.linalg.svd(np.array(core), compute_uv=False)
    assert np.all(np.abs(got - want) <= 4 * EPS * want[0])


@settings(max_examples=200, deadline=None)
@given(
    x=st.dictionaries(st.integers(1, 60), AMPLITUDE, max_size=30),
    y=st.dictionaries(st.integers(1, 60), AMPLITUDE, max_size=30),
    parallel=st.sampled_from([None, 1j, 0.3 - 2j]),
)
def test_gram_schmidt_r_factor_matches_lapack_moduli(x, y, parallel):
    if parallel is not None:  # rank one: r11 is round-off
        y = {mode: parallel * amp for mode, amp in x.items()}
    modes = sorted(x.keys() | y.keys())
    u = np.array([(x.get(m, 0.0), y.get(m, 0.0)) for m in modes], dtype=complex).reshape(-1, 2)
    (r00, r01, r11), rows, _norm, _pairs = engine._port_factors(x, y)
    assert rows == len(modes)
    if r00 == 0.0:  # a zero x column: R = [[0, |y|], [0, 0]]
        assert not np.any(u[:, 0])
        assert (r01, r11) == (pytest.approx(np.linalg.norm(u[:, 1]), rel=4 * EPS), 0.0)
        return
    want = np.zeros((2, 2))
    want[:min(rows, 2)] = np.abs(np.linalg.qr(u, mode="r"))
    assert np.max(np.abs(np.array([[r00, abs(r01)], [0.0, r11]]) - want)) <= 4 * EPS * np.linalg.norm(u, 2)


def test_schmidt_spectrum_at_depth_cap():
    state = two_photon_output(_pair_device("dc_dual", 0.3, 50.0, (2, 3)), 1000)
    svs = port_entanglement(state)
    assert np.all(svs[:-1] >= svs[1:])
    assert np.sum(svs**2) == pytest.approx(state.norm_sq(), abs=1e-12)
