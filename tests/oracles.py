"""Independent reference implementations used only by the tests.

The Bessel references are stdlib-only, so they avoid the backward
recurrence used inside the package and an agreement between the two is
meaningful.  The package holds no general matrix exponential: `unitary_exp`
exponentiates a Hermitian generator through one LAPACK eigh, and
`unitary_exp_taylor`, a plain Taylor sum in numpy arithmetic, checks it.
`pm_generator_full` and `composition_full` exponentiate the hopping
generator over the whole lattice 1..n_max, every ladder chain at once, and
`pm_generator_chain_eigh` exponentiates the carrier's chain alone; both go
through `unitary_exp` and are references for the exact-eigenbasis row of
`eomsim.verify.pm_generator_oracle`.
The closed forms below (sideband rungs, a coherent splitter, the
single-drive Y-branch, the coupler photon pair) are written out as explicit
expressions rather than calls into the general device path,
`pair_table_loop` builds the pair table by a double loop of Python complex
products, `pair_table_accumulated` sums it product by product,
`pair_records_loop` prints each pair record with one % over its values,
`sum_left` adds floats in a plain loop, `halfwidth_full_scan` finds the
retained window in one fixed-length Bessel array that ignores eps,
`shared_lattice` sizes one generator lattice for both arms,
`schmidt_dense` and `schmidt_range` decompose the full port coefficient
matrix that `port_entanglement` reads off the two one-photon outputs (by a
full SVD and by a randomized range finder),
`mean_field_scalar` samples the classical field one time and one term at a
time with stdlib trigonometry, `sample_grid_loop` builds a mean-field
sample grid one time at a time, and `arm_reach` models an arm's top mode and
summed row amplitudes without evaluating the row, the a-priori field bound
the config parser used before it measured the point's own output.
"""

import cmath
import functools
import math

import numpy as np

from eomsim.engine import MeanFieldSeries, PairTable, TwoPhotonState, TwoPortSpectrum
from eomsim.lattice import TWO_PI, decompose_mode, mode_omega
from eomsim.phase_mod import MultitonePMConfig, PMConfig, Truncation, pm_scatter_row, retained_halfwidth
from eomsim.special import bessel_j_array
from eomsim.splitters import splitter_coeffs


def bessel_series(s: int, m: float, terms: int = 60) -> float:
    """Ascending power series for J_s(m).

    Accurate to near machine precision for |m| up to roughly 10; beyond that
    the alternating terms cancel catastrophically and the result is garbage,
    which is why the integral form below exists.
    """
    if s < 0:
        raise ValueError("series oracle takes s >= 0")
    half = 0.5 * m
    term = half**s / math.factorial(s)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (s + k))
        total += term
    return total


def bessel_integral(s: int, m: float, npts: int = 800) -> float:
    """Midpoint rule for J_s(m) = (1/pi) int_0^pi cos(s tau - m sin tau) dtau.

    The integrand is smooth and periodic-like over the interval, so the
    midpoint rule converges spectrally; npts = 800 is far more than enough
    for s, m up to 50.
    """
    if s < 0:
        raise ValueError("integral oracle takes s >= 0")
    total = 0.0
    for k in range(npts):
        tau = math.pi * (k + 0.5) / npts
        total += math.cos(s * tau - m * math.sin(tau))
    return total / npts


def bessel_reference(s: int, m: float) -> float:
    """Pick whichever oracle is trustworthy for this argument."""
    s_abs = abs(s)
    m_val = m
    sign = 1.0
    if m_val < 0.0:
        m_val = -m_val
        sign *= -1.0 if s_abs % 2 else 1.0
    if s < 0:
        sign *= -1.0 if s_abs % 2 else 1.0
    base = bessel_series(s_abs, m_val) if m_val <= 8.0 else bessel_integral(s_abs, m_val)
    return sign * base


def unitary_exp(gen: np.ndarray) -> np.ndarray:
    """exp(1j*G) for a Hermitian matrix G, from one eigendecomposition.

    G = V diag(w) V^H with V unitary (LAPACK eigh), so exp(1j*G) =
    V diag(exp(1j*w)) V^H.  A Hermitian eigenbasis is perfectly conditioned,
    which makes this the stable route (Moler & Van Loan, SIAM Rev. 45, 2003).
    eigh reads only one triangle, hence the explicit Hermitian check.
    """
    g = np.asarray(gen, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {g.shape}")
    n = g.shape[0]
    if n == 0:
        raise ValueError("generator must have dimension >= 1")
    scale = max(1.0, float(np.max(np.abs(g))))
    defect = float(np.max(np.abs(g - g.conj().T)))
    if defect > 1e-14 * scale:
        raise ValueError(f"generator is not Hermitian (defect {defect:.3e})")

    w, v = np.linalg.eigh(g)
    return (v * np.exp(1j * w)) @ v.conj().T


def unitary_exp_taylor(gen: np.ndarray, terms: int = 30) -> np.ndarray:
    """Plain Taylor sum of exp(1j*G), with no scaling or squaring.

    Only valid for a 1-norm of G at most 1: the truncation error is then
    below 1/terms!, far under double precision for the default 30 terms.
    """
    g = np.asarray(gen, dtype=np.complex128)
    if np.linalg.norm(g, 1) > 1.0 + 1e-12:
        raise ValueError("Taylor oracle needs a 1-norm of at most 1")
    a = 1j * g
    term = np.eye(g.shape[0], dtype=np.complex128)
    total = term.copy()
    for k in range(1, terms):
        term = term @ a / k
        total += term
    return total


def pm_generator_full(cfg: PMConfig, n_max: int) -> np.ndarray:
    """Full one-photon scattering matrix from the lattice hopping generator.

    Builds the n_max x n_max Hermitian generator with bias phi_b on the
    diagonal and hopping chi = exp(j theta_rf) m / 2 between modes n and
    n + N, then exponentiates.  Row i (0-based) holds the output amplitudes
    for input mode i + 1.
    """
    chi = 0.5 * cfg.m * cmath.exp(1j * cfg.theta_rf)
    gen = np.zeros((n_max, n_max), dtype=np.complex128)
    np.fill_diagonal(gen, cfg.phi_b)
    for i in range(n_max - cfg.tone):
        gen[i, i + cfg.tone] = chi
        gen[i + cfg.tone, i] = chi.conjugate()
    return unitary_exp(gen)


def pm_generator_chain_eigh(cfg: PMConfig, n0: int, n_max: int) -> dict[int, complex]:
    """Row n0 of exp(jG) from the carrier's chain, through `unitary_exp`.

    Builds the tridiagonal generator of the chain n0 + kN inside 1..n_max
    (bias phi_b, hopping chi = exp(j theta_rf) m / 2) and exponentiates the
    whole chain by LAPACK eigh, then keeps the carrier's row as
    {mode: amplitude}.
    """
    modes = range((n0 - 1) % cfg.tone + 1, n_max + 1, cfg.tone)
    hop = np.full(len(modes) - 1, 0.5 * cfg.m * cmath.exp(1j * cfg.theta_rf))
    gen = np.diag(np.full(len(modes), cfg.phi_b, dtype=np.complex128))
    gen += np.diag(hop, 1) + np.diag(hop.conj(), -1)
    return dict(zip(modes, unitary_exp(gen)[modes.index(n0)].tolist()))


def composition_full(cfg, input_port: int, n0: int, n_max: int) -> np.ndarray:
    """Port-1 and port-2 amplitudes over modes 1..n_max, shape (2, n_max).

    Row n0 of each arm's `pm_generator_full` matrix (the basis vector of n0
    for an undriven arm), weighted by the input table's row for the input
    port and mixed by the output table, entry by entry.
    """
    arms = []
    for arm in (cfg.pm1, cfg.pm2):
        if arm is None:
            row = np.zeros(n_max, dtype=np.complex128)
            row[n0 - 1] = 1.0
        else:
            row = pm_generator_full(arm, n_max)[n0 - 1]
        arms.append(row)
    w_in = splitter_coeffs(cfg.splitter_in).as_matrix()[input_port - 1]
    mat_out = splitter_coeffs(cfg.splitter_out).as_matrix()
    arm1, arm2 = w_in[0] * arms[0], w_in[1] * arms[1]
    return np.array([
        mat_out[0, 0] * arm1 + mat_out[1, 0] * arm2,
        mat_out[0, 1] * arm1 + mat_out[1, 1] * arm2,
    ])


def halfwidth_full_scan(m: float, truncation: Truncation) -> int:
    """Retained half-width from one Bessel array of int(m) + 401 orders.

    The array length does not depend on eps: for m <= 50 every J_s(m) past
    order int(m) + 361 is 0.0, so the scan always stops inside it.
    """
    if m == 0.0:
        return truncation.margin
    top = int(m) + 401
    jarr = _full_scan_array(m)
    s = int(m) + 1
    while s < top and abs(jarr[s]) >= truncation.eps:
        s += 1
    return s + truncation.margin


@functools.lru_cache(maxsize=1)
def _full_scan_array(m: float) -> np.ndarray:
    # one array per depth, reused while a test scans it for several eps
    return bessel_j_array(int(m) + 401, m)


def shared_lattice(cfg, n0: int) -> int:
    """One lattice 1..n_max for both arms, sized by the arm that reaches highest.

    Each driven arm needs `hw + 12` rungs of its own tone past its carrier
    rung q0; the shared lattice takes the largest of those tops, so an arm
    with the smaller tone exponentiates modes it never reaches.
    """
    top = n0 + 8
    for arm in (cfg.pm1, cfg.pm2):
        if isinstance(arm, PMConfig):
            dec = decompose_mode(n0, arm.tone)
            hw = retained_halfwidth(arm.m, Truncation())
            top = max(top, (dec.q0 + hw + 12) * arm.tone)
    return top


def sideband_mode(q: int, tone: int, r0: int) -> int:
    """Lattice mode at sideband rung q of the ladder q*tone - r0."""
    if not isinstance(tone, int) or isinstance(tone, bool) or tone < 1:
        raise ValueError(f"RF tone must be an integer harmonic >= 1, got {tone!r}")
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"sideband rung must be an integer >= 1, got {q!r}")
    if not isinstance(r0, int) or not 0 <= r0 < tone:
        raise ValueError(f"ladder offset must satisfy 0 <= r0 < tone, got {r0!r}")
    return q * tone - r0


def coherent_through_splitter(coeffs, alpha: complex, beta: complex) -> tuple[complex, complex]:
    """Displacement amplitudes after the splitter for inputs (alpha, beta).

    Coherent amplitudes transform with the same table as the creation
    operators: output port 1 carries t'*alpha + r*beta, port 2 carries
    r'*alpha + t*beta.  Total power |alpha|^2 + |beta|^2 is conserved.
    """
    out1 = coeffs.tp * alpha + coeffs.r * beta
    out2 = coeffs.rp * alpha + coeffs.t * beta
    return out1, out2


def single_drive_output(cfg, n0: int, truncation=None, model: str = "exact") -> TwoPortSpectrum:
    """Closed form for the dual Y-branch with only arm 1 driven.

    Port 1 carries (C_q + delta_{q,q0}) / 2 and port 2 (-C_q + delta_{q,q0})
    / 2.  Requires the balanced Y-branch preset weights and an undriven
    arm 2.
    """
    if cfg.pm2 is not None:
        raise ValueError("single-drive closed form requires an undriven arm 2")
    if not isinstance(cfg.pm1, PMConfig):
        raise ValueError("single-drive closed form requires an exact single-tone arm 1")
    ci, co = splitter_coeffs(cfg.splitter_in), splitter_coeffs(cfg.splitter_out)
    # (arm 1, arm 2) weights from input port 1 to output port 1, then port 2
    got = (ci.tp * co.tp, ci.rp * co.r, ci.tp * co.rp, ci.rp * co.t)
    expected = (0.5, 0.5, -0.5, 0.5)
    if any(abs(g - e) > 1e-12 for g, e in zip(got, expected)):
        raise ValueError("single-drive closed form requires the balanced dual Y-branch preset")
    row = pm_scatter_row(n0, cfg.pm1, truncation, model)
    port1 = {mode: 0.5 * amp for mode, amp in row.items()}
    port1[n0] = port1.get(n0, 0.0) + 0.5
    port2 = {mode: -0.5 * amp for mode, amp in row.items()}
    port2[n0] = port2.get(n0, 0.0) + 0.5
    return TwoPortSpectrum(
        port1={m: a for m, a in sorted(port1.items()) if a != 0.0},
        port2={m: a for m, a in sorted(port2.items()) if a != 0.0},
    )


def two_photon_dc_closed_form(delta_phi: float, b_row: dict[int, complex]) -> dict:
    """Pair amplitudes of the 3-dB coupler pair with arm bias difference.

    With both arms driven identically up to a bias offset delta_phi, the
    state is -exp(j dphi) { sin(dphi)/2 * [(b+)^2 port1 - (b+)^2 port2]
    + cos(dphi) * (b+ port1)(b+ port2) } acting on vacuum, where b+ is the
    common modulated-photon operator.  One photon leaves each port with
    probability cos^2(dphi); both bunch onto one port with probability
    sin^2(dphi)/2 each.  Returns {pair key: amplitude} over nonzero pairs.
    """
    factor = complex(math.cos(delta_phi), math.sin(delta_phi))
    bb_w = -0.5 * factor * math.sin(delta_phi)
    split_w = -factor * math.cos(delta_phi)
    amps: dict = {}
    modes = sorted(b_row)
    for i, mode_a in enumerate(modes):
        for mode_b in modes[i:]:
            pair_coeff = b_row[mode_a] * b_row[mode_b]
            if mode_a != mode_b:
                pair_coeff *= 2.0
            _add(amps, ((1, mode_a), (1, mode_b)), bb_w * pair_coeff)
            _add(amps, ((2, mode_a), (2, mode_b)), -bb_w * pair_coeff)
    for mode_a in modes:
        for mode_b in modes:
            _add(amps, ((1, mode_a), (2, mode_b)), split_w * b_row[mode_a] * b_row[mode_b])
    return {k: c for k, c in amps.items() if c != 0.0}


def pair_table_loop(first: TwoPortSpectrum, second: TwoPortSpectrum) -> dict:
    """Pair amplitudes by a double loop of Python complex products over sorted labels.

    For labels x <= y, first_x*second_y from 0j, plus first_y*second_x when
    x != y; a missing entry is 0j.  Every operand is a Python complex, so the
    sums do not depend on how the interpreter mixes reals with complexes.
    Keeps the nonzero sums, in sorted key order.
    """
    labels = sorted({(p, m) for spec in (first, second) for p in (1, 2) for m in spec.port(p)})
    rows = [(x, first.port(x[0]).get(x[1], 0j), second.port(x[0]).get(x[1], 0j)) for x in labels]
    out: dict = {}
    for i, (x, ax, bx) in enumerate(rows):
        for y, ay, by in rows[i:]:
            c = 0j + ax * by  # a running sum from 0j: a -0.0 product part adds as +0.0
            if x != y:
                c = c + ay * bx
            if c != 0.0:
                out[x, y] = c
    return out


def pair_table_accumulated(first: TwoPortSpectrum, second: TwoPortSpectrum) -> dict:
    """Pair amplitudes by accumulating every product of the two one-photon outputs.

    Walks every (first entry, second entry) product and adds it into the
    unordered pair key, starting from 0j, then drops exact zeros.  The dict
    is in first-insertion order, not sorted.
    """
    amps: dict = {}
    entries_b = [
        ((port, mode), amp)
        for port, row in ((1, second.port1), (2, second.port2))
        for mode, amp in row.items()
    ]
    for port_a, row_a in ((1, first.port1), (2, first.port2)):
        for mode_a, amp_a in row_a.items():
            label_a = (port_a, mode_a)
            for label_b, amp_b in entries_b:
                key = (label_a, label_b) if label_a <= label_b else (label_b, label_a)
                amps[key] = amps.get(key, 0j) + amp_a * amp_b
    return {k: c for k, c in amps.items() if c != 0.0}


# A pair record as the CLI prints it: %d for each label field, then %.17g
# (CSV, after the point column) or %r (JSON) for each float.
PAIR_RECORD_LAYOUTS = {
    "csv": "pair,%d,%d,%d,%d,%.17g,%.17g,%.17g",
    "json": "        {\n" + ",\n".join(
        '          "%s": %%%s' % kv for kv in (("port_a", "d"), ("mode_a", "d"), ("port_b", "d"),
                                            ("mode_b", "d"), ("re", "r"), ("im", "r"), ("prob", "r"))
    ) + "\n        }",
}


def pair_records_loop(table: PairTable, fmt: str) -> list[str]:
    """Each pair record's text from one % over its tuple of Python values, one float at a time."""
    layout = PAIR_RECORD_LAYOUTS[fmt]
    return [layout % record for record in zip(*(column.tolist() for column in table))]


def sum_left(values) -> float:
    """Float sum added one value at a time, left to right, from 0.0."""
    total = 0.0
    for value in values:
        total += value
    return total


def _add(amps: dict, key, val: complex) -> None:
    if val != 0.0:
        a, b = key
        k = key if a <= b else (b, a)
        amps[k] = amps.get(k, 0j) + val


def pair_label_matrix(state: TwoPhotonState) -> np.ndarray:
    """The full port coefficient matrix, indexed by pair labels.

    Rows index every occupation state of port 1 (both photons, one photon,
    vacuum), columns those of port 2, so the matrix grows with the square of
    the pair count.
    """
    rows: dict[tuple, int] = {}
    cols: dict[tuple, int] = {}
    entries = []
    for ((p1, m1), (p2, m2)), c in sorted(state.amps.items()):
        if p1 == 1 and p2 == 1:
            row_label: tuple = ("two", m1, m2)
            col_label: tuple = ("vac",)
            qamp = c * (math.sqrt(2.0) if m1 == m2 else 1.0)
        elif p1 == 2 and p2 == 2:
            row_label = ("vac",)
            col_label = ("two", m1, m2)
            qamp = c * (math.sqrt(2.0) if m1 == m2 else 1.0)
        else:
            row_label = ("one", m1)
            col_label = ("one", m2)
            qamp = c
        rows.setdefault(row_label, len(rows))
        cols.setdefault(col_label, len(cols))
        entries.append((rows[row_label], cols[col_label], qamp))
    mat = np.zeros((len(rows), len(cols)), dtype=np.complex128)
    for i, j, qamp in entries:
        mat[i, j] += qamp
    return mat


def _significant(svs: np.ndarray, shape: tuple) -> np.ndarray:
    """Same cutoff as `port_entanglement`: values above sigma_max * max(shape) * eps."""
    return svs[svs > svs[0] * max(shape) * np.finfo(float).eps]


def schmidt_dense(state: TwoPhotonState) -> np.ndarray:
    """Schmidt coefficients from one full SVD of `pair_label_matrix`."""
    mat = pair_label_matrix(state)
    if not mat.size:
        return np.zeros(0)
    return _significant(np.linalg.svd(mat, compute_uv=False), mat.shape)


def schmidt_range(state: TwoPhotonState) -> tuple[np.ndarray, float]:
    """Schmidt coefficients of `pair_label_matrix` M by a randomized range finder.

    Q = qr(M @ Omega) for 8 seeded complex Gaussian columns Omega, then the
    SVD of the small matrix Q^H M (Halko, Martinsson & Tropp, SIAM Rev. 53,
    2011).  M has rank <= 4 (one vacuum row, one vacuum column and a rank-2
    split block), so 8 probes capture its range.  Also returns the residual
    ||M - Q Q^H M||_F, which is round-off only when Q spans the whole range,
    i.e. when the values returned are all of M's.
    """
    mat = pair_label_matrix(state)
    if not mat.size:
        return np.zeros(0), 0.0
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((mat.shape[1], 8)) + 1j * rng.standard_normal((mat.shape[1], 8))
    q, _ = np.linalg.qr(mat @ omega)
    proj = q.conj().T @ mat
    residual = float(np.linalg.norm(mat - q @ proj))
    return _significant(np.linalg.svd(proj, compute_uv=False), mat.shape), residual


def mean_field_scalar(
    spectrum: TwoPortSpectrum,
    port: int,
    times,
    nu: float = 1.0,
    length: float = TWO_PI,
    field_scale: float = 1.0,
) -> MeanFieldSeries:
    """`engine.mean_field` as a per-sample loop of complex scalar rotations."""
    amps = spectrum.port(port)
    terms = tuple(
        (mode, mode_omega(mode, nu, length),
         1j * complex(field_scale) * complex(math.sqrt(mode_omega(mode, nu, length))) * amps[mode])
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


def sample_grid_loop(t_start: float, t_stop: float, samples: int) -> tuple[float, ...]:
    """The mean-field sample times of a config, one Python float product at a time."""
    if samples == 1:
        return (float(t_start),)
    step = (t_stop - t_start) / (samples - 1)
    return tuple(t_start + k * step for k in range(samples))


def arm_reach(arm, n0: int, truncation: Truncation) -> tuple[int, float]:
    """Top lattice mode an arm's row reaches from carrier n0, and a bound on its sum of |amplitude|."""
    if isinstance(arm, MultitonePMConfig):
        return (n0 + max((drive.tone for drive in arm.tones), default=0),
                1.0 + 2.0 * sum(drive.m for drive in arm.tones))
    if arm is None or arm.m == 0.0:
        return n0, 1.0
    dec = decompose_mode(n0, arm.tone)
    hw = retained_halfwidth(arm.m, truncation)
    # each exact entry J_s - (-1)^q0 J_{s+2q0} has magnitude at most 2
    return (dec.q0 + hw) * arm.tone - dec.r0, 2.0 * (2 * hw + 1)


def reach_field_bound(eom, n0: int, truncation: Truncation) -> tuple[int, float]:
    """The top reachable mode, and the field bound per unit |field_scale*alpha| at nu = 1, length = 2*pi.

    2*sqrt(2)*sqrt(omega_top) times the arms' summed amplitude bounds from
    `arm_reach`: the rule the config parser applied before it measured the
    point's output.
    """
    reach = [arm_reach(arm, n0, truncation) for arm in (eom.pm1, eom.pm2)]
    top = max(top for top, _ in reach)
    return top, 2.0 * math.sqrt(2.0) * math.sqrt(mode_omega(top)) * sum(r for _, r in reach)
