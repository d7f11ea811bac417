"""Harmonic content of the quadrature-biased dual-arm device versus depth.

For each modulation depth the table lists the power in the first few
harmonic orders on both output ports.  With opposite quarter-turn biases the
even orders (including the carrier) leave entirely on port 2 and the odd
orders on port 1; the optical model makes the suppression exact, while the
exact model shows how far the lattice-wall reflection moves things for a
carrier this high (not at all, to double precision).
"""

import argparse

from eomsim.engine import dsb_settings, preset, single_photon_output
from eomsim.lattice import decompose_mode


def harmonic_powers(m: float, n0: int, tone: int, model: str) -> dict[int, tuple[float, float]]:
    pm1, pm2 = dsb_settings(m, tone)
    cfg = preset("yb_dual", pm1=pm1, pm2=pm2)
    out = single_photon_output(cfg, 1, n0, model=model)
    q0, r0 = decompose_mode(n0, tone)
    table: dict[int, tuple[float, float]] = {}
    for order in range(-4, 5):
        mode = (q0 + order) * tone - r0
        p1 = abs(out.port1.get(mode, 0.0)) ** 2
        p2 = abs(out.port2.get(mode, 0.0)) ** 2
        table[order] = (p1, p2)
    return table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", type=int, default=100, help="input carrier mode")
    ap.add_argument("--tone", type=int, default=3, help="RF tone in lattice units")
    ap.add_argument("--model", choices=("exact", "optical"), default="optical")
    args = ap.parse_args()

    print(f"carrier {args.mode}, tone {args.tone}, model {args.model}")
    print(f"{'m':>5} {'order':>6} {'P(port1)':>13} {'P(port2)':>13}")
    for m in (0.1, 0.5, 1.0, 2.0):
        for order, (p1, p2) in harmonic_powers(m, args.mode, args.tone, args.model).items():
            if p1 < 1e-30 and p2 < 1e-30:
                continue
            print(f"{m:5.2f} {order:+6d} {p1:13.6e} {p2:13.6e}")
        print()


if __name__ == "__main__":
    main()
