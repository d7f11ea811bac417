"""Pair statistics against the bias difference between the two arms.

One photon enters each input port of the directional-coupler device; both
arms run the same RF tone and depth, differing only in bias.  The split
probability follows cos^2 of the bias difference and the two largest Schmidt
coefficients show the output switching from a product state to a maximally
port-entangled one.
"""

import argparse
import math

from eomsim.engine import port_entanglement, preset, two_photon_output
from eomsim.phase_mod import PMConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", type=int, default=60, help="input carrier mode")
    ap.add_argument("--tone", type=int, default=2, help="RF tone in lattice units")
    ap.add_argument("--depth", type=float, default=0.4, help="modulation depth")
    ap.add_argument("--steps", type=int, default=9, help="bias points from 0 to pi/2")
    args = ap.parse_args()
    if args.steps < 2:
        ap.error(f"--steps must be at least 2 (both ends of the bias range), got {args.steps}")

    print(f"{'dphi/pi':>8} {'P(split)':>10} {'cos^2':>10} {'P(bunch)':>10} "
          f"{'sigma1':>8} {'sigma2':>8}")
    for k in range(args.steps):
        dphi = 0.5 * math.pi * k / (args.steps - 1)
        pm1 = PMConfig(phi_b=dphi, m=args.depth, theta_rf=0.0, tone=args.tone)
        pm2 = PMConfig(phi_b=0.0, m=args.depth, theta_rf=0.0, tone=args.tone)
        state = two_photon_output(preset("dc_dual", pm1=pm1, pm2=pm2), args.mode)
        sectors = state.sector_probabilities()
        svs = port_entanglement(state)
        s2 = svs[1] if len(svs) > 1 else 0.0
        bunch = sectors["both_port1"] + sectors["both_port2"]
        print(f"{dphi / math.pi:8.4f} {sectors['split']:10.6f} "
              f"{math.cos(dphi) ** 2:10.6f} {bunch:10.6f} {svs[0]:8.5f} {s2:8.5f}")


if __name__ == "__main__":
    main()
