"""Quantized-field simulator for dual-arm electro-optic amplitude modulators.

The model lives on a discrete frequency lattice.  Phase modulation by an
integer RF tone scatters a carrier mode across a sideband ladder; two driven
arms between a pair of splitters turn that into amplitude modulation with
port-resolved spectra, and the same map is applied to coherent states,
photon pairs, and classical mean fields.

The root exports the device, its parts and the outputs it produces.  The
kernels behind them (the Bessel recurrence in `special`, the sideband
bookkeeping in `lattice`, the window scan and multitone row in `phase_mod`)
are imported from their own modules.
"""

from .engine import (
    EOMConfig,
    PRESETS,
    SampleGrid,
    TwoPhotonState,
    TwoPortSpectrum,
    coherent_output,
    dsb_settings,
    mean_field,
    port_entanglement,
    preset,
    single_photon_output,
    ssb_settings,
    two_photon_output,
)
from .lattice import mode_omega
from .phase_mod import (
    MultitonePMConfig,
    PMConfig,
    ToneDrive,
    Truncation,
    pm_scatter_row,
)
from .splitters import SplitterSpec, splitter_coeffs

__version__ = "0.1.0"

__all__ = [
    "EOMConfig",
    "MultitonePMConfig",
    "PMConfig",
    "PRESETS",
    "SampleGrid",
    "SplitterSpec",
    "ToneDrive",
    "Truncation",
    "TwoPhotonState",
    "TwoPortSpectrum",
    "coherent_output",
    "dsb_settings",
    "mean_field",
    "mode_omega",
    "pm_scatter_row",
    "port_entanglement",
    "preset",
    "single_photon_output",
    "splitter_coeffs",
    "ssb_settings",
    "two_photon_output",
]
