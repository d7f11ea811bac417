"""Quantized-field simulator for dual-arm electro-optic amplitude modulators.

The model lives on a discrete frequency lattice.  Phase modulation by an
integer RF tone scatters a carrier mode across a sideband ladder; two driven
arms between a pair of splitters turn that into amplitude modulation with
port-resolved spectra, and the same map is applied to coherent states,
photon pairs, and classical mean fields.
"""

from .engine import (
    EOMConfig,
    MeanFieldSeries,
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
from .lattice import (
    SidebandDecomposition,
    decompose_mode,
    mode_omega,
)
from .phase_mod import (
    MultitonePMConfig,
    PMConfig,
    ToneDrive,
    Truncation,
    pm_multitone_row,
    pm_scatter_row,
    retained_halfwidth,
)
from .special import bessel_j_array
from .splitters import (
    SplitterCoeffs,
    SplitterSpec,
    splitter_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "EOMConfig",
    "MeanFieldSeries",
    "MultitonePMConfig",
    "PMConfig",
    "PRESETS",
    "SampleGrid",
    "SidebandDecomposition",
    "SplitterCoeffs",
    "SplitterSpec",
    "ToneDrive",
    "Truncation",
    "TwoPhotonState",
    "TwoPortSpectrum",
    "bessel_j_array",
    "coherent_output",
    "decompose_mode",
    "dsb_settings",
    "mean_field",
    "mode_omega",
    "pm_multitone_row",
    "pm_scatter_row",
    "port_entanglement",
    "preset",
    "retained_halfwidth",
    "single_photon_output",
    "splitter_coeffs",
    "ssb_settings",
    "two_photon_output",
    "__version__",
]
