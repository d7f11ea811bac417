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
    TwoPhotonState,
    TwoPortSpectrum,
    coherent_output,
    composition_oracle,
    dsb_settings,
    mean_field,
    port_entanglement,
    preset,
    single_drive_output,
    single_photon_output,
    ssb_settings,
    two_photon_dc_closed_form,
    two_photon_output,
)
from .lattice import (
    SidebandDecomposition,
    decompose_mode,
    mode_omega,
    sideband_mode,
)
from .phase_mod import (
    MultitonePMConfig,
    PMConfig,
    ToneDrive,
    Truncation,
    pm_generator_oracle,
    pm_multitone_row,
    pm_scatter_row,
    retained_halfwidth,
)
from .special import bessel_j_array, unitary_exp
from .splitters import (
    SplitterCoeffs,
    SplitterSpec,
    coherent_through_splitter,
    splitter_coeffs,
    splitter_generator_oracle,
    verify_reciprocity,
)

__version__ = "0.1.0"

__all__ = [
    "EOMConfig",
    "MeanFieldSeries",
    "MultitonePMConfig",
    "PMConfig",
    "PRESETS",
    "SidebandDecomposition",
    "SplitterCoeffs",
    "SplitterSpec",
    "ToneDrive",
    "Truncation",
    "TwoPhotonState",
    "TwoPortSpectrum",
    "bessel_j_array",
    "coherent_output",
    "coherent_through_splitter",
    "composition_oracle",
    "decompose_mode",
    "dsb_settings",
    "mean_field",
    "mode_omega",
    "pm_generator_oracle",
    "pm_multitone_row",
    "pm_scatter_row",
    "port_entanglement",
    "preset",
    "retained_halfwidth",
    "sideband_mode",
    "single_drive_output",
    "single_photon_output",
    "splitter_coeffs",
    "splitter_generator_oracle",
    "ssb_settings",
    "two_photon_dc_closed_form",
    "two_photon_output",
    "unitary_exp",
    "verify_reciprocity",
    "__version__",
]
