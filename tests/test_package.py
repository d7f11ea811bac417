"""The package root exports the user API: the device, its parts and its outputs."""

import importlib

import pytest

import eomsim

ROOT_API = {
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
}

# kernels and internal types, importable only from the module that holds them
MODULE_ONLY = [
    ("lattice", "decompose_mode"),
    ("special", "bessel_j_array"),
    ("phase_mod", "retained_halfwidth"),
    ("phase_mod", "pm_multitone_row"),
    ("splitters", "SplitterCoeffs"),
    ("engine", "MeanFieldSeries"),
]


def test_root_exports_exactly_the_user_api():
    assert len(eomsim.__all__) == len(ROOT_API)
    assert set(eomsim.__all__) == ROOT_API
    for name in ROOT_API:
        assert getattr(eomsim, name) is not None


@pytest.mark.parametrize("module, name", MODULE_ONLY)
def test_kernels_import_from_their_module_only(module, name):
    assert not hasattr(eomsim, name)
    assert hasattr(importlib.import_module(f"eomsim.{module}"), name)


def test_removed_helpers_are_gone():
    assert not hasattr(importlib.import_module("eomsim.lattice"), "SidebandDecomposition")
    assert not hasattr(importlib.import_module("eomsim.phase_mod"), "ladder_phase")
