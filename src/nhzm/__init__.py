"""Zero modes of 1D non-Hermitian gain/loss lattices.

Builds finite chain Hamiltonians (a Hermitian alternating-coupling system
weakly attached to a gain/loss reservoir), locates symmetry-protected zero
modes, classifies the localization regime of their reservoir tails through
a linear recurrence relation, and provides perturbation theory, Bloch-band
exceptional-point analysis, and noisy-ensemble time evolution.

``import nhzm`` loads no submodule: each exported name imports its module
on first access (PEP 562), so a process pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each submodule: the one list behind both __all__
# and the lazy lookup below
_EXPORTS = {
    "bands": ("BlochScan", "ExceptionalPoint", "band_energies",
              "bloch_hamiltonian", "coalescence_measure",
              "locate_exceptional_points"),
    "dynamics": ("EnsembleResult", "EpEvolution",
                 "amplification_limited_periods", "critical_damping",
                 "ensemble_experiment", "ep_evolution", "propagate"),
    "lattice": ("Hamiltonian", "LatticeSpec", "assemble_hamiltonian",
                "build_reservoir", "couple",
                "coupled_chain"),
    "localization": ("Regime", "RegimeReport", "StaggerReport", "TailFit",
                     "characteristic_roots", "check_stagger_phase",
                     "classify_regime", "compute_alpha", "compute_kappa",
                     "fit_tail", "fit_two_root_expansion", "hermitian_alpha",
                     "linear_peak_amplitude",
                     "verify_eigenmode_recurrence", "verify_recurrence"),
    "perturbation": ("PerturbationComparison", "PerturbationSetup",
                     "first_order_energy", "first_order_wavefunction",
                     "first_order_zero_mode", "perturbation_vs_exact"),
    "spectral": ("ModeSet", "SymmetryPairing", "TrackedSweep", "ZeroMode",
                 "chain_modes", "check_spectral_symmetry", "eigendecompose",
                 "find_zero_modes", "fit_pair_threshold", "lowest_zero_mode",
                 "match_mode", "sweep_gamma", "track_modes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
# the layers and the exceptions they raise are reachable as, say,
# ``nhzm.spectral`` after a bare ``import nhzm``
_SUBMODULES = {*_EXPORTS, "errors"}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
