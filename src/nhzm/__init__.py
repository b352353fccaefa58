"""Zero modes of 1D non-Hermitian gain/loss lattices.

Builds finite chain Hamiltonians (a Hermitian alternating-coupling system
weakly attached to a gain/loss reservoir), locates symmetry-protected zero
modes, classifies the localization regime of their reservoir tails through
a linear recurrence relation, and provides perturbation theory, Bloch-band
exceptional-point analysis, and noisy-ensemble time evolution.
"""

__version__ = "0.1.0"

from .bands import (BlochScan, ExceptionalPoint, band_energies,
                    bloch_hamiltonian, coalescence_measure,
                    locate_exceptional_points)
from .dynamics import (EnsembleResult, EpEvolution,
                       amplification_limited_periods, critical_damping,
                       ensemble_experiment, ep_evolution, propagate)
from .lattice import (Hamiltonian, LatticeSpec, assemble_hamiltonian,
                      build_reservoir, build_ssh_chain, couple, coupled_chain)
from .localization import (Regime, RegimeReport, StaggerReport, TailFit,
                           characteristic_roots, check_stagger_phase,
                           classify_regime, compute_alpha, compute_kappa,
                           fit_tail, fit_two_root_expansion, hermitian_alpha,
                           linear_peak_amplitude, ssh_localization_length,
                           verify_eigenmode_recurrence, verify_recurrence)
from .perturbation import (PerturbationComparison, PerturbationSetup,
                           first_order_energy, first_order_wavefunction,
                           first_order_zero_mode, perturbation_vs_exact)
from .spectral import (ModeSet, ModeTrajectory, SymmetryPairing, ZeroMode,
                       assign_mode_numbers, check_spectral_symmetry,
                       eigendecompose, find_zero_modes, fit_pair_threshold,
                       lowest_zero_mode, match_mode, sweep_gamma, track_modes)

__all__ = [
    "__version__",
    "BlochScan", "ExceptionalPoint", "band_energies", "bloch_hamiltonian",
    "coalescence_measure", "locate_exceptional_points",
    "EnsembleResult", "EpEvolution", "amplification_limited_periods",
    "critical_damping", "ensemble_experiment", "ep_evolution", "propagate",
    "Hamiltonian", "LatticeSpec", "assemble_hamiltonian",
    "build_reservoir", "build_ssh_chain", "couple", "coupled_chain",
    "Regime", "RegimeReport", "StaggerReport", "TailFit",
    "characteristic_roots", "check_stagger_phase", "classify_regime",
    "compute_alpha", "compute_kappa", "fit_tail", "fit_two_root_expansion",
    "hermitian_alpha", "linear_peak_amplitude", "ssh_localization_length",
    "verify_eigenmode_recurrence", "verify_recurrence",
    "PerturbationComparison", "PerturbationSetup", "first_order_energy",
    "first_order_wavefunction", "first_order_zero_mode",
    "perturbation_vs_exact",
    "ModeSet", "ModeTrajectory", "SymmetryPairing", "ZeroMode",
    "assign_mode_numbers", "check_spectral_symmetry", "eigendecompose",
    "find_zero_modes", "fit_pair_threshold", "lowest_zero_mode",
    "match_mode", "sweep_gamma", "track_modes",
]
