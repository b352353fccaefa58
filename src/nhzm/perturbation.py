"""First-order biorthogonal perturbation theory in the junction coupling.

The uncoupled Hamiltonian is the block-diagonal sum of the system and
reservoir blocks; the perturbation is the junction bond, a structure matrix
with two unit entries scaled by t_prime.  Because every unperturbed mode
lives entirely in one block while the perturbation only bridges the blocks,
all first-order energy corrections vanish and the first-order wave-function
correction of a system mode lives entirely in the reservoir.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePerturbationError, DomainError
from .lattice import Hamiltonian, LatticeSpec, assemble_hamiltonian
from .spectral import ModeSet, eigendecompose, match_mode

DEGENERACY_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class PerturbationSetup:
    """Unperturbed block Hamiltonian, coupling structure, and strength.

    ``modes`` holds the uncoupled eigensystem assembled block by block so
    that system modes are exactly zero on reservoir sites and vice versa.
    """

    h0: Hamiltonian
    h_prime: np.ndarray
    t_prime: float
    modes: ModeSet

    @classmethod
    def from_spec(cls, spec: LatticeSpec) -> "PerturbationSetup":
        """Build the setup from a coupled spec by cutting the junction bond.

        The junction coupling strength becomes t_prime and each block is
        eigendecomposed separately.
        """
        if spec.partition is None:
            raise DomainError("spec has no partition; nothing to cut")
        p = spec.partition
        n = spec.n_sites
        full = assemble_hamiltonian(spec).matrix.copy()
        t_prime = float(full[p - 1, p].real)
        h0 = full
        h0[p - 1, p] = 0.0
        h0[p, p - 1] = 0.0

        h_prime = np.zeros((n, n))
        h_prime[p - 1, p] = 1.0
        h_prime[p, p - 1] = 1.0

        sys_modes = eigendecompose(Hamiltonian(h0[:p, :p]))
        res_modes = eigendecompose(Hamiltonian(h0[p:, p:]))

        w = np.concatenate([sys_modes.eigenvalues, res_modes.eigenvalues])
        right = np.zeros((n, n), dtype=complex)
        left = np.zeros((n, n), dtype=complex)
        right[:p, :p] = sys_modes.right_vectors
        right[p:, p:] = res_modes.right_vectors
        left[:p, :p] = sys_modes.left_vectors
        left[p:, p:] = res_modes.left_vectors
        gaps_all = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(n, np.inf))
        flagged = np.concatenate([sys_modes.near_defective,
                                  res_modes.near_defective])
        overlaps = np.concatenate([sys_modes.lr_overlaps, res_modes.lr_overlaps])
        modes = ModeSet(w, right, left, gaps_all.min(axis=1), overlaps, flagged)
        return cls(Hamiltonian(h0), h_prime, t_prime, modes)

    def zero_mode_index(self) -> int:
        """Index of the unperturbed mode closest to zero energy."""
        return int(np.argmin(np.abs(self.modes.eigenvalues)))


def first_order_energy(setup: PerturbationSetup, mode_index: int) -> complex:
    """Energy correction t_prime * <phi_mu|H'|psi_mu>.

    Zero for every mode of a junction-only perturbation; the general matrix
    element is evaluated so synthetic structure matrices work too.
    """
    if setup.modes.near_defective[mode_index]:
        raise DegeneratePerturbationError(
            f"unperturbed mode {mode_index} is near-defective")
    phi = setup.modes.left_vectors[mode_index]
    psi = setup.modes.right_vectors[:, mode_index]
    return complex(setup.t_prime * (phi @ setup.h_prime @ psi))


def first_order_wavefunction(setup: PerturbationSetup,
                             mode_index: int) -> np.ndarray:
    """Wave-function correction summed over all other unperturbed modes.

    Raises when an energy denominator falls below the degeneracy gap, which
    happens when the uncoupled reservoir passes through an exceptional
    point.
    """
    modes = setup.modes
    if modes.near_defective[mode_index]:
        raise DegeneratePerturbationError(
            f"unperturbed mode {mode_index} is near-defective")
    w0 = modes.eigenvalues[mode_index]
    psi0 = modes.right_vectors[:, mode_index]
    correction = np.zeros_like(psi0)
    hp_psi = setup.h_prime @ psi0
    for nu in range(modes.n_modes):
        if nu == mode_index:
            continue
        denom = w0 - modes.eigenvalues[nu]
        element = modes.left_vectors[nu] @ hp_psi
        if element == 0:
            continue
        if modes.near_defective[nu]:
            # a coalescing pair has no biorthonormalized left vector; the
            # nondegenerate expansion is inapplicable
            raise DegeneratePerturbationError(
                f"unperturbed mode {nu} is near-defective")
        if abs(denom) < DEGENERACY_GAP:
            raise DegeneratePerturbationError(
                f"degenerate denominator between modes {mode_index} and {nu}: "
                f"gap {abs(denom):.2e}")
        correction += (element / denom) * modes.right_vectors[:, nu]
    return setup.t_prime * correction


@dataclass(frozen=True)
class PerturbationComparison:
    vector_error: float
    energy_error: float
    omega_exact: complex
    omega_perturbative: complex


def perturbation_vs_exact(spec: LatticeSpec,
                          mode_index: int | None = None) -> PerturbationComparison:
    """Compare first-order theory against the exact coupled eigenvector.

    Defaults to the zero mode.  The perturbative vector is matched to the
    exact one in phase and normalization by least-squares projection before
    the 2-norm error is taken.
    """
    return _compare_to_exact(PerturbationSetup.from_spec(spec),
                             eigendecompose(assemble_hamiltonian(spec)),
                             mode_index)


def _compare_to_exact(setup: PerturbationSetup, exact: ModeSet,
                      mode_index: int | None = None) -> PerturbationComparison:
    """``perturbation_vs_exact`` on a prebuilt setup and exact spectrum."""
    if mode_index is None:
        mode_index = setup.zero_mode_index()
    omega_pert = setup.modes.eigenvalues[mode_index] + first_order_energy(
        setup, mode_index)
    psi_pert = setup.modes.right_vectors[:, mode_index] + \
        first_order_wavefunction(setup, mode_index)

    j = match_mode(psi_pert, exact)
    psi_exact = exact.right_vectors[:, j]

    psi_pert = psi_pert / np.linalg.norm(psi_pert)
    scale = np.vdot(psi_pert, psi_exact)
    vector_error = float(np.linalg.norm(psi_exact - scale * psi_pert))
    energy_error = float(abs(exact.eigenvalues[j] - omega_pert))
    return PerturbationComparison(vector_error, energy_error,
                                  complex(exact.eigenvalues[j]),
                                  complex(omega_pert))
