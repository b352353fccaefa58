"""First-order biorthogonal perturbation theory in the junction coupling.

The chain is cut at its partition index p: the uncoupled Hamiltonian H0 is
the block-diagonal sum of the system (sites < p) and reservoir blocks, and
the perturbation is the junction bond between sites p-1 and p, the unit
bond H' scaled by t_prime.  Because every unperturbed mode lives entirely
in one block while the perturbation only bridges the blocks, all
first-order energy corrections vanish and the first-order wave-function
correction of a system mode lives entirely in the reservoir.  That
correction is the junction resolvent t' (omega0 - H0_other)^-1 H' psi0 of
the other block, one tridiagonal solve instead of a sum over its modes.
The solve is LAPACK's ?gtsv algorithm written out in Python
(``_resolvent``), so this module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePerturbationError, DomainError
from .lattice import LatticeSpec, assemble_hamiltonian
from .spectral import ModeSet, _gaps, eigendecompose, match_mode

DEGENERACY_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class PerturbationSetup:
    """A coupled chain cut at its junction: the uncoupled modes and t_prime.

    The cut is ``spec.partition``, the index p of the first reservoir site;
    the junction bond ``spec.bonds[p - 1]`` is ``t_prime``, and no
    Hamiltonian matrix is kept.  ``modes`` holds the uncoupled eigensystem,
    each block decomposed on its own: the system block's modes come first,
    then the reservoir's, each with its own block's near-defective flags,
    and the right vectors are block diagonal, so system modes are exactly
    zero on reservoir sites and vice versa.  Those vectors are the setup's
    one N x N array.  ``omega0`` is the system sites' common real onsite
    energy, where the zero mode sits, or None when they have none.
    """

    spec: LatticeSpec
    t_prime: float
    modes: ModeSet
    omega0: float | None

    @classmethod
    def from_spec(cls, spec: LatticeSpec) -> "PerturbationSetup":
        """Cut a partitioned spec at its junction and decompose each block."""
        system, reservoir = _blocks(spec)
        p = system.n_sites
        blocks = [eigendecompose(assemble_hamiltonian(system)),
                  eigendecompose(assemble_hamiltonian(reservoir))]
        # the screen keeps each block's flags: a mode is not defective
        # because the other block has an eigenvalue next to it
        w = np.concatenate([b.eigenvalues for b in blocks])
        vectors = np.zeros((spec.n_sites, spec.n_sites), dtype=complex)
        vectors[:p, :p] = blocks[0].right_vectors
        vectors[p:, p:] = blocks[1].right_vectors
        modes = ModeSet(
            w, vectors, _gaps(w),
            np.concatenate([b.lr_overlaps for b in blocks]),
            np.concatenate([b.near_defective for b in blocks]))
        re = system.onsite.real
        omega0 = float(re[0]) if (re == re[0]).all() else None
        return cls(spec, float(spec.bonds[p - 1]), modes, omega0)

    def zero_mode_index(self) -> int:
        """Index of the unperturbed mode closest to omega0."""
        if self.omega0 is None:
            raise DomainError("system sites share no real onsite energy; "
                              "no zero mode to pick")
        return int(np.argmin(np.abs(self.modes.eigenvalues - self.omega0)))


def _blocks(spec: LatticeSpec) -> tuple[LatticeSpec, LatticeSpec]:
    """The system and reservoir chains of a partitioned spec, bond cut."""
    if spec.partition is None:
        raise DomainError("spec has no partition; nothing to cut")
    p = spec.partition
    return (LatticeSpec(spec.onsite[:p], spec.bonds[:p - 1],
                        spec.first_sublattice),
            LatticeSpec(spec.onsite[p:], spec.bonds[p:], spec.sublattice(p)))


def _unperturbed(modes: ModeSet, index: int) -> tuple[complex, np.ndarray]:
    """Eigenvalue and right vector of one uncoupled mode, which first-order
    theory needs to be biorthonormalizable: a near-defective one raises."""
    if modes.near_defective[index]:
        raise DegeneratePerturbationError(
            f"unperturbed mode {index} is near-defective")
    return modes.eigenvalues[index], modes.right_vectors[:, index]


def _junction_solve(spec: LatticeSpec, w0: complex,
                    psi0: np.ndarray) -> np.ndarray:
    """(w0 - H0_other)^-1 H' psi0 for the unit junction bond H', on N sites.

    psi0 lives in one block, so H' psi0 is its amplitude at its own
    junction site moved to the other block's, and w0 - H0 is inverted on
    that other block alone, by ``_resolvent``; the result is zero on the
    block of psi0.
    """
    p = spec.partition
    rhs = np.zeros(spec.n_sites, dtype=complex)
    rhs[p - 1], rhs[p] = psi0[p], psi0[p - 1]
    if psi0[p:].any():
        other, bonds = slice(0, p), spec.bonds[:p - 1]
    else:
        other, bonds = slice(p, None), spec.bonds[p:]
    out = np.zeros_like(rhs)
    out[other] = _resolvent(spec.onsite[other], bonds, w0, rhs[other])
    return out


def first_order_energy(setup: PerturbationSetup, mode_index: int) -> complex:
    """Energy correction t' <phi_mu|H'|psi_mu> of one unperturbed mode.

    The junction bond is H''s one element, so this is
    t' (phi[p-1] psi[p] + phi[p] psi[p-1]), with the left vector
    phi = psi^T / (psi^T psi).  It is zero for every mode, which lives in
    one block and so vanishes on one side of the junction.
    """
    _, psi = _unperturbed(setup.modes, mode_index)
    p = setup.spec.partition
    phi = psi[[p - 1, p]] / (psi @ psi)
    return complex(setup.t_prime * (phi @ psi[[p, p - 1]]))


def first_order_wavefunction(setup: PerturbationSetup,
                             mode_index: int) -> np.ndarray:
    """Wave-function correction t' (w0 - H0)^-1 H' psi0 of one unperturbed mode.

    H' psi0 lies in the block the mode does not occupy, where w0 - H0 is
    regular, so this equals the sum over that block's modes nu of
    psi_nu <phi_nu|H'|psi0> / (w0 - w_nu), at the cost of one tridiagonal
    solve.  Raises for a near-defective mode, and when the solve amplifies
    by more than 1/DEGENERACY_GAP, which happens when w0 is (nearly) an
    eigenvalue of the other block, as at an exceptional point of the
    uncoupled reservoir.
    """
    w0, psi0 = _unperturbed(setup.modes, mode_index)
    return setup.t_prime * _junction_solve(setup.spec, w0, psi0)


def first_order_zero_mode(spec: LatticeSpec, omega0: float = 0.0) -> np.ndarray:
    """The system block's zero mode plus its first-order junction correction.

    The unperturbed mode is the system-block eigenvector with the eigenvalue
    closest to omega0, unit-norm and zero on the reservoir; the correction is
    ``first_order_wavefunction``'s reservoir solve, scaled by the junction
    bond.  Only the system block is decomposed, so the cost is O(N) in the
    reservoir length.
    """
    system = _blocks(spec)[0]
    modes = eigendecompose(assemble_hamiltonian(system))
    w0, psi = _unperturbed(
        modes, int(np.argmin(np.abs(modes.eigenvalues - omega0))))
    psi0 = np.zeros(spec.n_sites, dtype=complex)
    psi0[:system.n_sites] = psi
    return psi0 + spec.bonds[system.n_sites - 1] * \
        _junction_solve(spec, w0, psi0)


def _resolvent(diag: np.ndarray, off: np.ndarray, w0: complex,
               rhs: np.ndarray) -> np.ndarray:
    """(w0 - T)^-1 rhs for the symmetric tridiagonal T with diagonals diag, off.

    The algorithm is LAPACK's ?gtsv: Gaussian elimination with partial
    pivoting, which swaps rows k and k+1 when |Re d_k| + |Im d_k| < |t_k|
    and keeps the second superdiagonal that a swap fills in.  It runs step
    for step in Python complex scalars, whose products and quotients round
    as the Fortran ones do, so the result equals zgtsv's to the bit, in
    O(N) time without scipy.  The couplings off are chain bonds, all
    positive, so ?gtsv's zero-subdiagonal case cannot arise and only the
    last pivot can vanish.  Raises DegeneratePerturbationError when it is
    exactly zero (w0 - T singular) or the solve amplifies by more than
    1/DEGENERACY_GAP.
    """
    w0 = complex(w0)
    d = [w0 - x for x in diag.tolist()]
    du = [complex(-t) for t in off.tolist()]
    # the subdiagonal, overwritten with the fill-in of each row swap
    dl = du.copy()
    b = [complex(x) for x in rhs.tolist()]
    n = len(d)
    for k in range(n - 1):
        if abs(d[k].real) + abs(d[k].imag) >= abs(dl[k].real):
            mult = dl[k] / d[k]
            d[k + 1] -= mult * du[k]
            b[k + 1] -= mult * b[k]
            dl[k] = 0j
        else:
            mult = d[k] / dl[k]
            d[k], temp = dl[k], d[k + 1]
            d[k + 1] = du[k] - mult * temp
            if k < n - 2:
                dl[k] = du[k + 1]
                du[k + 1] = -(mult * dl[k])
            du[k] = temp
            b[k], b[k + 1] = b[k + 1], b[k] - mult * b[k + 1]
    if d[n - 1] == 0:
        raise DegeneratePerturbationError(
            f"w0 = {w0:.6g} is an eigenvalue of the other block")
    b[n - 1] /= d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for k in range(n - 3, -1, -1):
        b[k] = (b[k] - du[k] * b[k + 1] - dl[k] * b[k + 2]) / d[k]
    x = np.array(b)
    size_x, size_rhs = np.linalg.norm(x), np.linalg.norm(rhs)
    if not size_x * DEGENERACY_GAP <= size_rhs:
        raise DegeneratePerturbationError(
            f"degenerate resolvent at w0 = {w0:.6g}: amplification "
            f"{size_x / size_rhs:.2e} exceeds 1/DEGENERACY_GAP")
    return x


@dataclass(frozen=True)
class PerturbationComparison:
    vector_error: float
    energy_error: float
    omega_exact: complex
    omega_perturbative: complex


def perturbation_vs_exact(spec: LatticeSpec, mode_index: int | None = None
                          ) -> PerturbationComparison:
    """Compare first-order theory against the exact coupled eigenvector.

    Defaults to the zero mode, the unperturbed mode closest to the system
    sites' real onsite energy omega0.  The perturbative vector is matched
    to the exact one in phase and normalization by least-squares
    projection before the 2-norm error is taken.
    """
    setup = PerturbationSetup.from_spec(spec)
    if mode_index is None:
        mode_index = setup.zero_mode_index()
    return _compare_to_exact(setup, eigendecompose(assemble_hamiltonian(spec)),
                             mode_index)[0]


def _compare_to_exact(setup: PerturbationSetup, exact: ModeSet, mode_index: int
                      ) -> tuple[PerturbationComparison, np.ndarray, int]:
    """``perturbation_vs_exact`` on a prebuilt setup and exact spectrum.

    Also returns the unnormalized first-order vector and the index of the
    exact mode it matched, so callers need not evaluate it again.
    """
    omega_pert = setup.modes.eigenvalues[mode_index] + first_order_energy(
        setup, mode_index)
    psi_pert = setup.modes.right_vectors[:, mode_index] + \
        first_order_wavefunction(setup, mode_index)

    j = match_mode(psi_pert, exact)
    psi_exact = exact.right_vectors[:, j]

    unit = psi_pert / np.linalg.norm(psi_pert)
    scale = np.vdot(unit, psi_exact)
    vector_error = float(np.linalg.norm(psi_exact - scale * unit))
    energy_error = float(abs(exact.eigenvalues[j] - omega_pert))
    comparison = PerturbationComparison(vector_error, energy_error,
                                        complex(exact.eigenvalues[j]),
                                        complex(omega_pert))
    return comparison, psi_pert, j
