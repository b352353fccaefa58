"""First-order biorthogonal perturbation theory in the junction coupling.

The uncoupled Hamiltonian is the block-diagonal sum of the system and
reservoir blocks; the perturbation is the junction bond, a structure matrix
with two unit entries scaled by t_prime.  Because every unperturbed mode
lives entirely in one block while the perturbation only bridges the blocks,
all first-order energy corrections vanish and the first-order wave-function
correction of a system mode lives entirely in the reservoir.  That
correction is the junction resolvent t' (omega0 - H0_other)^-1 H' psi0 of the
other block, one tridiagonal solve instead of a sum over its modes.  The
solve is LAPACK's ?gtsv algorithm written out in Python (``_resolvent``), so
this module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePerturbationError, DomainError
from .lattice import Hamiltonian, LatticeSpec, assemble_hamiltonian
from .spectral import ModeSet, _gaps, eigendecompose, match_mode

DEGENERACY_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class PerturbationSetup:
    """Unperturbed block Hamiltonian, coupling structure, and strength.

    ``modes`` holds the uncoupled eigensystem assembled block by block so
    that system modes are exactly zero on reservoir sites and vice versa.
    ``omega0`` is the system sites' common real onsite energy, where the
    zero mode sits, or None when they have none.
    """

    h0: Hamiltonian
    h_prime: np.ndarray
    t_prime: float
    modes: ModeSet
    omega0: float | None

    @classmethod
    def from_spec(cls, spec: LatticeSpec) -> "PerturbationSetup":
        """Build the setup from a coupled spec by cutting the junction bond.

        The junction coupling strength becomes t_prime and each block is
        eigendecomposed separately; omega0 is read from the system sites.
        """
        if spec.partition is None:
            raise DomainError("spec has no partition; nothing to cut")
        p = spec.partition
        full = assemble_hamiltonian(spec).matrix
        t_prime = float(full[p - 1, p].real)
        blocks = [eigendecompose(Hamiltonian(full[:p, :p])),
                  eigendecompose(Hamiltonian(full[p:, p:]))]
        h0 = np.zeros_like(full)
        h0[:p, :p] = full[:p, :p]
        h0[p:, p:] = full[p:, p:]
        h_prime = (full - h0).real / t_prime

        # the screen keeps each block's flags: a mode is not defective
        # because the other block has an eigenvalue next to it
        w = np.concatenate([b.eigenvalues for b in blocks])
        vectors = np.zeros_like(full)
        vectors[:p, :p] = blocks[0].right_vectors
        vectors[p:, p:] = blocks[1].right_vectors
        modes = ModeSet(
            w, vectors, _gaps(w),
            np.concatenate([b.lr_overlaps for b in blocks]),
            np.concatenate([b.near_defective for b in blocks]))
        re = spec.onsite[:p].real
        omega0 = float(re[0]) if (re == re[0]).all() else None
        return cls(Hamiltonian(h0), h_prime, t_prime, modes, omega0)

    def zero_mode_index(self) -> int:
        """Index of the unperturbed mode closest to omega0."""
        if self.omega0 is None:
            raise DomainError("system sites share no real onsite energy; "
                              "no zero mode to pick")
        return int(np.argmin(np.abs(self.modes.eigenvalues - self.omega0)))


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
    """Wave-function correction t' (w0 - H0)^-1 H' psi0 of one unperturbed mode.

    H' psi0 lies in the block the mode does not occupy, where w0 - H0 is
    regular, so this equals the sum over that block's modes nu of
    psi_nu <phi_nu|H'|psi0> / (w0 - w_nu), at the cost of one tridiagonal
    solve.  ``h_prime`` must be the junction bond ``from_spec`` builds.
    Raises for a near-defective mode, and when the solve amplifies by more
    than 1/DEGENERACY_GAP, which happens when w0 is (nearly) an eigenvalue
    of the other block, as at an exceptional point of the uncoupled
    reservoir.
    """
    modes = setup.modes
    if modes.near_defective[mode_index]:
        raise DegeneratePerturbationError(
            f"unperturbed mode {mode_index} is near-defective")
    rhs = setup.h_prime @ modes.right_vectors[:, mode_index]
    # the first reservoir site closes the junction bond
    p = int(np.flatnonzero(np.diagonal(setup.h_prime, 1))[0]) + 1
    other = slice(p, None) if rhs[p:].any() else slice(0, p)
    block = setup.h0.matrix[other, other]
    correction = np.zeros_like(rhs)
    correction[other] = _resolvent(np.diagonal(block), np.diagonal(block, 1).real,
                                   modes.eigenvalues[mode_index], rhs[other])
    return setup.t_prime * correction


def first_order_zero_mode(spec: LatticeSpec, omega0: float = 0.0) -> np.ndarray:
    """The system block's zero mode plus its first-order junction correction.

    The unperturbed mode is the system-block eigenvector with the eigenvalue
    closest to omega0, unit-norm and zero on the reservoir; the correction is
    ``first_order_wavefunction``'s reservoir solve.  Only the system block
    is decomposed, so the cost is O(N) in the reservoir length.
    """
    if spec.partition is None:
        raise DomainError("spec has no partition; nothing to cut")
    p = spec.partition
    system = LatticeSpec(spec.onsite[:p], spec.bonds[:p - 1],
                         spec.first_sublattice)
    sys_modes = eigendecompose(assemble_hamiltonian(system))
    idx = int(np.argmin(np.abs(sys_modes.eigenvalues - omega0)))
    if sys_modes.near_defective[idx]:
        raise DegeneratePerturbationError(
            f"unperturbed mode {idx} is near-defective")
    psi = np.zeros(spec.n_sites, dtype=complex)
    psi[:p] = sys_modes.right_vectors[:, idx]
    rhs = np.zeros(spec.n_sites - p, dtype=complex)
    rhs[0] = psi[p - 1]
    psi[p:] = spec.bonds[p - 1] * _resolvent(spec.onsite[p:], spec.bonds[p:],
                                             sys_modes.eigenvalues[idx], rhs)
    return psi


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
