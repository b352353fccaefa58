"""Construction of 1D tight-binding lattice specifications and their Hamiltonians.

A lattice is a finite chain of sites carrying a complex onsite energy
(real detuning plus imaginary gain/loss rate) and a sublattice label that
alternates along the chain.  A positive bond couples every pair of
adjacent sites and no others.  A spec stores these as arrays and may
record a partition index marking where a weakly coupled reservoir begins.  All quantities are in units of the reference coupling t, with the
homogeneous onsite energy as the zero of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# ``_require_dense`` reads the limit as a global of this module
from .errors import DENSE_MAX_SITES, EigensolverError, InvalidSpecError


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Declarative description of a finite chain, stored as its own arrays.

    Parameters
    ----------
    onsite : array_like of complex, length N >= 1
        Onsite energy of each site (real detuning plus i * gain/loss rate).
    bonds : array_like of float, length N - 1
        Strength of the bond between sites j and j + 1; finite and > 0, so
        every spec is one connected chain.
    first_sublattice : {"A", "B"}
        Label of site 0.  Labels alternate along the chain, so this one
        fixes the label of every site.
    partition : int or None
        Index of the first reservoir site, or None for a standalone lattice.

    Both arrays are copied on construction and read-only afterwards, so
    instances are immutable and safe to share between threads.  ``==`` and
    ``hash`` compare the partition, the label and the bytes of the arrays.
    """

    onsite: np.ndarray
    bonds: np.ndarray
    first_sublattice: str = "A"
    partition: int | None = None

    def __post_init__(self):
        onsite = np.array(self.onsite, dtype=complex)
        bonds = np.array(self.bonds, dtype=float)
        if onsite.ndim != 1 or onsite.size == 0:
            raise InvalidSpecError("onsite must be a non-empty 1-D array")
        if bonds.shape != (onsite.size - 1,):
            raise InvalidSpecError(
                f"{onsite.size} sites need {onsite.size - 1} bonds, "
                f"got shape {bonds.shape}")
        if not np.isfinite(onsite).all():
            raise InvalidSpecError("onsite energies must be finite")
        if not (np.isfinite(bonds) & (bonds > 0)).all():
            raise InvalidSpecError("bond strengths must be finite and positive")
        if self.first_sublattice not in ("A", "B"):
            raise InvalidSpecError(
                f"sublattice must be 'A' or 'B', got {self.first_sublattice!r}")
        if self.partition is not None and not 0 < self.partition < onsite.size:
            raise InvalidSpecError(f"partition {self.partition} out of range")
        onsite.flags.writeable = False
        bonds.flags.writeable = False
        object.__setattr__(self, "onsite", onsite)
        object.__setattr__(self, "bonds", bonds)

    def _key(self) -> tuple:
        return (self.partition, self.first_sublattice, self.onsite.tobytes(),
                self.bonds.tobytes())

    def __eq__(self, other):
        if not isinstance(other, LatticeSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_sites(self) -> int:
        return self.onsite.size

    def sublattice(self, j: int) -> str:
        """Label of site j: ``first_sublattice`` on even j, the other on odd."""
        return "AB"[(j + (self.first_sublattice == "B")) % 2]

    def sublattices(self) -> tuple[str, ...]:
        pair = "AB" if self.first_sublattice == "A" else "BA"
        return tuple(pair * (self.n_sites // 2 + 1))[:self.n_sites]

    def reservoir_sites(self) -> range:
        """Site indices of the reservoir region (whole chain if no partition)."""
        start = 0 if self.partition is None else self.partition
        return range(start, self.n_sites)

    def reservoir_gamma(self) -> float:
        """Gain/loss magnitude of the reservoir's alternating modulation.

        Requires the reservoir onsite imaginary parts to alternate in sign
        with a common magnitude (a Hermitian reservoir returns 0).  The
        value is derived once per spec; an invalid reservoir raises on
        every call.
        """
        return self._reservoir_gamma

    @cached_property
    def _reservoir_gamma(self) -> float:
        imag = self.onsite.imag[self.reservoir_sites().start:]
        gamma = float(np.abs(imag).max())
        if gamma == 0.0:
            return 0.0
        expect = imag[0] * _alternating(imag.size, 1.0, -1.0)
        if (np.abs(imag - expect) > 1e-12 * gamma).any():
            raise InvalidSpecError(
                "reservoir gain/loss does not alternate with one magnitude")
        return gamma

    def reservoir_couplings(self) -> tuple[float, float]:
        """The two alternating bond strengths inside the reservoir.

        Returns ``(t, t)`` for a uniform reservoir.  A single-site reservoir
        has no internal bonds and raises.  Derived once per spec, like
        ``reservoir_gamma``.
        """
        return self._reservoir_couplings

    @cached_property
    def _reservoir_couplings(self) -> tuple[float, float]:
        strengths = self.bonds[self.reservoir_sites().start:]
        if not strengths.size:
            raise InvalidSpecError("reservoir has no internal couplings")
        t_a = float(strengths[0])
        t_b = float(strengths[1]) if strengths.size > 1 else t_a
        expect = _alternating(strengths.size, t_a, t_b)
        if (np.abs(strengths - expect) > 1e-12 * max(t_a, t_b)).any():
            raise InvalidSpecError("reservoir couplings do not alternate")
        return t_a, t_b


def _alternating(n: int, first: float, second: float) -> np.ndarray:
    """The float array [first, second, first, ...] of length n."""
    out = np.empty(n)
    out[0::2] = first
    out[1::2] = second
    return out


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Dense complex matrix of a lattice spec.

    Symmetric (not conjugate-symmetric) in the couplings and tridiagonal for
    chain lattices.  The underlying array is frozen after construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidSpecError(f"Hamiltonian must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidSpecError("Hamiltonian entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def norm(self) -> float:
        """Spectral norm (largest singular value), used to scale tolerances.

        Computed by an SVD on first use and cached.  Where an upper bound
        suffices, sqrt(|H|_1 |H|_inf) costs O(N^2) (see ``eigendecompose``).
        """
        return float(np.linalg.norm(self.matrix, 2)) if self.matrix.size else 0.0


def _check_chain(n_sites: int, t_a: float, t_b: float, gamma: float) -> None:
    """Raise InvalidSpecError on a chain length, couplings or gamma that
    ``build_reservoir`` refuses."""
    if n_sites < 1:
        raise InvalidSpecError("n_sites must be >= 1")
    if not (t_a > 0 and t_b > 0):
        raise InvalidSpecError("couplings must be strictly positive")
    if not 0 <= gamma < np.inf:
        raise InvalidSpecError(f"gamma must be finite and >= 0, got {gamma}")


def build_reservoir(n_sites: int, t_a: float, t_b: float, gamma: float,
                    onsite: float = 0.0, first_sign: int = +1,
                    start_sublattice: str = "A") -> LatticeSpec:
    """Gain/loss-modulated chain: onsite imaginary parts alternate +/-gamma.

    Parameters
    ----------
    t_a, t_b : float
        Alternating bond strengths starting with ``t_a``; pass equal values
        for the uniform-coupling reservoir.
    gamma : float
        Modulation magnitude (>= 0).
    first_sign : {+1, -1}
        Sign of the imaginary onsite on the first site.  The default puts
        gain (+i*gamma) on the first site, i.e. on ``start_sublattice``.
    """
    _check_chain(n_sites, t_a, t_b, gamma)
    if first_sign not in (+1, -1):
        raise InvalidSpecError("first_sign must be +1 or -1")
    gain_loss = _alternating(n_sites, first_sign * gamma, -first_sign * gamma)
    return LatticeSpec(onsite + 1j * gain_loss,
                       _alternating(n_sites - 1, t_a, t_b), start_sublattice)


def couple(system: LatticeSpec, reservoir: LatticeSpec, t_prime: float) -> LatticeSpec:
    """Concatenate two chains with one new bond of strength t_prime.

    The sublattice alternation must continue across the junction; the
    partition index of the result marks the first reservoir site.
    """
    if system.sublattice(system.n_sites - 1) == reservoir.first_sublattice:
        raise InvalidSpecError(
            "sublattice alternation breaks at the junction; relabel one chain")
    return LatticeSpec(np.concatenate([system.onsite, reservoir.onsite]),
                       np.concatenate([system.bonds, [t_prime], reservoir.bonds]),
                       system.first_sublattice, partition=system.n_sites)


def _require_dense(n: int) -> None:
    """Raise EigensolverError before an N x N matrix too large to hold."""
    if n > DENSE_MAX_SITES:
        raise EigensolverError(
            f"a {n}-site chain is too long for the dense eigensolver (at most "
            f"{DENSE_MAX_SITES} sites, 16 N^2 bytes per matrix)")


def assemble_hamiltonian(spec: LatticeSpec) -> Hamiltonian:
    """Dense matrix with the spec's onsite energies and symmetric couplings.

    A chain longer than ``DENSE_MAX_SITES`` raises EigensolverError.
    """
    n = spec.n_sites
    _require_dense(n)
    m = np.zeros((n, n), dtype=complex)
    i = np.arange(n)
    m[i, i] = spec.onsite
    m[i[:-1], i[1:]] = spec.bonds
    m[i[1:], i[:-1]] = spec.bonds
    return Hamiltonian(m)


def coupled_chain(gamma: float, *, n_system: int = 9, system_t_a: float = 1.0,
                  system_t_b: float = 0.2, n_reservoir: int = 10,
                  reservoir_t_a: float = 1.0, reservoir_t_b: float = 1.0,
                  t_prime: float = 0.2, onsite: float = 0.0,
                  system_gamma: float = 0.0,
                  reservoir_onsite: float | None = None) -> LatticeSpec:
    """The standard system+reservoir family used throughout the package.

    A Hermitian chain with alternating couplings is attached on its right to
    a gain/loss-modulated reservoir whose site adjacent to the junction
    carries gain.  The reservoir's gain sublattice is labeled "A"; the
    system chain is labeled starting "B" so alternation continues across
    the junction.

    ``system_gamma`` additionally modulates the system with gain on its
    sublattice adjacent to the junction, which places two gain sites next
    to each other at the interface (the defect-state configuration).
    ``reservoir_onsite`` overrides the reservoir's real onsite energy for
    detuned Hermitian-reservoir studies.

    The spec is ``couple(system, reservoir, t_prime)`` of the two
    ``build_reservoir`` chains, bit for bit, but built as one spec and
    validated once; it raises InvalidSpecError on the same arguments.
    """
    _check_chain(n_system, system_t_a, system_t_b, system_gamma)
    _check_chain(n_reservoir, reservoir_t_a, reservoir_t_b, gamma)
    # only an odd system ends on "B" and couples to the reservoir's "A";
    # its last site, next to the junction, carries gain like its first
    if n_system % 2 == 0:
        raise InvalidSpecError(
            "sublattice alternation breaks at the junction; relabel one chain")
    ns, n = n_system, n_system + n_reservoir
    real = np.empty(n)
    real[:ns] = onsite
    real[ns:] = onsite if reservoir_onsite is None else reservoir_onsite
    gain_loss = np.empty(n)
    gain_loss[:ns:2], gain_loss[1:ns:2] = system_gamma, -system_gamma
    gain_loss[ns::2], gain_loss[ns + 1::2] = gamma, -gamma
    bonds = np.empty(n - 1)
    bonds[:ns - 1:2], bonds[1:ns - 1:2] = system_t_a, system_t_b
    bonds[ns - 1] = t_prime
    bonds[ns::2], bonds[ns + 1::2] = reservoir_t_a, reservoir_t_b
    return LatticeSpec(real + 1j * gain_loss, bonds, "B", partition=ns)
