"""Construction of 1D tight-binding lattice specifications and their Hamiltonians.

A lattice is a finite chain of sites carrying a complex onsite energy
(real detuning plus imaginary gain/loss rate) and a sublattice label that
alternates along the chain.  Couplings connect adjacent sites only.  A spec
may record a partition index marking where a weakly coupled reservoir
begins.  All quantities are in units of the reference coupling t, with the
homogeneous onsite energy as the zero of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSpecError

SUBLATTICES = ("A", "B")


def _other(label: str) -> str:
    return "B" if label == "A" else "A"


@dataclass(frozen=True)
class Site:
    """One lattice site: onsite energy split into real/imag parts, plus label."""

    onsite_real: float
    onsite_imag: float
    sublattice: str

    def __post_init__(self):
        if self.sublattice not in SUBLATTICES:
            raise InvalidSpecError(f"sublattice must be 'A' or 'B', got {self.sublattice!r}")


@dataclass(frozen=True)
class Coupling:
    """Nearest-neighbor bond between sites ``left`` and ``right = left + 1``."""

    left: int
    right: int
    strength: float


@dataclass(frozen=True)
class LatticeSpec:
    """Declarative description of a finite chain.

    Parameters
    ----------
    sites : tuple of Site
        Ordered along the chain.
    couplings : tuple of Coupling
        Bonds between adjacent sites; strictly positive strengths, no
        duplicates.
    partition : int or None
        Index of the first reservoir site, or None for a standalone lattice.

    Instances are immutable and safe to share between threads.
    """

    sites: tuple[Site, ...]
    couplings: tuple[Coupling, ...]
    partition: int | None = None

    def __post_init__(self):
        n = len(self.sites)
        if n == 0:
            raise InvalidSpecError("a lattice needs at least one site")
        seen = set()
        for c in self.couplings:
            if c.right != c.left + 1:
                raise InvalidSpecError(
                    f"coupling ({c.left},{c.right}) is not nearest-neighbor")
            if not 0 <= c.left < n - 1:
                raise InvalidSpecError(f"coupling index {c.left} out of range")
            if c.left in seen:
                raise InvalidSpecError(f"duplicate coupling at bond {c.left}")
            if not c.strength > 0:
                raise InvalidSpecError(
                    f"coupling strength must be positive, got {c.strength}")
            seen.add(c.left)
        for i in range(1, n):
            if self.sites[i].sublattice == self.sites[i - 1].sublattice:
                raise InvalidSpecError(
                    f"sublattice labels must alternate (sites {i - 1}, {i})")
        if self.partition is not None and not 0 < self.partition < n:
            raise InvalidSpecError(f"partition {self.partition} out of range")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def onsite_energies(self) -> np.ndarray:
        """Complex onsite energies, one per site."""
        return np.array(
            [s.onsite_real + 1j * s.onsite_imag for s in self.sites], dtype=complex)

    def sublattices(self) -> tuple[str, ...]:
        return tuple(s.sublattice for s in self.sites)

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
        imag = [self.sites[i].onsite_imag for i in self.reservoir_sites()]
        gamma = max(abs(v) for v in imag)
        if gamma == 0.0:
            return 0.0
        for j, v in enumerate(imag):
            expect = imag[0] * (-1) ** j
            if abs(v - expect) > 1e-12 * gamma:
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
        start = 0 if self.partition is None else self.partition
        strengths = [c.strength for c in self.couplings if c.left >= start]
        if not strengths:
            raise InvalidSpecError("reservoir has no internal couplings")
        t_a = strengths[0]
        t_b = strengths[1] if len(strengths) > 1 else strengths[0]
        for j, s in enumerate(strengths):
            expect = t_a if j % 2 == 0 else t_b
            if abs(s - expect) > 1e-12 * max(t_a, t_b):
                raise InvalidSpecError("reservoir couplings do not alternate")
        return t_a, t_b


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


def build_ssh_chain(n_sites: int, t_a: float, t_b: float, onsite: float = 0.0,
                    start_sublattice: str = "A") -> LatticeSpec:
    """Hermitian chain with couplings alternating t_a, t_b starting with t_a.

    With ``t_a > t_b`` and an odd site count the chain hosts a zero-energy
    mode localized exponentially on its right edge.
    """
    if n_sites < 1:
        raise InvalidSpecError("n_sites must be >= 1")
    if not (t_a > 0 and t_b > 0):
        raise InvalidSpecError("couplings must be strictly positive")
    label = start_sublattice
    sites = []
    for _ in range(n_sites):
        sites.append(Site(onsite, 0.0, label))
        label = _other(label)
    couplings = tuple(
        Coupling(i, i + 1, t_a if i % 2 == 0 else t_b) for i in range(n_sites - 1))
    return LatticeSpec(tuple(sites), couplings)


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
    if n_sites < 1:
        raise InvalidSpecError("n_sites must be >= 1")
    if not (t_a > 0 and t_b > 0):
        raise InvalidSpecError("couplings must be strictly positive")
    if gamma < 0:
        raise InvalidSpecError("gamma must be >= 0")
    if first_sign not in (+1, -1):
        raise InvalidSpecError("first_sign must be +1 or -1")
    label = start_sublattice
    sites = []
    for j in range(n_sites):
        sign = first_sign * (-1) ** j
        sites.append(Site(onsite, sign * gamma, label))
        label = _other(label)
    couplings = tuple(
        Coupling(i, i + 1, t_a if i % 2 == 0 else t_b) for i in range(n_sites - 1))
    return LatticeSpec(tuple(sites), couplings)


def couple(system: LatticeSpec, reservoir: LatticeSpec, t_prime: float) -> LatticeSpec:
    """Concatenate two chains with one new bond of strength t_prime.

    The sublattice alternation must continue across the junction; the
    partition index of the result marks the first reservoir site.
    """
    if not t_prime > 0:
        raise InvalidSpecError("t_prime must be strictly positive")
    if system.sites[-1].sublattice == reservoir.sites[0].sublattice:
        raise InvalidSpecError(
            "sublattice alternation breaks at the junction; relabel one chain")
    offset = system.n_sites
    sites = system.sites + reservoir.sites
    couplings = list(system.couplings)
    couplings.append(Coupling(offset - 1, offset, t_prime))
    couplings.extend(
        Coupling(c.left + offset, c.right + offset, c.strength)
        for c in reservoir.couplings)
    return LatticeSpec(sites, tuple(couplings), partition=offset)


def tridiagonal(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of the spec's matrix, built in O(N).

    The diagonal holds the complex onsite energies; the superdiagonal holds
    the bond strengths, 0 where two neighbors are not coupled.  The matrix
    is symmetric, so the subdiagonal equals the superdiagonal.
    """
    off = np.zeros(spec.n_sites - 1)
    for c in spec.couplings:
        off[c.left] = c.strength
    return spec.onsite_energies(), off


def assemble_hamiltonian(spec: LatticeSpec) -> Hamiltonian:
    """Dense matrix with the spec's onsite energies and symmetric couplings."""
    diag, off = tridiagonal(spec)
    n = len(diag)
    m = np.zeros((n, n), dtype=complex)
    i = np.arange(n)
    m[i, i] = diag
    m[i[:-1], i[1:]] = off
    m[i[1:], i[:-1]] = off
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
    """
    system = build_ssh_chain(n_system, system_t_a, system_t_b, onsite,
                             start_sublattice="B")
    if system_gamma:
        sites = []
        for i, s in enumerate(system.sites):
            sign = +1 if (n_system - 1 - i) % 2 == 0 else -1
            sites.append(Site(s.onsite_real, sign * system_gamma, s.sublattice))
        system = LatticeSpec(tuple(sites), system.couplings)
    reservoir = build_reservoir(
        n_reservoir, reservoir_t_a, reservoir_t_b, gamma,
        onsite if reservoir_onsite is None else reservoir_onsite,
        first_sign=+1, start_sublattice="A")
    return couple(system, reservoir, t_prime)
