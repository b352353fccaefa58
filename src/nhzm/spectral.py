"""Eigendecomposition of dense complex Hamiltonians and mode bookkeeping.

Provides biorthogonalized left/right eigenvector sets with defectiveness
diagnostics, spectral-symmetry pairing checks, zero-mode detection, and
identity tracking of modes across gain/loss sweeps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import EigensolverError, FitError, ModeMatchingError
from .lattice import Hamiltonian, LatticeSpec, assemble_hamiltonian

# A mode pair counts as near-defective when its eigenvalue gap or its
# left-right self-overlap falls below these thresholds; such modes are
# excluded from biorthonormalization.
DEFECT_GAP_FRACTION = 1e-6
DEFECT_OVERLAP = 1e-6

ZERO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Full spectrum of a dense complex Hamiltonian.

    Attributes
    ----------
    eigenvalues : (N,) complex ndarray
        Sorted lexicographically by (real, imag).
    right_vectors : (N, N) complex ndarray
        Columns are unit-norm right eigenvectors.
    left_vectors : (N, N) complex ndarray
        Rows are left eigenvectors, scaled so ``left @ right`` has unit
        diagonal for modes that are not near-defective.
    eigenvalue_gaps : (N,) float ndarray
        Distance to the nearest other eigenvalue.
    lr_overlaps : (N,) float ndarray
        |<left|right>| with both vectors unit-norm; tends to 0 at an
        exceptional point.
    near_defective : (N,) bool ndarray
        Modes whose eigenvalue gap or left-right overlap is too small to
        biorthonormalize; see ``eigendecompose`` for the screen.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    eigenvalue_gaps: np.ndarray
    lr_overlaps: np.ndarray
    near_defective: np.ndarray

    def __post_init__(self):
        # safe to share between threads: freeze the arrays
        for name in ("eigenvalues", "right_vectors", "left_vectors",
                     "eigenvalue_gaps", "lr_overlaps", "near_defective"):
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ZeroMode:
    """A spectral-symmetry-protected mode with Re(omega) at the reference.

    kappa_a/kappa_b are the effective rates Im(omega) -/+ gamma seen on the
    gain and loss sublattices of the reservoir; r and alpha are the derived
    recurrence quantities.  They are None when no reservoir context was
    supplied.
    """

    mode_index: int
    omega: complex
    wavefunction: np.ndarray
    kappa_a: float | None = None
    kappa_b: float | None = None
    r: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class SymmetryPairing:
    """Result of matching a spectrum against an involution about omega0."""

    kind: str
    pairs: tuple[tuple[int, int], ...]
    unmatched: tuple[int, ...]
    max_mismatch: float

    @property
    def all_paired(self) -> bool:
        return len(self.unmatched) == 0


@dataclass
class ModeTrajectory:
    """One mode followed through a parameter sweep by eigenvector overlap."""

    start: int
    parameters: np.ndarray
    eigenvalues: np.ndarray
    column_indices: np.ndarray
    overlaps: np.ndarray
    mode_number: int | None = None


def eigendecompose(h: Hamiltonian) -> ModeSet:
    """Full left/right eigendecomposition with defectiveness diagnostics.

    Right vectors are unit-norm; left vectors are biorthonormalized against
    them (``<left_i|right_j> = delta_ij``) except for near-defective modes,
    which are flagged rather than failed.  A mode is near-defective when
    its left-right overlap is below ``DEFECT_OVERLAP`` or its eigenvalue
    gap is below ``DEFECT_GAP_FRACTION * sqrt(|H|_1 |H|_inf)``.  That scale
    bounds the spectral norm from above and costs O(N^2) instead of an
    SVD, so the screen flags every mode a spectral-norm screen would.
    """
    m = h.matrix
    if not np.all(np.isfinite(m)):
        raise EigensolverError("matrix has non-finite entries", matrix=m)
    try:
        w, vl, vr = sla.eig(m, left=True, right=True)
    except sla.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigensolverError(f"dense eigensolver failed: {exc}", matrix=m) from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    vl = vl[:, order]

    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    left = vl.conj().T
    left = left / np.linalg.norm(left, axis=1, keepdims=True)

    n = len(w)
    if n > 1:
        diff = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(n, np.inf))
        gaps = diff.min(axis=1)
    else:
        gaps = np.full(1, np.inf)
    self_overlaps = np.abs(np.einsum("ij,ji->i", left, vr))
    norm_bound = np.sqrt(np.linalg.norm(m, 1) * np.linalg.norm(m, np.inf))
    flagged = (gaps < DEFECT_GAP_FRACTION * max(norm_bound, 1e-300)) | (
        self_overlaps < DEFECT_OVERLAP)

    scale = np.einsum("ij,ji->i", left, vr)
    safe = ~flagged
    left[safe] = left[safe] / scale[safe, None]

    return ModeSet(w, vr, left, gaps, self_overlaps, flagged)


def _involution(kind: str, omega0: float):
    if kind == "nhph":
        return lambda w: -(np.conj(w) - omega0) + omega0
    if kind == "chiral":
        return lambda w: -(w - omega0) + omega0
    raise ValueError(f"unknown symmetry kind {kind!r}")


def check_spectral_symmetry(modes: ModeSet, omega0: float = 0.0,
                            kind: str = "nhph", tol: float = 1e-8) -> SymmetryPairing:
    """Match every eigenvalue to a partner under the chosen involution.

    NHPH pairs omega with -(omega - omega0)* + omega0; chiral drops the
    conjugation.  Modes on the symmetry axis self-pair.  Unmatched modes
    are reported, not raised.
    """
    w = modes.eigenvalues
    image = _involution(kind, omega0)(w)
    remaining = list(range(len(w)))
    pairs = []
    unmatched = []
    max_mismatch = 0.0
    while remaining:
        i = remaining[0]
        dists = [(abs(w[j] - image[i]), j) for j in remaining]
        dist, j = min(dists)
        if dist <= tol:
            pairs.append((i, j) if i <= j else (j, i))
            max_mismatch = max(max_mismatch, dist)
            remaining.remove(i)
            if j != i:
                remaining.remove(j)
        else:
            unmatched.append(i)
            remaining.remove(i)
    return SymmetryPairing(kind, tuple(pairs), tuple(unmatched), max_mismatch)


def find_zero_modes(modes: ModeSet, spec: LatticeSpec | None = None,
                    omega0: float = 0.0, tol: float = ZERO_TOL) -> list[ZeroMode]:
    """Modes with |Re(omega) - omega0| <= tol, sorted by |Im(omega)|.

    When ``spec`` describes a gain/loss reservoir, each mode is populated
    with the effective rates kappa and the recurrence quantities r, alpha.
    """
    from .localization import compute_alpha, compute_kappa

    out = []
    for i, w in enumerate(modes.eigenvalues):
        if abs(w.real - omega0) > tol:
            continue
        kappa_a = kappa_b = r = alpha = None
        if spec is not None:
            gamma = spec.reservoir_gamma()
            t_a, t_b = spec.reservoir_couplings()
            kappa_a, kappa_b = compute_kappa(w, gamma, omega0=omega0, tol=tol)
            alpha, r = compute_alpha(kappa_a, kappa_b, t_a, t_b)
        out.append(ZeroMode(i, complex(w), modes.right_vectors[:, i].copy(),
                            kappa_a, kappa_b, r, alpha))
    out.sort(key=lambda z: abs(z.omega.imag))
    return out


def sweep_gamma(spec_of_gamma, gamma_grid) -> list[ModeSet]:
    """Decompose the lattice family ``spec_of_gamma(gamma)`` on a monotone grid."""
    grid = np.asarray(gamma_grid, dtype=float)
    if len(grid) > 1 and not (np.all(np.diff(grid) > 0) or np.all(np.diff(grid) < 0)):
        raise ValueError("gamma grid must be strictly monotone")
    return [eigendecompose(assemble_hamiltonian(spec_of_gamma(g))) for g in grid]


def track_modes(sweep: list[ModeSet], parameters=None) -> list[ModeTrajectory]:
    """Follow mode identities through a sweep by maximal eigenvector overlap.

    Consecutive mode sets are matched greedily on |<psi_i|psi_j>|.  When the
    best available overlap for a mode drops below 0.5 its trajectory is
    split: the old one ends and a new one starts at that step, with a
    warning.
    """
    if len(sweep) < 2:
        raise ValueError("need at least two sweep points to track modes")
    n = sweep[0].n_modes
    params = np.arange(len(sweep), dtype=float) if parameters is None \
        else np.asarray(parameters, dtype=float)

    live = {
        j: {"start": 0, "eigenvalues": [sweep[0].eigenvalues[j]],
            "columns": [j], "overlaps": []}
        for j in range(n)
    }
    finished = []

    for step in range(1, len(sweep)):
        overlap = np.abs(sweep[step - 1].right_vectors.conj().T
                         @ sweep[step].right_vectors)
        assignment = {}
        work = overlap.copy()
        for _ in range(n):
            i, j = np.unravel_index(np.argmax(work), work.shape)
            assignment[i] = (j, overlap[i, j])
            work[i, :] = -1.0
            work[:, j] = -1.0
        new_live = {}
        for i, traj in live.items():
            j, ov = assignment[i]
            if ov < 0.5:
                warnings.warn(
                    f"mode trajectory split at step {step}: overlap {ov:.3f}",
                    stacklevel=2)
                finished.append(_close(traj, params, step))
                new_live[j] = {"start": step,
                               "eigenvalues": [sweep[step].eigenvalues[j]],
                               "columns": [j], "overlaps": []}
            else:
                traj["eigenvalues"].append(sweep[step].eigenvalues[j])
                traj["columns"].append(j)
                traj["overlaps"].append(ov)
                new_live[j] = traj
        live = new_live

    finished.extend(_close(traj, params, len(sweep)) for traj in live.values())
    finished.sort(key=lambda t: (t.start, t.column_indices[0]))
    return finished


def _close(traj: dict, params: np.ndarray, end: int) -> ModeTrajectory:
    start = traj["start"]
    return ModeTrajectory(
        start=start,
        parameters=params[start:end],
        eigenvalues=np.array(traj["eigenvalues"]),
        column_indices=np.array(traj["columns"]),
        overlaps=np.array(traj["overlaps"]),
    )


def assign_mode_numbers(trajectories: list[ModeTrajectory],
                        n_steps: int) -> list[ModeTrajectory]:
    """Number trajectories 1..k by final-point Im(omega), largest magnitude first.

    Sorting is by (|Im| descending, Im descending) at the last sweep step,
    so the two branches of a +/- pair receive consecutive numbers.
    Trajectories that do not reach the final step keep ``mode_number=None``.
    """
    final = [t for t in trajectories
             if t.start + len(t.eigenvalues) == n_steps]
    final.sort(key=lambda t: (-abs(t.eigenvalues[-1].imag), -t.eigenvalues[-1].imag))
    for k, t in enumerate(final):
        t.mode_number = k + 1
    return trajectories


def fit_pair_threshold(traj_a: ModeTrajectory, traj_b: ModeTrajectory,
                       re_tol: float = ZERO_TOL) -> float:
    """Least-squares threshold gamma_mu of a zero-mode pair.

    Uses the sweep points where both trajectories sit on the imaginary axis
    with opposite-sign Im(omega) and fits Im(omega)^2 = gamma^2 - gamma_mu^2
    pooled over both branches.
    """
    lo = max(traj_a.start, traj_b.start)
    hi = min(traj_a.start + len(traj_a.eigenvalues),
             traj_b.start + len(traj_b.eigenvalues))
    samples = []
    for step in range(lo, hi):
        wa = traj_a.eigenvalues[step - traj_a.start]
        wb = traj_b.eigenvalues[step - traj_b.start]
        g = traj_a.parameters[step - traj_a.start]
        if abs(wa.real) > re_tol or abs(wb.real) > re_tol:
            continue
        if np.sign(wa.imag) * np.sign(wb.imag) >= 0:
            continue
        samples.append(g * g - wa.imag ** 2)
        samples.append(g * g - wb.imag ** 2)
    if len(samples) < 6:
        raise FitError(
            "need at least 3 sweep points with opposite-sign Im(omega) "
            f"beyond the bifurcation, found {len(samples) // 2}")
    gamma_sq = float(np.mean(samples))
    if gamma_sq < 0:
        raise FitError("pair-threshold fit produced a negative gamma^2")
    return float(np.sqrt(gamma_sq))


def match_mode(reference: np.ndarray, modes: ModeSet,
               min_overlap: float = 0.5) -> int:
    """Index of the mode whose eigenvector best overlaps ``reference``."""
    ref = reference / np.linalg.norm(reference)
    overlaps = np.abs(ref.conj() @ modes.right_vectors)
    best = int(np.argmax(overlaps))
    if overlaps[best] < min_overlap:
        raise ModeMatchingError(
            f"best overlap {overlaps[best]:.3f} below {min_overlap}")
    return best
