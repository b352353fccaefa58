"""Eigendecomposition of complex-symmetric Hamiltonians and mode bookkeeping.

Every chain Hamiltonian has gain/loss on the diagonal and real couplings,
so it equals its transpose (H = H^T).  A left eigenvector is then the
transposed right one, normalized by the c-product psi^T psi (Moiseyev,
*Non-Hermitian Quantum Mechanics*, 2011, ch. 5), and only right vectors
are computed.  The module also provides defectiveness diagnostics,
spectral-symmetry pairing checks, zero-mode detection, and identity
tracking of modes across gain/loss sweeps, whose steps run in real
arithmetic where the chain allows it (``sweep_gamma``).  The baseline
zero mode of a long chain is found without the full spectrum, by
shift-invert Arnoldi on the tridiagonal matrix (``lowest_zero_mode``).
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigensolverError, FitError, ModeMatchingError
from .lattice import (Hamiltonian, LatticeSpec, _require_dense,
                      assemble_hamiltonian)

# A mode counts as near-defective when its eigenvalue gap or its c-product
# self-overlap |psi^T psi| falls below these thresholds; such modes are
# excluded from biorthonormalization.
DEFECT_GAP_FRACTION = 1e-6
DEFECT_OVERLAP = 1e-6

ZERO_TOL = 1e-8

# Chains of at least this many sites take the sparse path of
# ``lowest_zero_mode``: both paths took 3-4 ms at 59 sites (2-vCPU VM,
# OpenBLAS), dense 16 ms against sparse 4-6 ms at 79 and 45-49 ms against
# 3-5 ms at 159.  The first sparse call of a process also imports
# scipy.sparse.linalg, which pulls in scipy.linalg (about 0.3 s cold with
# scipy 1.17; 25-35 ms once scipy.linalg is loaded).
SPARSE_MIN_SITES = 64
# Shift-invert runs at i * SHIFT * |H|_inf, off the real axis, so that an
# exactly singular H (an odd Hermitian chain has omega = 0 exactly) still
# factorizes.
SHIFT = 1e-10
# k doubles from 6 up to this many eigenvalues before the dense path
# decides.  Random chains with a zero mode had it within k = 6; a chain
# without one (a detuned reservoir) would otherwise double k up to N/2,
# and at N = 1000 k = 96 and 192 took 0.6 s and 3.4 s against 3.1 s for
# the dense solve, while k = 6..48 took 0.25 s together.
SPARSE_MAX_K = 48
# A sparse zero mode is accepted only with a residual |H psi - z psi| of at
# most SPARSE_RESIDUAL * log2(N) times the shift scale.  The bound grows with
# the chain length N, because correct modes of long chains come back with
# larger residuals, but slowly enough to stay below 3e-11 for N < 1e9, under
# the 1e-10 |H|_inf the tests ask of a zero mode; up to the tests' 300 sites
# it is at most 8.2e-12, so a mode with gap 1e-6 |H| keeps a unit overlap
# within 1e-10.  Measured: 142 random chains and 60 benchmark chains gave at
# most 2.1e-14, random chains up to 1e4 sites at most 7.5e-15; correct modes
# came back at 1.3e-12 to 2.4e-12 for the Hermitian chain n_reservoir = 239,
# t_B = 0.75, t' = 0.5 (k = 6..48) and at 2.5e-12 to 1.3e-11 for
# n_reservoir = 2e5, gamma = 2, t' = 0.2, which a constant 1e-12 rejected.
# The split edge states of the Hermitian chain n_reservoir = 119,
# t_B = t' = 0.5 came back at k = 6 with 1.1e-10 to 1.5e-10 (rejected; the
# bound is 7e-12 there) and at k = 12 with 1.5e-16.
SPARSE_RESIDUAL = 1e-12


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Full spectrum of a dense complex-symmetric Hamiltonian (H = H^T).

    Attributes
    ----------
    eigenvalues : (N,) complex ndarray
        Sorted lexicographically by (real, imag).
    right_vectors : (N, N) complex ndarray
        Columns are unit-norm right eigenvectors psi.
    eigenvalue_gaps : (N,) float ndarray
        Distance to the nearest other eigenvalue.
    lr_overlaps : (N,) float ndarray
        |psi^T psi| of the unit-norm right vector (the left-right
        overlap); tends to 0 at an exceptional point.
    near_defective : (N,) bool ndarray
        Modes whose eigenvalue gap or self-overlap is too small to
        biorthonormalize; see ``eigendecompose`` for the screen.
    left_vectors : (N, N) complex ndarray, read-only
        Rows are left eigenvectors psi^T / (psi^T psi), so ``left @ right``
        has unit diagonal; a near-defective mode's row is psi^T unscaled.
        Derived from the right vectors on first read and cached.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    eigenvalue_gaps: np.ndarray
    lr_overlaps: np.ndarray
    near_defective: np.ndarray

    def __post_init__(self):
        # safe to share between threads: freeze the arrays
        for name in ("eigenvalues", "right_vectors", "eigenvalue_gaps",
                     "lr_overlaps", "near_defective"):
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def left_vectors(self) -> np.ndarray:
        right = self.right_vectors
        left = right.T.copy()
        safe = ~self.near_defective
        left[safe] /= np.einsum("ij,ij->j", right, right)[safe, None]
        left.flags.writeable = False
        return left


@dataclass(frozen=True)
class ZeroMode:
    """A spectral-symmetry-protected mode with Re(omega) at the reference.

    ``mode_index`` is the mode's column in the full spectrum, or None when
    the mode was found without one (``lowest_zero_mode``'s sparse path).
    kappa_a/kappa_b are the effective rates Im(omega) -/+ gamma seen on the
    gain and loss sublattices of the reservoir; r and alpha are the derived
    recurrence quantities.  They are None when no reservoir context was
    supplied.
    """

    mode_index: int | None
    omega: complex
    wavefunction: np.ndarray
    kappa_a: float | None = None
    kappa_b: float | None = None
    r: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class SymmetryPairing:
    """Result of matching a spectrum against its NHPH image about omega0."""

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
    """Right eigendecomposition of a complex-symmetric H, with diagnostics.

    H must equal its transpose exactly, as every chain matrix does; any
    other matrix (a Bloch matrix at k != 0, say) raises EigensolverError,
    because its left vectors are not transposed right ones.  Right vectors
    are unit-norm; the left vectors follow from the c-product (see
    ``ModeSet``).  Near-defective modes are flagged rather than failed.  A
    mode is near-defective when its self-overlap |psi^T psi| is below
    ``DEFECT_OVERLAP`` or its eigenvalue gap is below
    ``DEFECT_GAP_FRACTION * sqrt(|H|_1 |H|_inf)``.  That scale bounds the
    spectral norm from above and costs O(N^2) instead of an SVD, so the
    screen flags every mode a spectral-norm screen would.  The solve is
    LAPACK's zgeev through ``np.linalg.eig``, so no scipy import is needed.
    """
    m = h.matrix
    if not np.all(np.isfinite(m)):
        raise EigensolverError("matrix has non-finite entries", matrix=m)
    if not np.array_equal(m, m.T):
        raise EigensolverError("matrix is not complex symmetric (H != H^T)",
                               matrix=m)
    try:
        w, vr = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigensolverError(f"dense eigensolver failed: {exc}", matrix=m) from exc
    norm_bound = np.sqrt(np.linalg.norm(m, 1) * np.linalg.norm(m, np.inf))
    return _modeset(w, vr, norm_bound)


def _modeset(w: np.ndarray, vr: np.ndarray, norm_bound: float) -> ModeSet:
    """The ``ModeSet`` of eigenpairs (w, vr) of a matrix of scale norm_bound.

    Sorts by (Re, Im), scales the vectors to unit norm and runs the
    near-defective screen of ``eigendecompose``.  Beside the sorted copy of
    vr, its temporaries hold at most ``SCRATCH_BYTES`` at a time.
    """
    n = len(w)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    # column blocks of the norm, then one in-place division: no second
    # N x N copy and no N x N temporary
    cols = max(1, SCRATCH_BYTES // (16 * n))
    norms = np.empty(n)
    for lo in range(0, n, cols):
        norms[lo:lo + cols] = np.linalg.norm(vr[:, lo:lo + cols], axis=0)
    vr /= norms

    gaps = _gaps(w)
    self_overlaps = np.abs(np.einsum("ij,ij->j", vr, vr))
    flagged = (gaps < DEFECT_GAP_FRACTION * max(norm_bound, 1e-300)) | (
        self_overlaps < DEFECT_OVERLAP)
    return ModeSet(w, vr, gaps, self_overlaps, flagged)


# i^j for j mod 4: the diagonal similarity D of ``_real_form_modes``
_PHASES = np.array([1, 1j, -1, -1j])
# Bytes of the A stack and of its complex eigenvalues and vectors (8 + 16 B
# N^2 a step) that ``_real_form_modes`` holds at once.  The ModeSets it
# returns keep 16 B N^2 a step anyway; an unblocked stack would add 24 B N^2
# a step on top, a peak about 2.5 times as large for a long sweep of a long
# chain.  301 steps fit in one block up to N = 96.
STACK_BYTES = 64 * 2 ** 20
# Bytes of the chunks that ``_chunked_eig``'s threads solve at once, all
# threads together, counted as in ``STACK_BYTES``: 16 steps a thread at
# N = 59 on 2 CPUs, one step from 17 CPUs on, one thread above N = 241.
# Each thread's malloc arena keeps its chunks' temporaries after the
# sweep, so this total, not the thread count, bounds the memory the
# threads add.  Peak RSS of the in-process benchmark (2 vCPUs, threads
# forced): 118.9 MB as one eig call, 119.6 on 2 threads, 122.8 on 19;
# fixed 16-step chunks gave 149.5 MB on 19 threads, one contiguous share
# a thread 126.8 MB on 2.  Two one-step threads at N = 509 raised a
# 16-step sweep's peak from 157 to 174 MB.
CHUNK_BYTES = 2_800_000
# Bytes of the temporaries ``_modeset`` builds at once, beside the vectors.
SCRATCH_BYTES = 2 ** 18


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _chunked_eig(a: np.ndarray):
    """Complex ``np.linalg.eig(a)`` of a real stack, in chunks on threads.

    The chunks are dealt round-robin to one thread per CPU, the calling
    thread among them, never more threads than chunks or than slices fit
    in ``CHUNK_BYTES``; the chunks in flight hold at most ``CHUNK_BYTES``
    together, or one slice where a slice is larger.  So with one CPU, or
    slices over half of ``CHUNK_BYTES`` (N > 241), no thread starts.  A
    worker calls nothing but ``np.linalg.eig``, which releases the GIL,
    and copies each result at once into the complex arrays allocated
    here.  dgeev solves each slice alone, so every bit equals that of one
    call on the whole stack: a chunk whose lambdas are all real comes back
    real and is stored with Im = 0, the value the stacked call gives it.
    Every thread is joined before the first error a worker met is raised.
    """
    steps, n, _ = a.shape
    lam = np.empty((steps, n), dtype=complex)
    v = np.empty((steps, n, n), dtype=complex)
    step = 24 * n * n
    n_threads = min(_cpu_count(), steps, max(1, CHUNK_BYTES // step))
    per_chunk = max(1, CHUNK_BYTES // (step * n_threads))
    chunks = [slice(lo, lo + per_chunk) for lo in range(0, steps, per_chunk)]
    n_threads = min(n_threads, len(chunks))
    errors = []

    def work(share):
        for c in share:
            if errors:
                return
            try:
                lam[c], v[c] = np.linalg.eig(a[c])
            except Exception as exc:
                # any failure: else the caller reads rows never written
                errors.append(exc)

    threads = [threading.Thread(target=work, args=(chunks[t::n_threads],))
               for t in range(1, n_threads)]
    for t in threads:
        t.start()
    try:
        work(chunks[::n_threads])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return lam, v


def _real_form_modes(specs) -> list[ModeSet]:
    """``eigendecompose`` of each spec's Hamiltonian, up to rounding.

    A chain whose onsite energies share one real part omega0 has the
    non-Hermitian particle-hole symmetry, and then -i(H - omega0) is
    diagonally similar to the real tridiagonal A with diagonal Im H_jj,
    upper band t_j and lower band -t_j: A = D^-1 (-i(H - omega0)) D with
    D = diag(i^j).  One real eigensolve of A (LAPACK's dgeev through
    ``np.linalg.eig``) gives omega = omega0 + i lambda and psi = D v; a real
    lambda puts Re(omega) at omega0 exactly.  Such specs of one length N
    are solved together: their A are stacked, in blocks of at most
    ``STACK_BYTES`` (24 N^2 bytes a step), and each block is solved in
    chunks on every CPU, at most ``CHUNK_BYTES`` at once (``_chunked_eig``).
    dgeev solves every slice as a lone call would, so the result is the
    same bit for bit for any block, chunk and thread count.  Any other
    spec (a detuned reservoir, a single site) takes the dense complex path.
    """
    specs = list(specs)
    modes = [None] * len(specs)
    by_length = {}
    for k, spec in enumerate(specs):
        re = spec.onsite.real
        if spec.n_sites < 2 or not np.all(re == re[0]):
            modes[k] = eigendecompose(assemble_hamiltonian(spec))
        else:
            by_length.setdefault(spec.n_sites, []).append(k)
    for n, steps in by_length.items():
        _require_dense(n)
        phases = _PHASES[np.arange(n) % 4, None]
        per_block = max(1, STACK_BYTES // (24 * n * n))
        for lo in range(0, len(steps), per_block):
            block = steps[lo:lo + per_block]
            a = np.zeros((len(block), n, n))
            for s, k in zip(a, block):
                s.flat[::n + 1] = specs[k].onsite.imag
                s.flat[1::n + 1] = specs[k].bonds
                s.flat[n::n + 1] = -specs[k].bonds
            try:
                lam, v = _chunked_eig(a)
            except np.linalg.LinAlgError as exc:
                raise EigensolverError(f"dense eigensolver failed: {exc}",
                                       matrix=a) from exc
            del a
            for lam_k, v_k, k in zip(lam, v, block):
                spec = specs[k]
                w = np.empty(n, dtype=complex)
                w.real = spec.onsite.real[0] - lam_k.imag
                w.imag = lam_k.real
                # |H|_1 = |H|_inf for symmetric H: the largest row sum of
                # the chain
                rows = np.abs(spec.onsite)
                rows[:-1] += spec.bonds
                rows[1:] += spec.bonds
                modes[k] = _modeset(w, v_k * phases, rows.max())
    return modes


def _gaps(w: np.ndarray) -> np.ndarray:
    """Distance from each eigenvalue to the nearest other one (inf if alone).

    Built in row blocks of at most ``SCRATCH_BYTES`` of complex distances.
    """
    n = len(w)
    rows = max(1, SCRATCH_BYTES // (16 * n))
    gaps = np.empty(n)
    for lo in range(0, n, rows):
        diff = np.abs(w[lo:lo + rows, None] - w[None, :])
        diff[np.arange(len(diff)), np.arange(lo, lo + len(diff))] = np.inf
        gaps[lo:lo + rows] = diff.min(axis=1)
    return gaps


def check_spectral_symmetry(modes: ModeSet, omega0: float = 0.0,
                            tol: float = 1e-8) -> SymmetryPairing:
    """Match every eigenvalue to a partner under the NHPH involution.

    NHPH pairs omega with -(omega - omega0)* + omega0.  Modes on the
    symmetry axis self-pair.  Unmatched modes are reported, not raised.
    """
    w = modes.eigenvalues
    image = -(np.conj(w) - omega0) + omega0
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
    return SymmetryPairing(tuple(pairs), tuple(unmatched), max_mismatch)


def find_zero_modes(modes: ModeSet, spec: LatticeSpec | None = None,
                    omega0: float = 0.0, tol: float = ZERO_TOL) -> list[ZeroMode]:
    """Modes with |Re(omega) - omega0| <= tol, sorted by |Im(omega)|.

    When ``spec`` describes a gain/loss reservoir, each mode is populated
    with the effective rates kappa and the recurrence quantities r, alpha.
    """
    w = modes.eigenvalues
    return [_zero_mode(i, w[i], modes.right_vectors[:, i].copy(), spec, omega0,
                       tol) for i in _zero_mode_indices(w, omega0, tol).tolist()]


def _zero_mode_indices(w: np.ndarray, omega0: float = 0.0,
                       tol: float = ZERO_TOL) -> np.ndarray:
    """Zero-mode indices (|Re(w) - omega0| <= tol), stably sorted by |Im(w)|.

    The first is the zero mode every caller reports; of modes with
    bitwise-equal |Im(w)| it is the one with the lowest index.
    """
    zero = np.flatnonzero(np.abs(w.real - omega0) <= tol)
    return zero[np.argsort(np.abs(w[zero].imag), kind="stable")]


def _zero_mode(index: int | None, w: complex, vector: np.ndarray,
               spec: LatticeSpec | None, omega0: float, tol: float) -> ZeroMode:
    from .localization import compute_alpha, compute_kappa

    kappa_a = kappa_b = r = alpha = None
    if spec is not None:
        gamma = spec.reservoir_gamma()
        t_a, t_b = spec.reservoir_couplings()
        kappa_a, kappa_b = compute_kappa(w, gamma, omega0=omega0, tol=tol)
        alpha, r = compute_alpha(kappa_a, kappa_b, t_a, t_b)
    return ZeroMode(index, complex(w), vector, kappa_a, kappa_b, r, alpha)


def lowest_zero_mode(spec: LatticeSpec, omega0: float = 0.0) -> ZeroMode | None:
    """The zero mode ``find_zero_modes(..., spec, omega0)`` would list first.

    That is the mode with |Re(omega) - omega0| <= ZERO_TOL and the smallest
    |Im(omega)|, with its reservoir quantities, or None.  Chains shorter than
    ``SPARSE_MIN_SITES`` take the dense path, so ``mode_index`` is set.
    Longer ones run shift-invert Arnoldi (ARPACK through
    ``scipy.sparse.linalg.eigs``) for the k eigenvalues nearest the shift
    sigma = omega0 + i eps, on the tridiagonal matrix, in O(N) time and
    memory.  A zero mode z is accepted only when ``|z - sigma| + 2 eps`` is
    below the largest distance of the k returned eigenvalues from sigma, so
    that no zero mode with a smaller |Im(omega)| lies outside them, and its
    residual is below ``SPARSE_RESIDUAL * log2(N)`` times the scale; otherwise k
    doubles.  The start vector is fixed, so runs repeat bit for
    bit.  The eigenvector is scaled as LAPACK scales dense ones: unit norm,
    largest entry real and positive.  Beyond ``SPARSE_MAX_K`` eigenvalues
    the dense path decides, where ``assemble_hamiltonian`` raises
    EigensolverError for a chain longer than ``DENSE_MAX_SITES``.
    """
    n = spec.n_sites
    if n >= SPARSE_MIN_SITES:
        from scipy.sparse import diags
        from scipy.sparse.linalg import eigs

        diag, off = spec.onsite, spec.bonds
        h = diags([off, diag, off], [-1, 0, 1], format="csc")
        scale = np.abs(diag).max() + 2.0 * off.max()
        eps = SHIFT * scale
        sigma = omega0 + 1j * eps
        v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
        k = 6
        while k <= SPARSE_MAX_K and k < n - 1:
            w, v = eigs(h, k=k, sigma=sigma, v0=v0)
            zero = np.flatnonzero(np.abs(w.real - omega0) <= ZERO_TOL)
            if zero.size:
                # |Im| closer than the eigenvalue accuracy is a tie, which
                # the dense order breaks by Re, then Im (a Hermitian chain's
                # near-zero pair has Im = 0 on both)
                im = np.abs(w[zero].imag)
                tied = zero[im <= im.min() + 1e-12 * scale]
                i = tied[np.lexsort((w[tied].imag, w[tied].real))[0]]
                psi = v[:, i] / np.linalg.norm(v[:, i])
                if abs(w[i] - sigma) + 2 * eps < np.abs(w - sigma).max() \
                        and np.linalg.norm(h @ psi - w[i] * psi) \
                        <= SPARSE_RESIDUAL * np.log2(n) * scale:
                    top = int(np.argmax(np.abs(psi)))
                    psi *= np.conj(psi[top]) / abs(psi[top])
                    psi[top] = psi[top].real
                    return _zero_mode(None, w[i], psi, spec, omega0, ZERO_TOL)
            k *= 2
    zms = find_zero_modes(eigendecompose(assemble_hamiltonian(spec)), spec,
                          omega0)
    return zms[0] if zms else None


def sweep_gamma(spec_of_gamma, gamma_grid) -> list[ModeSet]:
    """Decompose the lattice family ``spec_of_gamma(gamma)`` on a monotone grid.

    The steps are solved by ``_real_form_modes``: chains whose onsite
    energies share one real part omega0 (every ``coupled_chain`` without a
    detuned ``reservoir_onsite``) are solved in real arithmetic, through the
    real tridiagonal form of -i(H - omega0), stacked in blocks of at most
    ``STACK_BYTES`` of matrices and vectors (24 N^2 bytes a step), so the
    sweep's memory grows as the 16 N^2 bytes a step its ModeSets keep.
    Each block is solved in chunks, one ``np.linalg.eig`` call each, on
    one thread per CPU; the chunks in flight hold ``CHUNK_BYTES``
    together, or one step a thread where a step is larger.  Every output
    bit is that of one call on the whole stack, whatever the CPU count.
    Any other chain is solved by ``eigendecompose``.  Both give the same
    ``ModeSet`` up to rounding, but on the real form an on-axis mode has
    Re(omega) == omega0 exactly and the partners omega, -omega* of an NHPH
    pair have bitwise-equal Im, where the complex solver leaves noise of
    order 1e-15 in both; a sweep's outputs differ from the complex path's
    in those low bits and, through tie-breaks, in which partner of a pair
    carries which mode number.  ``eigendecompose`` and the ``spectrum``
    task stay complex: the order of on-axis modes, and so a zero mode's
    ``mode_index``, follows their rounding-level Re(omega), and moves on
    the real form.
    """
    grid = np.asarray(gamma_grid, dtype=float)
    if len(grid) > 1 and not (np.all(np.diff(grid) > 0) or np.all(np.diff(grid) < 0)):
        raise ValueError("gamma grid must be strictly monotone")
    return _real_form_modes(spec_of_gamma(g) for g in grid)


def track_modes(sweep: list[ModeSet], parameters=None) -> list[ModeTrajectory]:
    """Follow mode identities through a sweep by maximal eigenvector overlap.

    Consecutive mode sets are matched greedily on |<psi_i|psi_j>|: pairs
    are taken in order of overlap, largest first, ties going to the lowest
    flat index i * N + j, and each taken pair removes its row and column
    (see ``_greedy_match``).  When the overlap of a mode's match is below
    0.5 its trajectory is split: the old one ends and a new one starts at
    that step, with a warning "mode trajectory split at step ...".
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
        match = _greedy_match(overlap).tolist()
        new_live = {}
        for i, traj in live.items():
            j = match[i]
            ov = overlap[i, j]
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


def _greedy_match(overlap: np.ndarray) -> np.ndarray:
    """Column matched to each row of a square matrix of overlaps >= 0.

    The greedy max-weight matching: repeatedly take the largest remaining
    entry, ties going to the lowest flat index, and remove its row and
    column.  It is built in rounds that take every locally dominant pair
    at once, a pair that is the first maximum of both its row and its
    column (``argmax`` picks the lowest index among ties, so both orders
    agree).  No entry that conflicts with such a pair precedes it in the
    greedy order, so the greedy takes it too (Preis, STACS 1999), and a
    round takes at least one pair: the largest remaining entry.
    """
    n = len(overlap)
    work = overlap.copy()
    match = np.empty(n, dtype=int)
    rows = np.arange(n)
    free = np.ones(n, dtype=bool)
    while free.any():
        best_col = work.argmax(axis=1)
        best_row = work.argmax(axis=0)
        taken = rows[free & (best_row[best_col] == rows)]
        cols = best_col[taken]
        match[taken] = cols
        free[taken] = False
        work[taken, :] = -1.0
        work[:, cols] = -1.0
    return match


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

    Sorting is by (|Im| descending, Im descending, Re ascending) at the last
    sweep step, so the two branches of a +/- pair receive consecutive
    numbers, and NHPH partners omega, -omega* with equal Im are numbered
    left to right.  Trajectories that do not reach the final step keep
    ``mode_number=None``.
    """
    final = [t for t in trajectories
             if t.start + len(t.eigenvalues) == n_steps]
    final.sort(key=lambda t: (-abs(t.eigenvalues[-1].imag),
                              -t.eigenvalues[-1].imag, t.eigenvalues[-1].real))
    for k, t in enumerate(final):
        t.mode_number = k + 1
    return trajectories


def fit_pair_threshold(traj_a: ModeTrajectory, traj_b: ModeTrajectory,
                       omega0: float = 0.0, re_tol: float = ZERO_TOL) -> float:
    """Least-squares threshold gamma_mu of a zero-mode pair.

    Uses the sweep points where both trajectories sit on the symmetry axis
    Re(omega) = omega0 with opposite-sign Im(omega) and fits
    Im(omega)^2 = gamma^2 - gamma_mu^2 pooled over both branches.
    """
    lo = max(traj_a.start, traj_b.start)
    hi = min(traj_a.start + len(traj_a.eigenvalues),
             traj_b.start + len(traj_b.eigenvalues))
    samples = []
    for step in range(lo, hi):
        wa = traj_a.eigenvalues[step - traj_a.start]
        wb = traj_b.eigenvalues[step - traj_b.start]
        g = traj_a.parameters[step - traj_a.start]
        if abs(wa.real - omega0) > re_tol or abs(wb.real - omega0) > re_tol:
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
