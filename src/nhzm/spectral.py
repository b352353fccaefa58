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
# ``lowest_zero_mode``, and ``chain_modes`` solves their real form, whose
# zero-mode columns differ from the complex path's: below this size lie
# the 19-site paper chains, whose ``mode_index`` the benchmark reference
# pins.  The sparse path is the faster from fewer sites on (medians of 15,
# 2-vCPU VM, OpenBLAS): 2.0 ms against 6.2 ms for the complex dense path
# at 59 sites, and 2.6 ms at 79 and 159 sites against 7.9 ms and 29 ms on
# the real form.  Its first call in a process also imports scipy.linalg
# (0.25-0.33 s cold with scipy 1.17).
SPARSE_MIN_SITES = 64
# Shift-invert runs at i * SHIFT * |H|_inf, off the real axis, so that an
# exactly singular H (an odd Hermitian chain has omega = 0 exactly) still
# factorizes.
SHIFT = 1e-10
# The Krylov dimension doubles from SPARSE_MAX_K // 2 up to 2 * SPARSE_MAX_K
# (24, 48, 96) before the dense path decides.  Of 165 random chains of 64
# to 408 sites with a zero mode, 157 had it accepted at 24 and 8 at 48.  A
# chain without one (a detuned reservoir) runs every dimension: at
# N = 1000 that took 0.05 s up to 96, 0.19 s up to 192 and 0.72 s up to
# 384, against 4.5 s for the dense solve.
SPARSE_MAX_K = 48
# A sparse zero mode is accepted only with a residual |H psi - z psi| of at
# most SPARSE_RESIDUAL * log2(N) times the shift scale.  The bound grows with
# the chain length N, but slowly enough to stay below 3e-11 for N < 1e9,
# under the 1e-10 |H|_inf the tests ask of a zero mode; up to the tests'
# 300 sites it is at most 8.2e-12, so a mode with gap 1e-6 |H| keeps a unit
# overlap within 1e-10.  Measured in units of the scale: accepted modes of
# the 165 random chains above at most 6.3e-12, of 60 benchmark chains of
# 509 sites at most 2.7e-12, of n_reservoir = 2e5, gamma = 2, t' = 0.2 at
# 2.0e-12 and of the paper chain at n_reservoir = 1e6 at 7.3e-14.  Without
# the inverse-iteration step, 2e5 came back at 2.9e-9, 8.1e-10 and 4.2e-10
# at dimensions 24, 48 and 96, as the Hessenberg entries reach 2.5e9 there.
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


@dataclass(frozen=True, eq=False)
class TrackedSweep:
    """Modes followed through a parameter sweep, one row a step.

    Attributes
    ----------
    parameters : (S,) float ndarray
        Each step's parameter.
    eigenvalues : (S, N) complex ndarray
        Row k is step k's ``ModeSet.eigenvalues``, bit for bit.
    track : (S, N) int ndarray
        The trajectory id of each column.  A trajectory holds one column a
        step, from the step it starts at to the step before its split or to
        the last step; ids count up in order of (start step, first column).
    overlaps : (S, N) float ndarray
        The overlap of the match that reached each column, NaN at step 0.
    mode_id : (S, N) int ndarray
        The mode number of each column's trajectory: 1..N by the last
        step's (-|Im|, -Im, Re), ties going to the lower trajectory id, so
        the two branches of a +/- pair get consecutive numbers and NHPH
        partners omega, -omega* with equal Im are numbered left to right.
        A trajectory that ends before the last step has -1.
    """

    parameters: np.ndarray
    eigenvalues: np.ndarray
    track: np.ndarray
    overlaps: np.ndarray
    mode_id: np.ndarray


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
    return next(_modeset(w[None], vr[None], np.array([norm_bound])))


def _modeset(w: np.ndarray, vr: np.ndarray, norm_bound: np.ndarray):
    """The ``ModeSet``s of eigenpairs w (k, N), vr (k, N, N) of k matrices.

    Yields one ModeSet a matrix, in order; norm_bound (k,) holds each
    matrix's scale.  Sorts by (Re, Im), scales the vectors to unit norm and
    runs the near-defective screen of ``eigendecompose``.  The sorted
    vectors of as many matrices as fit in ``SCRATCH_BYTES`` (one at least)
    go into one new array, which their ModeSets share, with column j of
    matrix s in row (s, j).  So each column is contiguous, as in one
    matrix's ``vr[:, order]``, every reduction runs along it, and every bit
    is that of the matrix alone.  Beside vr and that array, each temporary
    holds at most ``SCRATCH_BYTES``.
    """
    k, n = w.shape
    order = np.lexsort((w.imag, w.real))
    w = w[np.arange(k)[:, None], order]
    gaps = _gaps(w)
    gap_flags = gaps < DEFECT_GAP_FRACTION * np.maximum(norm_bound,
                                                        1e-300)[:, None]
    per = max(1, SCRATCH_BYTES // (16 * n * n))
    rows = max(1, SCRATCH_BYTES // (16 * n))
    for lo in range(0, k, per):
        chunk = order[lo:lo + per]
        vecs = vr[lo:lo + per].transpose(0, 2, 1)[
            np.arange(len(chunk))[:, None], chunk]
        cols = vecs.reshape(-1, n)
        norms = np.empty(len(cols))
        for r in range(0, len(cols), rows):
            norms[r:r + rows] = np.linalg.norm(cols[r:r + rows], axis=1)
        cols /= norms[:, None]
        self_overlaps = np.abs(np.einsum("sji,sji->sj", vecs, vecs))
        flagged = gap_flags[lo:lo + per] | (self_overlaps < DEFECT_OVERLAP)
        for s, v in enumerate(vecs):
            yield ModeSet(w[lo + s], v.T, gaps[lo + s], self_overlaps[s],
                          flagged[s])


# i^j for j mod 4: the diagonal similarity D of ``_real_form_modes``
_PHASES = np.array([1, 1j, -1, -1j])
# Bytes of the A stack and of its complex eigenvalues and vectors (8 + 16 B
# N^2 a step) that ``_real_form_modes`` holds at once.  A tracked sweep
# holds this block and the two ModeSets ``track_modes`` compares, whatever
# the number of steps: 301 steps fit in one block up to N = 96, and the
# ``sweep`` task of 101 steps at N = 209 peaked at 102.5 MB RSS (160 MB
# with every ModeSet kept).  Blocks of ``CHUNK_BYTES`` held less, but
# made the in-process benchmark's 301-step sweep at N = 59 about 1.5 times
# as slow (2 vCPUs, 43 against 64 MB peak in a loop of that sweep alone),
# likely because the tracker's BLAS calls between blocks wake OpenBLAS
# threads that then compete with the next block's dgeev.
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
# Bytes of the temporaries ``_modeset`` and ``_gaps`` build at once, beside
# the vectors, and of the sorted vectors that ModeSets of one stack share.
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


def _real_form_modes(specs):
    """``eigendecompose`` of each spec's Hamiltonian, up to rounding, in order.

    A chain whose onsite energies share one real part omega0 has the
    non-Hermitian particle-hole symmetry, and then -i(H - omega0) is
    diagonally similar to the real tridiagonal A with diagonal Im H_jj,
    upper band t_j and lower band -t_j: A = D^-1 (-i(H - omega0)) D with
    D = diag(i^j).  One real eigensolve of A (LAPACK's dgeev through
    ``np.linalg.eig``) gives omega = omega0 + i lambda and psi = D v; a real
    lambda puts Re(omega) at omega0 exactly.  Consecutive such specs of one
    length N are solved together: their A are stacked, in blocks of at most
    ``STACK_BYTES`` (24 N^2 bytes a step), and each block is solved in
    chunks on every CPU, at most ``CHUNK_BYTES`` at once (``_chunked_eig``).
    dgeev solves every slice as a lone call would, so the result is the
    same bit for bit for any block, chunk and thread count.  Any other
    spec (a detuned reservoir, a single site) takes the dense complex path.
    A generator: the specs are read, and each block solved, only as the
    ModeSets are consumed, so it holds one block and no ModeSet it yielded.
    """
    block = []
    for spec in specs:
        re = spec.onsite.real
        if spec.n_sites < 2 or not np.all(re == re[0]):
            yield from _stacked_modes(block)
            block = []
            yield eigendecompose(assemble_hamiltonian(spec))
            continue
        n = spec.n_sites
        if block and (n != block[0].n_sites
                      or len(block) == max(1, STACK_BYTES // (24 * n * n))):
            yield from _stacked_modes(block)
            block = []
        if not block:
            _require_dense(n)
        block.append(spec)
    yield from _stacked_modes(block)


def _stacked_modes(block):
    """The ModeSets of real-form specs of one length, solved as one stack."""
    if not block:
        return
    onsite = np.array([spec.onsite for spec in block])
    bonds = np.array([spec.bonds for spec in block])
    k, n = onsite.shape
    a = np.zeros((k, n, n))
    a.reshape(k, -1)[:, ::n + 1] = onsite.imag
    a.reshape(k, -1)[:, 1::n + 1] = bonds
    a.reshape(k, -1)[:, n::n + 1] = -bonds
    try:
        lam, v = _chunked_eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}",
                               matrix=a) from exc
    del a
    v *= _PHASES[np.arange(n) % 4, None]
    w = np.empty((k, n), dtype=complex)
    w.real = onsite.real[:, :1] - lam.imag
    w.imag = lam.real
    # |H|_1 = |H|_inf for symmetric H: the largest row sum of the chain
    rows = np.abs(onsite)
    rows[:, :-1] += bonds
    rows[:, 1:] += bonds
    yield from _modeset(w, v, rows.max(axis=1))


def chain_modes(spec: LatticeSpec) -> ModeSet:
    """The full spectrum of a chain: its ``eigendecompose``, up to rounding.

    Chains of ``SPARSE_MIN_SITES`` sites or more are solved by
    ``_real_form_modes``: one dgeev of the real tridiagonal form of
    -i(H - omega0) where the onsite energies share one real part omega0,
    so a zero mode has Re(omega) == omega0 exactly.  At 509 sites that
    takes 0.30 s against 0.90 s for ``eigendecompose`` (medians of 5,
    2-vCPU x86, OpenBLAS 0.3.31).  A detuned chain, and every shorter
    chain, is ``eigendecompose(assemble_hamiltonian(spec))`` bit for bit.
    The order of on-axis modes follows their Re(omega), which on the
    complex path is rounding noise, so a zero mode's column can differ
    between the two paths; shorter chains stay complex so that the
    columns of the 19-site paper chains do not move.
    """
    if spec.n_sites >= SPARSE_MIN_SITES:
        return next(_real_form_modes([spec]))
    return eigendecompose(assemble_hamiltonian(spec))


def _gaps(w: np.ndarray) -> np.ndarray:
    """Distance from each eigenvalue to the nearest other one (inf if alone).

    Along the last axis of w, of shape (N,) or (k, N).  Built in blocks of
    at most ``SCRATCH_BYTES`` of complex distances.
    """
    n = w.shape[-1]
    stack = w.reshape(-1, n)
    flat = stack.ravel()
    rows = max(1, SCRATCH_BYTES // (16 * n))
    gaps = np.empty(len(flat))
    for lo in range(0, len(flat), rows):
        at = np.arange(lo, min(lo + rows, len(flat)))
        diff = np.abs(flat[at, None] - stack[at // n])
        diff[np.arange(len(at)), at % n] = np.inf
        gaps[at] = diff.min(axis=1)
    return gaps.reshape(w.shape)


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
    """The zero mode ``find_zero_modes(chain_modes(spec), spec, omega0)``
    would list first.

    That is the mode with |Re(omega) - omega0| <= ZERO_TOL and the smallest
    |Im(omega)|, with its reservoir quantities, or None.  Chains shorter than
    ``SPARSE_MIN_SITES`` take the dense path, so ``mode_index`` is set.
    Longer ones run shift-invert Arnoldi on the tridiagonal matrix, in O(N)
    time and memory, around the shift sigma = omega0 + i eps.  LAPACK's
    zgttrf factors H - sigma once and zgttrs applies its inverse; neither
    calls BLAS.  Two passes of classical Gram-Schmidt in numpy orthogonalize
    the Krylov basis, and the Ritz values are sigma + 1/theta, with theta
    the eigenvalues of the Hessenberg matrix.  So every BLAS call is
    numpy's, and no second BLAS thread pool starts.  The Krylov dimension
    doubles from ``SPARSE_MAX_K // 2`` to ``2 * SPARSE_MAX_K``, each time
    extending the basis built so far.  A zero mode z is accepted only when
    ``|z - sigma| + 2 eps`` is below the largest distance of the Ritz
    values from sigma, so that no zero mode with a smaller |Im(omega)| lies
    outside them, and when the explicit residual of its Ritz vector, and of
    the Ritz vector of every Ritz value nearer sigma, is below
    ``SPARSE_RESIDUAL * log2(N)`` times the scale.  Each such vector takes
    one step of inverse iteration first.  The start vector is fixed, so
    runs at one BLAS thread count repeat bit for bit; OpenBLAS's threaded
    zgemv rounds differently on another.  The eigenvector is scaled as
    LAPACK scales dense ones: unit norm, largest entry real and positive.
    Where H - sigma has an exactly zero pivot, or no Krylov dimension
    yields an accepted zero mode, the dense path decides, ``chain_modes``
    (on the real form where the chain has one), which raises
    EigensolverError for a chain longer than ``DENSE_MAX_SITES``.
    """
    n = spec.n_sites
    if n >= SPARSE_MIN_SITES:
        from scipy.linalg.lapack import zgttrf, zgttrs

        diag, off = spec.onsite, spec.bonds
        scale = np.abs(diag).max() + 2.0 * off.max()
        eps = SHIFT * scale
        sigma = omega0 + 1j * eps
        *lu, info = zgttrf(off, diag - sigma, off)
        q = np.random.default_rng(0).standard_normal(n).astype(complex)
        q /= np.linalg.norm(q)
        # the basis rows q_0 .. q_(m-1), one block per doubling, so that
        # growing it copies no row
        blocks = []
        hess = np.zeros((1, 0), dtype=complex)
        m = SPARSE_MAX_K // 2
        while info == 0 and 0 < m <= 2 * SPARSE_MAX_K and m < n:
            done = hess.shape[1]
            hess = np.pad(hess, (0, m - done))
            blocks.append(np.empty((m - done, n), dtype=complex))
            for j in range(done, m):
                blocks[-1][j - done] = q
                basis = blocks[:-1] + [blocks[-1][:j - done + 1]]
                x = zgttrs(*lu, q[:, None])[0][:, 0]
                for _ in range(2):
                    xc = x.conj()
                    coef = [(b @ xc).conj() for b in basis]
                    for b, c in zip(basis, coef):
                        x -= c @ b
                    hess[:j + 1, j] += np.concatenate(coef)
                hess[j + 1, j] = beta = np.linalg.norm(x)
                q = x / beta
            theta, y = np.linalg.eig(hess[:m])
            w = sigma + 1 / theta
            zero = np.flatnonzero(np.abs(w.real - omega0) <= ZERO_TOL)
            if zero.size:
                # |Im| closer than the eigenvalue accuracy is a tie, which
                # the dense order breaks by Re, then Im (a Hermitian chain's
                # near-zero pair has Im = 0 on both)
                im = np.abs(w[zero].imag)
                tied = zero[im <= im.min() + 1e-12 * scale]
                i = tied[np.lexsort((w[tied].imag, w[tied].real))[0]]
                dist = np.abs(w - sigma)
                if dist[i] + 2 * eps < dist.max():
                    # Ritz vectors of i and of every Ritz value nearer
                    # sigma, which must all be eigenpairs of H
                    pick = np.append(np.flatnonzero(dist < dist[i]), i)
                    parts = np.split(y[:, pick], np.cumsum(
                        [len(b) for b in blocks])[:-1])
                    v = sum(c.T @ b for c, b in zip(parts, blocks))
                    # then one step of inverse iteration: eig's vectors of
                    # the Hessenberg matrix, whose entries can reach
                    # |(H - sigma)^-1| >> |theta|, err by eps times those
                    v = zgttrs(*lu, v.T)[0].T
                    v /= np.linalg.norm(v, axis=1)[:, None]
                    hv = diag * v - w[pick, None] * v
                    hv[:, :-1] += off * v[:, 1:]
                    hv[:, 1:] += off * v[:, :-1]
                    if np.linalg.norm(hv, axis=1).max() \
                            <= SPARSE_RESIDUAL * np.log2(n) * scale:
                        psi = v[-1].copy()
                        top = int(np.argmax(np.abs(psi)))
                        psi *= np.conj(psi[top]) / abs(psi[top])
                        psi[top] = psi[top].real
                        return _zero_mode(None, w[i], psi, spec, omega0,
                                          ZERO_TOL)
            m *= 2
    zms = find_zero_modes(chain_modes(spec), spec, omega0)
    return zms[0] if zms else None


def sweep_gamma(spec_of_gamma, gamma_grid):
    """Decompose the lattice family ``spec_of_gamma(gamma)`` on a monotone grid.

    Returns an iterator over the steps' ModeSets, in grid order; the grid
    is checked at the call, each step is built and solved only as the
    iterator reaches it, and the iterator keeps no ModeSet it returned.  Fed
    to ``track_modes``, a sweep of any length then holds one block of
    ``STACK_BYTES`` and two ModeSets (16 N^2 bytes each, or the array of at
    most ``SCRATCH_BYTES`` that each shares with its neighbours in the
    block); ``list()`` it to keep every step.  The steps are solved by
    ``_real_form_modes``: chains whose onsite energies share one real part
    omega0 (every ``coupled_chain`` without a detuned ``reservoir_onsite``)
    are solved in real arithmetic, through the real tridiagonal form of
    -i(H - omega0), stacked in blocks of at most ``STACK_BYTES`` of
    matrices and vectors (24 N^2 bytes a step).  Each block is solved in
    chunks, one ``np.linalg.eig`` call each, on one thread per CPU; the
    chunks in flight hold ``CHUNK_BYTES`` together, or one step a thread
    where a step is larger.  Every output bit is that of one call on the
    whole stack, whatever the CPU count.  Any other chain is solved by
    ``eigendecompose``.  Both give the same ``ModeSet`` up to rounding, but
    on the real form an on-axis mode has Re(omega) == omega0 exactly and
    the partners omega, -omega* of an NHPH pair have bitwise-equal Im,
    where the complex solver leaves noise of order 1e-15 in both; a sweep's
    outputs differ from the complex path's in those low bits and, through
    tie-breaks, in which partner of a pair carries which mode number.
    ``eigendecompose`` stays complex.  ``chain_modes``, and with it the
    ``spectrum`` task, takes the real form only from ``SPARSE_MIN_SITES``
    sites on: the order of on-axis modes, and so a zero mode's
    ``mode_index``, follows their Re(omega), which on the complex path is
    rounding noise, so it moves on the real form.
    """
    grid = np.asarray(gamma_grid, dtype=float)
    if len(grid) > 1 and not (np.all(np.diff(grid) > 0) or np.all(np.diff(grid) < 0)):
        raise ValueError("gamma grid must be strictly monotone")
    return _real_form_modes(spec_of_gamma(g) for g in grid)


def track_modes(sweep, parameters=None) -> TrackedSweep:
    """Follow mode identities through a sweep by maximal eigenvector overlap.

    ``sweep`` is any iterable of ModeSets, such as ``sweep_gamma``'s
    iterator; only the previous and the current step are held.
    ``parameters`` gives each step's parameter (default 0, 1, ...), one
    entry per step, else ValueError once the sweep is consumed.
    Consecutive mode sets are matched greedily on |<psi_i|psi_j>|: pairs
    are taken in order of overlap, largest first, ties going to the lowest
    flat index i * N + j, and each taken pair removes its row and column
    (see ``_greedy_match``).  When the overlap of a mode's match is below
    0.5 its trajectory is split: the old one ends and a new one starts at
    that step, with a warning "mode trajectory split at step ...".  The
    trajectories and their mode numbers come as one table, ``TrackedSweep``.
    """
    steps = iter(sweep)
    prev = next(steps, None)
    # per step: the trajectory id of each column, the eigenvalues, and the
    # overlap of the match that reached each column
    ids, eigenvalues, overlaps = [], [], []
    if prev is not None:
        n = n_tracks = prev.n_modes
        ids.append(np.arange(n))
        eigenvalues.append(prev.eigenvalues)
        overlaps.append(np.full(n, np.nan))
        # a split's new trajectory takes the place of the one it ends, and
        # splits are warned of in the order of places: place p holds column
        # places[p], and held column p at step 0
        places = np.arange(n)

    for step, modes in enumerate(steps, start=1):
        overlap = np.abs(prev.right_vectors.conj().T @ modes.right_vectors)
        match = _greedy_match(overlap)
        ov = overlap[np.arange(n), match]
        by_place = ov[places]
        for value in by_place[by_place < 0.5]:
            warnings.warn(
                f"mode trajectory split at step {step}: overlap {value:.3f}",
                stacklevel=2)
        places = match[places]
        col_ids = np.empty(n, dtype=int)
        col_ids[match] = ids[-1]
        new = np.sort(match[ov < 0.5])
        col_ids[new] = n_tracks + np.arange(len(new))
        n_tracks += len(new)
        col_ov = np.empty(n)
        col_ov[match] = ov
        ids.append(col_ids)
        eigenvalues.append(modes.eigenvalues)
        overlaps.append(col_ov)
        prev = modes

    n_steps = len(ids)
    if n_steps < 2:
        raise ValueError("need at least two sweep points to track modes")
    params = np.arange(n_steps, dtype=float) if parameters is None \
        else np.asarray(parameters, dtype=float)
    if len(params) != n_steps:
        raise ValueError(f"{len(params)} parameters for {n_steps} sweep "
                         "points; need one a step")
    track, w = np.array(ids), np.array(eigenvalues)
    # the numbering of ``TrackedSweep.mode_id``
    last = w[-1]
    ranked = track[-1][np.lexsort((track[-1], last.real, -last.imag,
                                   -np.abs(last.imag)))]
    numbers = np.full(n_tracks, -1)
    numbers[ranked] = np.arange(1, n + 1)
    return TrackedSweep(params, w, track, np.array(overlaps), numbers[track])


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


def fit_pair_threshold(tracked: TrackedSweep, a: int, b: int,
                       omega0: float = 0.0) -> float:
    """Least-squares threshold gamma_mu of the zero-mode pair numbered a, b.

    Uses the sweep steps where both mode numbers are present and both modes
    sit on the symmetry axis, |Re(omega) - omega0| <= ``ZERO_TOL``, with
    opposite-sign Im(omega), and fits Im(omega)^2 = gamma^2 - gamma_mu^2
    pooled over both branches.
    """
    if min(a, b) < 1:
        raise ValueError(f"mode numbers start at 1, got {a} and {b}")
    at_a, at_b = tracked.mode_id == a, tracked.mode_id == b
    both = at_a.any(axis=1) & at_b.any(axis=1)
    wa = tracked.eigenvalues[at_a & both[:, None]]
    wb = tracked.eigenvalues[at_b & both[:, None]]
    g = tracked.parameters[both]
    # negated tests keep a NaN point, as a test that skips points would
    keep = ~((np.abs(wa.real - omega0) > ZERO_TOL)
             | (np.abs(wb.real - omega0) > ZERO_TOL)
             | (np.sign(wa.imag) * np.sign(wb.imag) >= 0))
    # pooled in step order, a then b; float_power squares with libm's pow,
    # as a scalar ``x ** 2`` does
    g_sq = g[keep] * g[keep]
    samples = np.stack([g_sq - np.float_power(wa.imag[keep], 2),
                        g_sq - np.float_power(wb.imag[keep], 2)], axis=1)
    if len(samples) < 3:
        raise FitError(
            "need at least 3 sweep points with opposite-sign Im(omega) "
            f"beyond the bifurcation, found {len(samples)}")
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
