"""Eigendecomposition of complex-symmetric Hamiltonians and mode bookkeeping.

Every chain Hamiltonian has gain/loss on the diagonal and real couplings,
so it equals its transpose (H = H^T).  A left eigenvector is then the
transposed right one, normalized by the c-product psi^T psi (Moiseyev,
*Non-Hermitian Quantum Mechanics*, 2011, ch. 5), and only right vectors
are computed.  The module also provides defectiveness diagnostics,
spectral-symmetry pairing checks, zero-mode detection, and the tracking
of modes through gain/loss sweeps by continuation of eigenvalues solved in
real arithmetic where the chain allows it (``sweep_gamma``).  The baseline
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
        Row k holds step k's eigenvalues, sorted by (Re, Im) as
        ``ModeSet.eigenvalues`` are.
    mode_id : (S, N) int ndarray
        The mode number 1..N of each column, one trajectory through every
        step a number, by the last step's (-|Im|, -Im, Re), ties to the
        trajectory from the lower column of step 0: the two branches of a
        +/- pair get consecutive numbers, NHPH partners omega, -omega* with
        equal Im are numbered left to right.
    """

    parameters: np.ndarray
    eigenvalues: np.ndarray
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
    return _modeset(w, vr, norm_bound)


def _modeset(w: np.ndarray, vr: np.ndarray, norm_bound: float) -> ModeSet:
    """The ``ModeSet`` of one matrix's eigenpairs w (N,), vr (N, N).

    norm_bound is the matrix's scale.  Sorts by (Re, Im), scales the
    vectors to unit norm and runs the near-defective screen of
    ``eigendecompose``.  The sorted vectors go into a new array, column j
    in row j, so every reduction runs along a contiguous column.  Beside vr
    and that array, each temporary holds at most ``SCRATCH_BYTES``.
    """
    n = len(w)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    gaps = _gaps(w)
    vecs = vr.T[order]
    rows = max(1, SCRATCH_BYTES // (16 * n))
    norms = np.empty(n)
    for r in range(0, n, rows):
        norms[r:r + rows] = np.linalg.norm(vecs[r:r + rows], axis=1)
    vecs /= norms[:, None]
    self_overlaps = np.abs(np.einsum("ji,ji->j", vecs, vecs))
    flagged = (gaps < DEFECT_GAP_FRACTION * max(norm_bound, 1e-300)) \
        | (self_overlaps < DEFECT_OVERLAP)
    return ModeSet(w, vecs.T, gaps, self_overlaps, flagged)


# i^j for j mod 4: the diagonal similarity D of ``_real_form_modes``
_PHASES = np.array([1, 1j, -1, -1j])
# Bytes of the stack of real forms A (8 N^2 a step) that
# ``_sweep_eigenvalues`` solves as one block; 301 steps fit up to N = 83.
# The ``sweep`` task of 101 steps at N = 209 peaks at 57 MB RSS.
STACK_BYTES = 16 * 2 ** 20
# Bytes of the chunks that ``_chunked_eigvals``' threads solve at once, all
# threads together, counted as in ``STACK_BYTES``: 16 steps a thread at
# N = 59 on 2 CPUs, one step a thread from 17 CPUs on, one thread above
# N = 237.  The benchmark's 301-step stack at N = 59 took 84-112 ms on 2
# vCPUs, against 95-125 ms in 50-step chunks (4 and 3 to the two threads)
# and 145-151 ms as one call.
CHUNK_BYTES = 900_000
# Bytes of the temporaries ``_modeset`` and ``_gaps`` build at once, beside
# the vectors.
SCRATCH_BYTES = 2 ** 18
# Levels of bisection of a crowded sweep step.  4 levels give every 19- and
# 59-site chain at t' = 0.15 to 0.25 on every grid of step 0.02 to 0.1 the
# pair thresholds eigenvector overlaps gave it, but leave a 79-site sweep
# of step 0.1 up to 1.4e-3 off and a 209-site one of step 0.03 up to
# 9.2e-4, where links near the reservoir's exceptional point at gamma = 2t
# stay crowded.  5 and 6 levels match the overlaps there (the 209-site
# sweep's step-0.01 thresholds to 7.6e-6); 6 leave one link of the
# 209-site sweep crowded against 2, and a 259-site sweep of step 0.05 off
# its step-0.01 thresholds by 1.1e-3 against 3.9e-3.  An exact tie is not
# crowded: NHPH partners that meet at an exceptional point are bitwise
# equally far from every on-axis eigenvalue beyond it, at every level, so
# the greedy's row order decides anyway.  Bisecting those cost the
# benchmark's 59-site sweep 167 solves against 21 (fig2's 31 against 0),
# for the same pair thresholds; fig2's table is the same, and at 59 sites
# some bulk modes trade mode numbers.  The tie is exact at omega0 = 0; at
# 0.3 rounding breaks some, for 26 and 1 solves.  A link still crowded at
# the last level is warned of.
BISECT_DEPTH = 6


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _chunked_eigvals(a: np.ndarray) -> np.ndarray:
    """Complex ``np.linalg.eigvals(a)`` of a real stack, in chunks on threads.

    The chunks are dealt round-robin to one thread per CPU, the calling
    thread among them, never more threads than chunks or than slices fit
    in ``CHUNK_BYTES``, which the chunks in flight hold together (or one
    slice, where larger).  So with one CPU, or slices over half of
    ``CHUNK_BYTES`` (N > 237), no thread starts.  A worker calls only
    ``np.linalg.eigvals``, which releases the GIL, and copies each result
    into the complex array allocated here.  dgeev solves each slice alone,
    so every bit is that of one call on the whole stack; a chunk whose
    lambdas are all real is stored with Im = 0, as the stacked call gives
    it.  Every thread is joined before a worker's first error is raised.
    """
    steps, n, _ = a.shape
    lam = np.empty((steps, n), dtype=complex)
    step = 8 * n * n
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
                lam[c] = np.linalg.eigvals(a[c])
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
    return lam


def _has_real_form(spec: LatticeSpec) -> bool:
    """Whether the chain's onsite energies share one real part (N >= 2)."""
    re = spec.onsite.real
    return spec.n_sites >= 2 and bool(np.all(re == re[0]))


def _real_forms(specs) -> np.ndarray:
    """The real tridiagonal forms A of chains of one length, stacked (k, N, N).

    Where the onsite energies share one real part omega0 (the non-Hermitian
    particle-hole symmetry), A = D^-1 (-i(H - omega0)) D with D = diag(i^j)
    has diagonal Im H_jj, upper band t_j and lower band -t_j.  Its lambda
    gives omega = omega0 + i lambda (``_omega``), exactly on the axis for a
    real lambda, and its v gives psi = D v.  A chain longer than
    ``DENSE_MAX_SITES`` raises EigensolverError before the stack exists.
    """
    onsite = np.array([spec.onsite.imag for spec in specs])
    bonds = np.array([spec.bonds for spec in specs])
    k, n = onsite.shape
    _require_dense(n)
    a = np.zeros((k, n, n))
    a.reshape(k, -1)[:, ::n + 1] = onsite
    a.reshape(k, -1)[:, 1::n + 1] = bonds
    a.reshape(k, -1)[:, n::n + 1] = -bonds
    return a


def _omega(omega0, lam: np.ndarray) -> np.ndarray:
    """omega = omega0 + i lambda, part by part: Im(omega) is Re(lambda)."""
    w = np.empty(lam.shape, dtype=complex)
    w.real = omega0 - lam.imag
    w.imag = lam.real
    return w


def _real_form_modes(spec: LatticeSpec) -> ModeSet:
    """``eigendecompose`` of a chain's Hamiltonian, up to rounding: one
    dgeev (``np.linalg.eig``) of its real form (``_real_forms``)."""
    a = _real_forms([spec])[0]
    try:
        lam, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}",
                               matrix=a) from exc
    n = spec.n_sites
    v = v * _PHASES[np.arange(n) % 4, None]
    # |H|_1 = |H|_inf for symmetric H: the largest row sum of the chain
    rows = np.abs(spec.onsite)
    rows[:-1] += spec.bonds
    rows[1:] += spec.bonds
    return _modeset(_omega(spec.onsite.real[0], lam), v, rows.max())


def chain_modes(spec: LatticeSpec) -> ModeSet:
    """The full spectrum of a chain: its ``eigendecompose``, up to rounding.

    Chains of ``SPARSE_MIN_SITES`` sites or more with a real form take
    ``_real_form_modes``, so a zero mode has Re(omega) == omega0 exactly;
    at 509 sites that takes 0.30 s against 0.90 s (medians of 5, 2-vCPU
    x86, OpenBLAS 0.3.31).  Any other chain is
    ``eigendecompose(assemble_hamiltonian(spec))`` bit for bit.  The order
    of on-axis modes follows Re(omega), rounding noise on the complex path,
    so a zero mode's column can differ between the paths; shorter chains
    stay complex so that the columns of the 19-site paper chains stay put.
    """
    if spec.n_sites >= SPARSE_MIN_SITES and _has_real_form(spec):
        return _real_form_modes(spec)
    return eigendecompose(assemble_hamiltonian(spec))


def _gaps(w: np.ndarray) -> np.ndarray:
    """Distance from each eigenvalue to the nearest other one (inf if alone).

    Built in blocks of at most ``SCRATCH_BYTES`` of complex distances.
    """
    n = len(w)
    rows = max(1, SCRATCH_BYTES // (16 * n))
    gaps = np.empty(n)
    for lo in range(0, n, rows):
        diff = np.abs(w[lo:lo + rows, None] - w)
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


def sweep_gamma(spec_of_gamma, gamma_grid) -> TrackedSweep:
    """The ``TrackedSweep`` of the chains ``spec_of_gamma(gamma)`` on a
    strictly monotone grid of two points or more.

    Each step is solved for its eigenvalues alone (``_sweep_eigenvalues``),
    on the real form where the chain has one: an on-axis mode then has
    Re(omega) == omega0 exactly, and NHPH partners omega, -omega* have
    bitwise-equal Im.  Below 75 sites these are ``np.linalg.eig``'s bit for
    bit; from 75 on LAPACK takes another QR path without vectors, and the
    low bits move.  No bit depends on the CPU count.  Modes are followed by
    continuation (``_link``), which on a grid coarse against the eigenvalue
    spacing costs up to 2**BISECT_DEPTH solves a step, and warns of each
    step whose link it could not make unambiguous.
    """
    grid = np.asarray(gamma_grid, dtype=float)
    if len(grid) < 2:
        raise ValueError("need at least two sweep points to track modes")
    if not (np.all(np.diff(grid) > 0) or np.all(np.diff(grid) < 0)):
        raise ValueError("gamma grid must be strictly monotone")
    w = _sweep_eigenvalues(spec_of_gamma, grid)
    track = _link(spec_of_gamma, grid, w)
    last, ids = w[-1], track[-1]
    ranked = ids[np.lexsort((ids, last.real, -last.imag, -np.abs(last.imag)))]
    numbers = np.empty(len(ids), dtype=int)
    numbers[ranked] = np.arange(1, len(ids) + 1)
    return TrackedSweep(grid, w, numbers[track])


def _sweep_eigenvalues(spec_of_gamma, gammas) -> np.ndarray:
    """Eigenvalues of ``spec_of_gamma(g)`` for each g, a row each, sorted by
    (Re, Im).  Consecutive chains with a real form (``_real_forms``) are
    stacked in blocks of at most ``STACK_BYTES``, built and solved one at a
    time by ``_chunked_eigvals``; any other chain takes
    ``np.linalg.eigvals`` of H.  Every chain must have the first's length.
    """
    w = block = None

    def solve(end):
        a = _real_forms(block)
        try:
            lam = _chunked_eigvals(a)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"dense eigensolver failed: {exc}",
                                   matrix=a) from exc
        omega0 = np.array([[spec.onsite.real[0]] for spec in block])
        w[end - len(block):end] = _omega(omega0, lam)
        block.clear()

    for k, g in enumerate(gammas):
        spec = spec_of_gamma(g)
        n = spec.n_sites
        if w is None:
            _require_dense(n)
            w, block = np.empty((len(gammas), n), dtype=complex), []
            per = max(1, STACK_BYTES // (8 * n * n))
        elif n != w.shape[1]:
            raise ValueError(f"a {n}-site chain at gamma = {g} in a sweep of "
                             f"{w.shape[1]}-site chains")
        if not _has_real_form(spec):
            if block:
                solve(k)
            m = assemble_hamiltonian(spec).matrix
            try:
                w[k] = np.linalg.eigvals(m)
            except np.linalg.LinAlgError as exc:
                raise EigensolverError(
                    f"dense eigensolver failed: {exc}", matrix=m) from exc
            continue
        block.append(spec)
        if len(block) == per:
            solve(k + 1)
    if block:
        solve(len(w))
    order = np.lexsort((w.imag, w.real))
    return w[np.arange(len(w))[:, None], order]


def _link(spec_of_gamma, grid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each column's trajectory in a sweep's eigenvalues w (S, N): the
    column of step 0 whose mode it continues.

    Steps are linked by ``_greedy_match`` of their eigenvalues to the
    predictions: the last point at the first step, else the secant through
    the last two points linked, scaled to the step.  A crowded link is
    bisected, its midpoint solved and linked through, down to
    ``BISECT_DEPTH`` levels; each midpoint is solved alone, as it is
    reached.  A link still crowded at the deepest level is kept as the
    greedy made it, with a warning that names its step.
    """
    n = w.shape[1]
    crowded = []

    def advance(state, g, new, depth):
        # state: the last two points' parameters, the eigenvalues of the
        # one before in the last one's columns (None at first), the last
        # one's; returns the state at g and each column's column at g
        g0, g1, before, now = state
        guess = now if before is None \
            else now + (now - before) * ((g - g1) / (g1 - g0))
        dist = np.abs(guess[:, None] - new)
        match = dist.argmin(axis=1)
        if np.bincount(match, minlength=n).max() > 1:
            # trajectories share a nearest eigenvalue: crowded if the match
            # left one a farther eigenvalue than one that went to a strictly
            # nearer trajectory
            match = _greedy_match(dist)
            got = dist[np.arange(n), match]
            held = np.empty(n)
            held[match] = got
            if np.any((dist < got[:, None]) & (dist > held)):
                mid = 0.5 * (g1 + g)
                if depth < BISECT_DEPTH and g1 != mid != g:
                    at_mid = _sweep_eigenvalues(spec_of_gamma, [mid])[0]
                    state, first = advance(state, mid, at_mid, depth + 1)
                    state, second = advance(state, g, new, depth + 1)
                    return state, second[first]
                crowded.append(g)
        moved = np.empty_like(now)
        moved[match] = now
        return (g1, g, moved, new), match

    track = np.empty(w.shape, dtype=int)
    track[0] = np.arange(n)
    state = (np.nan, grid[0], None, w[0])
    for k in range(1, len(grid)):
        state, match = advance(state, grid[k], w[k], 0)
        track[k, match] = track[k - 1]
        if crowded:
            warnings.warn(f"mode link to step {k} (gamma = {grid[k]:.6g}) "
                          "still crowded after bisection", stacklevel=3)
            crowded.clear()
    return track


def _greedy_match(dist: np.ndarray) -> np.ndarray:
    """Column matched to each row of a square matrix of finite distances.

    The greedy min-weight matching: repeatedly take the smallest remaining
    entry, ties going to the lowest flat index, and remove its row and
    column.  It is built in rounds that take every locally dominant pair at
    once, a pair that is the first minimum of both its row and its column
    (``argmin`` picks the lowest index among ties, so both orders agree).
    No entry that conflicts with such a pair precedes it in the greedy
    order, so the greedy takes it too (Preis, STACS 1999), and a round
    takes at least one pair: the smallest remaining entry.  Where the first
    minima of the rows lie in distinct columns, they are the matching.
    """
    n = len(dist)
    match = np.empty(n, dtype=int)
    work = dist.copy()
    rows = np.arange(n)
    free = np.ones(n, dtype=bool)
    while free.any():
        best_col = work.argmin(axis=1)
        best_row = work.argmin(axis=0)
        taken = rows[free & (best_row[best_col] == rows)]
        cols = best_col[taken]
        match[taken] = cols
        free[taken] = False
        work[taken, :] = np.inf
        work[:, cols] = np.inf
    return match


def fit_pair_threshold(tracked: TrackedSweep, a: int, b: int,
                       omega0: float = 0.0) -> float:
    """Least-squares threshold gamma_mu of the zero-mode pair numbered a, b.

    Uses the sweep steps where both modes sit on the symmetry axis,
    |Re(omega) - omega0| <= ``ZERO_TOL``, with opposite-sign Im(omega), and
    fits Im(omega)^2 = gamma^2 - gamma_mu^2 pooled over both branches.
    Every step holds every mode number, as in a table from ``sweep_gamma``.
    """
    if min(a, b) < 1:
        raise ValueError(f"mode numbers start at 1, got {a} and {b}")
    if max(a, b) > tracked.mode_id.shape[1]:
        raise ValueError(f"mode numbers end at {tracked.mode_id.shape[1]}, "
                         f"got {a} and {b}")
    wa = tracked.eigenvalues[tracked.mode_id == a]
    wb = tracked.eigenvalues[tracked.mode_id == b]
    g = tracked.parameters
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
