import dataclasses
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nhzm
from nhzm.errors import EigensolverError, FitError
from nhzm.scenario import load_scenario
from nhzm.spectral import (DEFECT_GAP_FRACTION, DEFECT_OVERLAP,
                           SPARSE_MIN_SITES, ZERO_TOL, _gaps, _greedy_match,
                           _modeset, _real_form_modes, _sweep_eigenvalues,
                           _zero_mode_indices)

from conftest import (KNOWN_ZERO_OMEGAS, baseline_zero_mode, chain_modes,
                      trajectories)


def random_gain_loss_chain(n, couplings, gamma):
    m = np.zeros((n, n), dtype=complex)
    for i, c in enumerate(couplings):
        m[i, i + 1] = m[i + 1, i] = c
    for i in range(n):
        m[i, i] = 1j * gamma * (-1) ** i
    return nhzm.Hamiltonian(m)


def lapack_left_vectors(m, modes):
    """Left vectors and overlaps from LAPACK's own left eigenvectors.

    Rows are unit-norm left eigenvectors, scaled so ``left @ right`` has unit
    diagonal against LAPACK's unit-norm right vectors of the same call,
    except on the near-defective modes of ``modes``; overlaps are
    |<left|right>|.  Both follow the order of ``modes``, paired by
    eigenvalue: eigenvalues whose Re differs by rounding only (on-axis
    modes of a long chain) need not sort alike in two solvers.
    """
    w, vl, vr = sla.eig(m, left=True, right=True)
    _, order = linear_sum_assignment(
        np.abs(modes.eigenvalues[:, None] - w[None, :]))
    vr = vr[:, order] / np.linalg.norm(vr[:, order], axis=0, keepdims=True)
    left = vl[:, order].conj().T
    left = left / np.linalg.norm(left, axis=1, keepdims=True)
    scale = np.einsum("ij,ji->i", left, vr)
    ok = ~modes.near_defective
    left[ok] /= scale[ok, None]
    return left, np.abs(scale)


class TestEigendecompose:
    def test_one_by_one(self):
        modes = nhzm.eigendecompose(nhzm.Hamiltonian([[0.3j]]))
        assert modes.eigenvalues[0] == pytest.approx(0.3j)
        assert abs(modes.right_vectors[0, 0]) == pytest.approx(1.0)

    def test_hermitian_dimer(self):
        h = nhzm.Hamiltonian([[0, 1.0], [1.0, 0]])
        modes = nhzm.eigendecompose(h)
        np.testing.assert_allclose(modes.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_gain_loss_dimer_flags_coalescence(self):
        # characteristic polynomial omega^2 = t^2 - gamma^2 coalesces at
        # gamma = t, where the matrix turns defective
        h = nhzm.Hamiltonian([[1j, 1.0], [1.0, -1j]])
        modes = nhzm.eigendecompose(h)
        np.testing.assert_allclose(modes.eigenvalues, [0, 0], atol=1e-7)
        assert modes.near_defective.all()
        _, overlaps = lapack_left_vectors(h.matrix, modes)
        assert (overlaps < DEFECT_OVERLAP).all()
        assert (modes.lr_overlaps < DEFECT_OVERLAP).all()
        assert h.norm == np.linalg.norm(h.matrix, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7),
           st.lists(st.floats(0.2, 2.0), min_size=13, max_size=13),
           st.floats(0.0, 3.0), st.floats(1.0, 16.0))
    def test_defect_screen_covers_spectral_norm_screen(self, half, segment,
                                                       gamma, digits):
        # two identical gain/loss segments joined by a bond of 10^-digits:
        # their eigenvalues pair up with gaps on both sides of the screen
        # threshold, while the eigenvectors stay apart (no coalescence)
        m = 2 * half
        couplings = segment[:m - 1] + [10.0 ** -digits] + segment[:m - 1]
        h = random_gain_loss_chain(2 * m, couplings, gamma)
        modes = nhzm.eigendecompose(h)
        assert "norm" not in vars(h), "the screen must not compute an SVD"
        exact = (modes.eigenvalue_gaps < DEFECT_GAP_FRACTION * h.norm) | (
            modes.lr_overlaps < DEFECT_OVERLAP)
        assert not (exact & ~modes.near_defective).any()
        assert h.norm == np.linalg.norm(h.matrix, 2)

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 3.0])
    def test_residual_bound(self, gamma):
        spec, modes = chain_modes(gamma)
        h = nhzm.assemble_hamiltonian(spec)
        for i in range(modes.n_modes):
            resid = np.linalg.norm(
                h.matrix @ modes.right_vectors[:, i]
                - modes.eigenvalues[i] * modes.right_vectors[:, i])
            assert resid <= 1e-10 * h.norm

    def test_rejects_matrix_that_is_not_its_transpose(self):
        # a Bloch matrix at k != 0 is Hermitian-like off the diagonal, not
        # symmetric, so its left vectors are not transposed right ones
        m = nhzm.bloch_hamiltonian(0.7, 1, 1, 0.5)
        with pytest.raises(EigensolverError, match="symmetric"):
            nhzm.eigendecompose(nhzm.Hamiltonian(m))

    @pytest.mark.parametrize("gamma,n_reservoir",
                             [(0.5, 10), (2.0, 10), (3.0, 10), (2.0, 500)])
    def test_left_vectors_match_lapack_left_vectors(self, gamma, n_reservoir):
        h = nhzm.assemble_hamiltonian(
            nhzm.coupled_chain(gamma, n_reservoir=n_reservoir))
        modes = nhzm.eigendecompose(h)
        left, overlaps = lapack_left_vectors(h.matrix, modes)
        np.testing.assert_allclose(modes.lr_overlaps, overlaps, rtol=0,
                                   atol=1e-10)
        assert not modes.near_defective.any()
        # rows scale as 1/|psi^T psi|, so bound each relative to its norm
        rows = modes.left_vectors
        size = np.linalg.norm(rows, axis=1)
        resid = np.linalg.norm(
            rows @ h.matrix - modes.eigenvalues[:, None] * rows, axis=1)
        assert (resid <= 1e-10 * h.norm * size).all()
        np.testing.assert_allclose(rows @ modes.right_vectors,
                                   np.eye(modes.n_modes), rtol=0, atol=1e-10)
        # on the 509-site chain the vectors of two solves (numpy's and
        # scipy's OpenBLAS builds) of the mode pair 7.9e-5 apart differ by
        # ~eps |H| / gap times a rounding factor that depends on the BLAS
        # thread count: 3.2e-11 at one thread, 1.07e-10 at two.  There the
        # residual and biorthonormality checks above, on eigendecompose's
        # own output, stand in for the comparison with LAPACK's vectors
        if n_reservoir < 500:
            error = np.linalg.norm(rows - left, axis=1)
            assert (error <= 1e-10 * np.linalg.norm(left, axis=1)).all()

    def test_left_vectors_read_only_and_derived_once(self):
        modes = nhzm.eigendecompose(nhzm.assemble_hamiltonian(
            nhzm.coupled_chain(2.0)))
        assert [f.name for f in dataclasses.fields(modes)] == [
            "eigenvalues", "right_vectors", "eigenvalue_gaps", "lr_overlaps",
            "near_defective"]
        assert "left_vectors" not in vars(modes)
        left = modes.left_vectors
        assert modes.left_vectors is left
        assert not left.flags.writeable
        with pytest.raises(ValueError):
            left[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            modes.left_vectors = left.copy()

    def test_peak_memory_stays_near_the_vectors(self):
        # LAPACK's vectors and their sorted, normalized copy are 2 x 16 N^2
        # bytes; the norms and eigenvalue gaps add only SCRATCH_BYTES
        n = 400
        h = nhzm.assemble_hamiltonian(nhzm.coupled_chain(
            2.0, n_reservoir=n - 9))
        tracemalloc.start()
        try:
            nhzm.eigendecompose(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * n * n

    @pytest.mark.parametrize("scratch", [1, 7, 123, 10 ** 9])
    def test_blocked_scratch_matches_whole_arrays(self, monkeypatch, scratch):
        # blocks of 1 row or column, of 7, of 123, and of everything at once
        n = 400
        h = nhzm.assemble_hamiltonian(nhzm.coupled_chain(
            0.7, n_reservoir=n - 9))
        w, vr = np.linalg.eig(h.matrix)
        monkeypatch.setattr(nhzm.spectral, "SCRATCH_BYTES", scratch * 16 * n)
        same_modesets([_modeset(w, vr, 1.0)],
                      [whole_array_modeset(w, vr, 1.0)])
        dist = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(dist, np.inf)
        assert _gaps(w).tobytes() == dist.min(axis=1).tobytes()

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 3.0])
    def test_biorthonormal_within_tolerance(self, gamma):
        _, modes = chain_modes(gamma)
        ok = ~modes.near_defective
        gram = modes.left_vectors[ok] @ modes.right_vectors[:, ok]
        np.testing.assert_allclose(gram, np.eye(ok.sum()), atol=1e-10)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 12)
            h = random_gain_loss_chain(n, rng.uniform(0.2, 2.0, n - 1),
                                       rng.uniform(0, 3))
            modes = nhzm.eigendecompose(h)
            assert abs(modes.eigenvalues.sum() - np.trace(h.matrix)) \
                <= 1e-10 * max(h.norm, 1.0)

    def test_determinant_identity_small_n(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(2, 7)
            h = random_gain_loss_chain(n, rng.uniform(0.2, 2.0, n - 1),
                                       rng.uniform(0.1, 3))
            modes = nhzm.eigendecompose(h)
            det = np.linalg.det(h.matrix)
            assert abs(np.prod(modes.eigenvalues) - det) <= 1e-8 * abs(det)


class TestSpectralSymmetry:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 20), st.floats(0.1, 3.0), st.floats(0.1, 3.0),
           st.floats(0.0, 3.0))
    def test_nhph_pairing_for_random_bipartite_specs(self, n, t_a, t_b, gamma):
        couplings = [t_a if i % 2 == 0 else t_b for i in range(n - 1)]
        h = random_gain_loss_chain(n, couplings, gamma)
        modes = nhzm.eigendecompose(h)
        # at an exact exceptional point the eigenvalues themselves carry
        # O(sqrt(eps)) error, so a 1e-8 pairing check is only meaningful for
        # non-defective draws
        assume(not modes.near_defective.any())
        pairing = nhzm.check_spectral_symmetry(modes, tol=1e-8)
        assert pairing.all_paired

    def test_full_chain_nhph_paired(self):
        _, modes = chain_modes(2.0)
        pairing = nhzm.check_spectral_symmetry(modes, tol=1e-8)
        assert pairing.all_paired
        assert len(modes.eigenvalues) == 19

    def test_hermitian_ssh_chain_chiral_paired(self):
        # real eigenvalues: the NHPH image -omega* is the chiral one, -omega
        spec = nhzm.build_reservoir(8, 1.0, 0.4, 0.0)
        modes = nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))
        pairing = nhzm.check_spectral_symmetry(modes, tol=1e-8)
        assert pairing.all_paired

    def test_lossy_single_site_self_pairs_under_nhph(self):
        modes = nhzm.eigendecompose(nhzm.Hamiltonian([[-0.3j]]))
        pairing = nhzm.check_spectral_symmetry(modes)
        assert pairing.pairs == ((0, 0),)

    def test_unmatched_modes_are_reported_not_raised(self):
        modes = nhzm.eigendecompose(nhzm.Hamiltonian([[0.5 + 0j]]))
        pairing = nhzm.check_spectral_symmetry(modes, tol=1e-10)
        assert pairing.unmatched == (0,)


class TestFindZeroModes:
    @pytest.mark.parametrize("gamma,expected", sorted(KNOWN_ZERO_OMEGAS.items()))
    def test_known_zero_mode_frequencies(self, gamma, expected):
        _, zm = baseline_zero_mode(gamma)
        assert abs(zm.omega - expected * 1j) <= 1e-3

    def test_hermitian_dimer_has_no_zero_mode(self):
        modes = nhzm.eigendecompose(nhzm.Hamiltonian([[0, 1.0], [1.0, 0]]))
        assert nhzm.find_zero_modes(modes) == []

    def test_strong_coupling_zigzag_frequency(self):
        _, zm = baseline_zero_mode(2.036142, t_prime=0.6)
        assert abs(zm.omega - 0.3823j) <= 1e-3

    def test_populates_recurrence_quantities(self):
        spec, zm = baseline_zero_mode(2.0)
        assert zm.kappa_a == pytest.approx(zm.omega.imag - 2.0)
        assert zm.kappa_b == pytest.approx(zm.omega.imag + 2.0)
        assert zm.kappa_a * zm.kappa_b == pytest.approx(zm.r)
        assert zm.alpha == pytest.approx(-(2.0 + zm.r))

    @pytest.mark.parametrize("tied", [[-1e-9 + 0.5j, 1e-9 - 0.5j],
                                      [1e-9 - 0.5j, -1e-9 + 0.5j]])
    def test_bitwise_tie_goes_to_the_lower_index(self, tied):
        # |Im| ties exactly; the sweep baseline and find_zero_modes both
        # report the lower index, whatever the signs
        w = np.array([-1.0, *tied, 0.1j + 1.0])
        n = len(w)
        modes = nhzm.ModeSet(w, np.eye(n, dtype=complex), np.ones(n), np.ones(n),
                        np.zeros(n, dtype=bool))
        assert _zero_mode_indices(w).tolist() == [1, 2]
        zms = nhzm.find_zero_modes(modes)
        assert [zm.mode_index for zm in zms] == [1, 2]
        assert zms[0].omega == tied[0]

    def test_shifted_onsite_reference(self):
        # the whole analysis is relative to the homogeneous onsite energy
        spec = nhzm.coupled_chain(2.0, onsite=0.3)
        modes = nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))
        assert nhzm.check_spectral_symmetry(modes, omega0=0.3).all_paired
        assert nhzm.find_zero_modes(modes) == []
        zms = nhzm.find_zero_modes(modes, spec, omega0=0.3)
        baseline = nhzm.find_zero_modes(
            nhzm.eigendecompose(
                nhzm.assemble_hamiltonian(nhzm.coupled_chain(2.0))))[0]
        assert zms[0].omega == pytest.approx(baseline.omega + 0.3, abs=1e-10)


class TestSweepAndTracking:
    @pytest.mark.parametrize("grid", [[], [0.0]])
    def test_fewer_than_two_points_refused(self, grid):
        with pytest.raises(ValueError, match="at least two sweep points"):
            nhzm.sweep_gamma(nhzm.coupled_chain, grid)

    def test_hermitian_start(self):
        tracked = nhzm.sweep_gamma(nhzm.coupled_chain, [0.0, 0.1])
        assert np.abs(tracked.eigenvalues[0].imag).max() < 1e-10

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            nhzm.sweep_gamma(nhzm.coupled_chain, [0.0, 1.0, 0.5])

    def test_constant_sweep_matches_identically(self):
        spec, _ = chain_modes(1.0)
        tracked = trajectories(nhzm.sweep_gamma(lambda g: spec,
                                                [0.0, 1.0, 2.0]))
        assert len(tracked) == 19
        for t in tracked:
            assert len(t.eigenvalues) == 3
            assert np.ptp(t.column_indices) == 0

    def test_matching_equals_the_one_argmin_at_a_time_greedy(self):
        # distances of small integers: ties everywhere, and rows whose
        # first minima share a column
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = rng.integers(1, 9)
            dist = rng.integers(0, 4, (n, n)).astype(float)
            assert _greedy_match(dist).tolist() \
                == reference_greedy_match(dist)

    # seven steps are too coarse for some links
    @pytest.mark.filterwarnings("ignore:mode link to step")
    def test_eigenvalues_only(self, monkeypatch):
        # neither the real-form steps nor a detuned chain's compute vectors
        def refuse(*args):
            raise AssertionError("np.linalg.eig called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        for family in (
                lambda g: nhzm.coupled_chain(g, system_gamma=0.4, onsite=0.3),
                lambda g: nhzm.coupled_chain(g, reservoir_onsite=0.3)):
            tracked = nhzm.sweep_gamma(family, np.linspace(0.0, 3.0, 7))
            assert tracked.mode_id.shape == (7, 19)

    def test_baseline_keeps_small_imaginary_part_between_crossings(self, gamma_sweep):
        grid, sweeps, _ = gamma_sweep
        # between avoided crossings the lowest zero mode hugs the real axis;
        # sample points well away from the pair-creation thresholds
        for g in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            i = int(np.argmin(np.abs(grid - g)))
            zms = nhzm.find_zero_modes(sweeps[i])
            assert zms and abs(zms[0].omega.imag) < 0.06

    def test_mode_numbering_gives_consecutive_pair_ranks(self, gamma_sweep):
        grid, _, tracked = gamma_sweep
        by_number = {t.mode_number: t for t in trajectories(tracked)}
        assert sorted(by_number) == list(range(1, 20))
        # ranks 1..10 are the five zero-mode pairs, 11 the small-Im baseline
        for odd in (1, 3, 5, 7, 9):
            im_a = by_number[odd].eigenvalues[-1].imag
            im_b = by_number[odd + 1].eigenvalues[-1].imag
            assert im_a * im_b < 0
            assert abs(im_a + im_b) < 0.02
        assert abs(by_number[11].eigenvalues[-1].imag) < 0.02

    def test_pair_9_10_threshold(self, gamma_sweep):
        _, _, tracked = gamma_sweep
        gamma_mu = nhzm.fit_pair_threshold(tracked, 9, 10)
        assert gamma_mu == pytest.approx(1.919, rel=0.02)

    def test_pair_r_nearly_constant_past_threshold(self, gamma_sweep):
        grid, _, tracked = gamma_sweep
        gamma_mu = nhzm.fit_pair_threshold(tracked, 9, 10)
        traj = {t.mode_number: t for t in trajectories(tracked)}[9]
        rs = [w.imag ** 2 - g ** 2
              for g, w in zip(traj.parameters, traj.eigenvalues)
              if g > 2.2 and abs(w.real) < 1e-8]
        assert rs
        np.testing.assert_allclose(rs, -gamma_mu ** 2, rtol=0.05)


# the sweeps the removed overlap tracking was checked on: (reservoir sites,
# t', gamma step); at 10 sites t' = 0.2 is fig2's chain.  At 79 sites on
# the 0.1 grid 4 levels of bisection left a threshold 1.4e-3 off
OVERLAP_SWEEPS = [(n, t_prime, step) for n in (10, 50)
                  for t_prime in (0.15, 0.2, 0.25)
                  for step in (0.01, 0.02, 0.03, 0.05, 0.1)] \
    + [(10, 0.183, 0.01), (50, 0.183, 0.01), (70, 0.2, 0.1)]


class TestAgainstOverlapTracking:
    """Continuation against the overlap tracking it replaced."""

    @pytest.mark.parametrize("t_prime, midpoints", [(0.2, 0), (0.183, 1)])
    def test_same_table_where_overlaps_never_split(self, monkeypatch,
                                                   t_prime, midpoints):
        # fig2's sweep, and one beside it; the overlap tracking split
        # neither.  fig2's five exceptional points are exact ties, which
        # are not bisected, so it solves no midpoint
        grid = load_scenario("fig2").sweep_grid()
        family = lambda g: nhzm.coupled_chain(g, t_prime=t_prime)
        mode_id, w = overlap_reference(family, grid)
        assert (mode_id > 0).all()
        calls = recorded_solves(monkeypatch)
        tracked = nhzm.sweep_gamma(family, grid)
        assert sum(calls[1:]) == midpoints
        assert tracked.eigenvalues.tobytes() == w.tobytes()
        assert np.array_equal(tracked.mode_id, mode_id)

    # links at and beside the reservoir's exceptional point, gamma = 2t, stay
    # crowded at 59 sites
    @pytest.mark.filterwarnings("ignore:mode link to step")
    @pytest.mark.parametrize("n_reservoir, t_prime, step", OVERLAP_SWEEPS)
    def test_same_pair_thresholds(self, n_reservoir, t_prime, step):
        # also where the overlaps split trajectories (at 59 sites, and at
        # 19 sites for t' = 0.15 and 0.25), and on every coarse grid
        grid = np.arange(0.0, 3.0 + 0.5 * step, step)
        family = lambda g: nhzm.coupled_chain(g, n_reservoir=n_reservoir,
                                              t_prime=t_prime)
        mode_id, w = overlap_reference(family, grid)
        tracked = nhzm.sweep_gamma(family, grid)
        n = w.shape[1]
        if n < 75:
            # from 75 sites on eigvals and eig differ in the low bits
            assert tracked.eigenvalues.tobytes() == w.tobytes()
        fits = [pair_thresholds(n, lambda a, b: nhzm.fit_pair_threshold(
                    tracked, a, b)),
                pair_thresholds(n, lambda a, b: reference_fit_pair_threshold(
                    numbered_steps(grid, w, mode_id, a),
                    numbered_steps(grid, w, mode_id, b)))]
        assert len(fits[0]) >= 5
        assert fits[0] == fits[1]


def recorded_solves(monkeypatch):
    """The number of steps of each stack a sweep solves from now on: the
    grid first, then each midpoint alone."""
    calls = []

    def recording(family, gammas):
        calls.append(len(gammas))
        return _sweep_eigenvalues(family, gammas)

    monkeypatch.setattr(nhzm.spectral, "_sweep_eigenvalues", recording)
    return calls


def pair_thresholds(n, fit):
    """gamma_mu of every pair (odd, odd + 1) of n modes that ``fit(a, b)``
    fits, as the sweep task lists them."""
    fits = {}
    for odd in range(1, n, 2):
        try:
            fits[odd] = fit(odd, odd + 1)
        except FitError:
            pass
    return fits


def numbered_steps(grid, w, mode_id, number):
    """The run of steps that hold a mode number in a table that may leave
    it out of some, such as ``overlap_reference``'s, as a trajectory of
    ``reference_fit_pair_threshold``."""
    steps = np.flatnonzero((mode_id == number).any(axis=1))
    assert (np.diff(steps) == 1).all()
    return SimpleNamespace(start=steps[0], parameters=grid[steps],
                           eigenvalues=w[mode_id == number])


def overlap_reference(family, grid):
    """The mode numbers of the removed overlap tracking, and the eigenvalues.

    Each step's eigenpairs come from ``np.linalg.eig`` of the chain's real
    form, sorted by (Re, Im), with unit-norm vectors psi = D v.  Steps are
    matched greedily on |<psi_i|psi_j>|, one argmax at a time; a match below
    0.5 ends its trajectory and starts a new one, numbered after every
    older one in the order of columns.  The trajectories that reach the last
    step are numbered as ``TrackedSweep.mode_id``; ended ones get -1.
    """
    steps = []
    for g in grid:
        spec = family(g)
        n = spec.n_sites
        lam, v = np.linalg.eig(real_form(spec))
        w = np.empty(n, dtype=complex)
        w.real = spec.onsite.real[0] - lam.imag
        w.imag = lam.real
        order = np.lexsort((w.imag, w.real))
        psi = (v * np.array([1, 1j, -1, -1j])[np.arange(n) % 4, None])[
            :, order]
        steps.append((w[order], psi / np.linalg.norm(psi, axis=0)))
    ids, n_tracks = [np.arange(n)], n
    for (_, before), (_, after) in zip(steps, steps[1:]):
        overlap = np.abs(before.conj().T @ after)
        match = reference_greedy_match(-overlap)
        col_ids = np.empty(n, dtype=int)
        for i, j in enumerate(match):
            col_ids[j] = ids[-1][i]
        new = sorted(j for i, j in enumerate(match) if overlap[i, j] < 0.5)
        col_ids[new] = n_tracks + np.arange(len(new))
        n_tracks += len(new)
        ids.append(col_ids)
    w = np.array([w for w, _ in steps])
    return mode_numbers(np.array(ids), w[-1], n_tracks), w


def mode_numbers(track, last, n_tracks):
    """Numbers 1..N of the trajectories in the last row of ``track`` by
    their last eigenvalue's (-|Im|, -Im, Re), ties to the lower id; -1 for
    every other trajectory; read out at each column of ``track``."""
    ranked = track[-1][np.lexsort((track[-1], last.real, -last.imag,
                                   -np.abs(last.imag)))]
    numbers = np.full(n_tracks, -1)
    numbers[ranked] = np.arange(1, len(last) + 1)
    return numbers[track]


def reference_greedy_match(dist):
    """Greedy matching of rows to columns as one argmin at a time: the
    smallest remaining entry, ties to the lowest flat index."""
    work = np.array(dist, dtype=float)
    match = [None] * len(work)
    for _ in range(len(work)):
        i, j = np.unravel_index(np.argmin(work), work.shape)
        match[i] = int(j)
        work[i, :] = np.inf
        work[:, j] = np.inf
    return match


def sorted_rows(w):
    """Each row of w sorted by (Re, Im), as a sweep's eigenvalues are."""
    w = np.asarray(w, dtype=complex)
    order = np.lexsort((w.imag, w.real))
    return w[np.arange(len(w))[:, None], order]


def fake_sweep(monkeypatch, curves):
    """Make ``sweep_gamma`` read each step's eigenvalues off ``curves(g)``,
    one array a parameter; the tracking still runs."""
    monkeypatch.setattr(nhzm.spectral, "_sweep_eigenvalues",
                        lambda family, gammas: sorted_rows(
                            [curves(g) for g in gammas]))


class TestContinuation:
    """The link rule on hand-built eigenvalue curves."""

    @staticmethod
    def parabolas(g):
        # A = g^2 on the real axis; B = 3 + i g (1 - g) stays at 3 until
        # g = 1, then turns down
        return [g * g, 3 + 1j * g * (1 - g)]

    def test_bisection_fixes_a_secant_mislink(self, monkeypatch):
        # on the unit grid the secants predict A at 2 and B at 3 for g = 2,
        # and B's prediction is the nearer to A's eigenvalue 4, so a plain
        # greedy link swaps them; linked through g = 1.5 they stay apart
        fake_sweep(monkeypatch, self.parabolas)
        grid = [0.0, 1.0, 2.0, 3.0]
        truth = np.array([self.parabolas(g) for g in grid])
        monkeypatch.setattr(nhzm.spectral, "BISECT_DEPTH", 0)
        with pytest.warns(UserWarning, match="crowded"):
            plain = trajectories(nhzm.sweep_gamma(None, grid))
        assert not any(np.array_equal(t.eigenvalues, truth[:, 0])
                       for t in plain)
        monkeypatch.undo()
        fake_sweep(monkeypatch, self.parabolas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bisected = trajectories(nhzm.sweep_gamma(None, grid))
        # B ends with the larger |Im|, so it is mode 1
        assert [t.eigenvalues.tolist() for t in bisected] \
            == [truth[:, 1].tolist(), truth[:, 0].tolist()]

    def test_link_crowded_at_the_deepest_level_warns(self, monkeypatch):
        # with no bisection left, the mislinked step is named, once, from
        # the caller's line
        fake_sweep(monkeypatch, self.parabolas)
        monkeypatch.setattr(nhzm.spectral, "BISECT_DEPTH", 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nhzm.sweep_gamma(None, [0.0, 1.0, 2.0, 3.0])
        assert [str(w.message) for w in caught] == [
            "mode link to step 2 (gamma = 2) still crowded after bisection"]
        assert caught[0].filename == __file__

    def test_mode_number_tie_is_broken_by_real_part(self, monkeypatch):
        # NHPH partners omega, -omega* off the axis: bitwise-equal Im
        right, left, axis = 0.7 + 0.1j, -0.7 + 0.1j, 0.4j
        fake_sweep(monkeypatch, lambda g: [right, left, axis])
        tracked = nhzm.sweep_gamma(None, [0.0, 1.0])
        number = dict(zip(tracked.eigenvalues[-1], tracked.mode_id[-1]))
        assert (number[axis], number[left], number[right]) == (1, 2, 3)

    def test_exact_tie_goes_to_the_trajectory_from_the_lower_column(
            self, monkeypatch):
        # the modes at Im -1 and 0 of step 0 meet at 0.5 bit for bit: the
        # one from column 1, the nearer, takes column 0 of the last step,
        # and the one from column 0 the lower mode number
        fake_sweep(monkeypatch,
                   lambda g: 0.3 + 1j * np.array([-1 + 1.5 * g, 0.5 * g]))
        tracked = nhzm.sweep_gamma(None, [0.0, 1.0])
        assert tracked.eigenvalues[-1, 0] == tracked.eigenvalues[-1, 1]
        assert tracked.mode_id.tolist() == [[1, 2], [2, 1]]


def real_form(spec):
    """The real tridiagonal A of ``_real_forms``."""
    return np.diag(spec.onsite.imag) + np.diag(spec.bonds, 1) \
        - np.diag(spec.bonds, -1)


def same_modesets(got, expected):
    """Every field of each ModeSet equal bit for bit, in the same layout."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in dataclasses.fields(b):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert x.strides == y.strides


def whole_array_modeset(w, vr, norm_bound):
    """The ModeSet of one matrix's eigenpairs, each step on whole arrays."""
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    vr = vr / np.linalg.norm(vr, axis=0)
    dist = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(dist, np.inf)
    gaps = dist.min(axis=1)
    overlaps = np.abs(np.einsum("ij,ij->j", vr, vr))
    return nhzm.ModeSet(w, vr, gaps, overlaps, (
        gaps < DEFECT_GAP_FRACTION * max(norm_bound, 1e-300))
        | (overlaps < DEFECT_OVERLAP))


class TestRealFormSweep:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 70), st.floats(0.0, 3.5),
           st.floats(0.3, 1.5).filter(lambda t: t != 1.0),
           st.floats(0.0, 1.0), st.floats(-2.0, 2.0).filter(lambda w: w != 0),
           st.floats(0.05, 0.6))
    def test_matches_the_complex_solver(self, half_system, n_reservoir,
                                        gamma, t_b, system_gamma, omega0,
                                        t_prime):
        n_system = 2 * half_system + 1
        assume(n_system + n_reservoir <= 80)
        spec = nhzm.coupled_chain(gamma, n_system=n_system,
                                  n_reservoir=n_reservoir, reservoir_t_b=t_b,
                                  system_gamma=system_gamma, onsite=omega0,
                                  t_prime=t_prime)
        h = nhzm.assemble_hamiltonian(spec).matrix
        scale = np.abs(h).sum(axis=1).max()
        real, ref = _real_form_modes(spec), nhzm.eigendecompose(
            nhzm.Hamiltonian(h))
        # near an exceptional point both solvers carry O(sqrt(eps)) error
        assume(not ref.near_defective.any())
        dist = np.abs(real.eigenvalues[:, None] - ref.eigenvalues[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-10 * scale
        psi = real.right_vectors
        resid = np.linalg.norm(h @ psi - psi * real.eigenvalues, axis=0)
        assert resid.max() <= 1e-10 * scale
        # the real form's real eigenvalues put Re(omega) at omega0 exactly;
        # an odd chain has at least one
        n_real = int(np.sum(sla.eig(real_form(spec))[0].imag == 0))
        assert np.sum(real.eigenvalues.real == omega0) == n_real
        assert n_real >= spec.n_sites % 2
        # and a sweep step has the same eigenvalues, bit for bit below 75
        # sites, where LAPACK's QR path is the same without vectors
        step = _sweep_eigenvalues(lambda g: spec, [gamma])[0]
        assert step.tobytes() == real.eigenvalues.tobytes()

    def test_all_real_lambda(self):
        # gain/loss 2 against unit bonds puts all five modes on the axis:
        # every lambda of A is real, and np.linalg.eig then returns real
        # lambda and v
        spec = nhzm.LatticeSpec(0.4 + 2j * np.array([1, -1, 1, -1, 1]),
                                np.ones(4))
        lam, v = np.linalg.eig(real_form(spec))
        assert lam.dtype == v.dtype == np.float64
        modes = _real_form_modes(spec)
        assert modes.right_vectors.dtype == complex
        assert (modes.eigenvalues.real == 0.4).all()
        np.testing.assert_allclose(modes.eigenvalues.imag,
                                   [-np.sqrt(3), -1, 1, np.sqrt(3), 2],
                                   rtol=0, atol=1e-12)
        h = nhzm.assemble_hamiltonian(spec).matrix
        psi = modes.right_vectors
        np.testing.assert_allclose(np.linalg.norm(psi, axis=0), 1, atol=1e-14)
        resid = np.linalg.norm(h @ psi - psi * modes.eigenvalues, axis=0)
        assert resid.max() <= 1e-12
        assert not modes.near_defective.any()

    def test_real_matrix_refused_beyond_the_dense_limit(self, monkeypatch):
        spec = nhzm.coupled_chain(2.0)
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", spec.n_sites - 1)
        with pytest.raises(EigensolverError, match="too long for the dense"):
            _real_form_modes(spec)
        with pytest.raises(EigensolverError, match="too long for the dense"):
            _sweep_eigenvalues(lambda g: spec, [0.0])
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", spec.n_sites)
        assert _real_form_modes(spec).n_modes == spec.n_sites

    def test_stack_matches_lone_solves(self):
        # gain/loss g against unit bonds: every lambda of A is real from
        # g = 2 (see test_all_real_lambda), none is at g = 0
        family = lambda g: nhzm.LatticeSpec(
            0.4 + 1j * g * np.array([1, -1, 1, -1, 1]), np.ones(4))
        grid = [0.0, 0.5, 2.0, 2.5]
        # stacked, eigvals returns complex lambda for the all-real steps
        # too, where a lone solve returns real ones
        lam = np.linalg.eigvals(np.stack([real_form(family(g))
                                          for g in grid]))
        assert lam.dtype == complex
        assert (lam[2:].imag == 0).all()
        assert _sweep_eigenvalues(family, grid).tobytes() == np.array(
            [_real_form_modes(family(g)).eigenvalues for g in grid]).tobytes()

    @pytest.mark.parametrize("n_reservoir, t_prime", [
        (10, 0.2), (50, 0.15), (50, 0.2), (50, 0.25)],
        ids=["fig2", "59-sites-0.15", "59-sites-0.2", "59-sites-0.25"])
    def test_eigenvalues_are_those_of_eig(self, n_reservoir, t_prime):
        # fig2's stack of real forms and the benchmark's 59-site ones:
        # dgeev without vectors gives eig's lambda bit for bit, in order,
        # which keeps fig2's outputs byte for byte
        grid = load_scenario("fig2").sweep_grid()
        a = np.stack([real_form(nhzm.coupled_chain(
            g, n_reservoir=n_reservoir, t_prime=t_prime)) for g in grid])
        assert np.linalg.eigvals(a).tobytes() \
            == np.linalg.eig(a)[0].tobytes()

    @pytest.mark.parametrize("family, grid", [
        (lambda g: nhzm.coupled_chain(g, system_gamma=0.4, onsite=0.3),
         np.linspace(0.0, 3.0, 7)),
        # chunks of 2 steps: one chunk has every lambda real, and eigvals
        # returns a real array for it alone (see test_stack_matches_lone_solves)
        (lambda g: nhzm.LatticeSpec(
            0.4 + 1j * g * np.array([1, -1, 1, -1, 1]), np.ones(4)),
         [0.0, 0.5, 2.0, 2.5]),
    ], ids=["coupled-chain", "all-real-chunk"])
    def test_blocks_match_one_stack(self, monkeypatch, family, grid):
        n = family(0.0).n_sites
        step = 8 * n * n
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 1)
        monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", len(grid) * step)
        one_call = _sweep_eigenvalues(family, grid).tobytes()
        threads = threading.active_count()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: cpus)
            for per_block in (1, 2, 3, len(grid)):
                monkeypatch.setattr(nhzm.spectral, "STACK_BYTES",
                                    per_block * step)
                for per_chunk in (1, 2, 3):
                    monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES",
                                        per_chunk * step * cpus)
                    assert _sweep_eigenvalues(family, grid).tobytes() \
                        == one_call
                    assert threading.active_count() == threads

    # links at the reservoir's exceptional point, gamma = 2t, stay crowded
    # at 59 sites
    @pytest.mark.filterwarnings("ignore:mode link to step")
    @pytest.mark.parametrize("n_reservoir", [10, 50], ids=["fig2", "59-sites"])
    def test_table_does_not_depend_on_the_cpu_count(self, monkeypatch,
                                                    n_reservoir):
        # fig2's sweep and the benchmark's 59-site one, also at step 0.03
        # where bisection runs
        family = lambda g: nhzm.coupled_chain(g, n_reservoir=n_reservoir)
        tables = []
        for cpus in (1, 2):
            monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: cpus)
            for step in (0.01, 0.03):
                grid = np.arange(0.0, 3.0 + 0.5 * step, step)
                tracked = nhzm.sweep_gamma(family, grid)
                tables.append([tracked.eigenvalues.tobytes(),
                               tracked.mode_id.tobytes()])
        assert tables[:2] == tables[2:]

    def test_one_thread_per_cpu_and_chunk(self, monkeypatch):
        started = []

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(nhzm.spectral.threading, "Thread", Thread)
        family = lambda g: nhzm.coupled_chain(g)
        n = family(0.0).n_sites
        # (CPUs, steps that fit in CHUNK_BYTES, steps, threads started)
        for cpus, fit, steps, workers in ((1, 2, 9, 0), (3, 6, 9, 2),
                                          (3, 6, 3, 1), (8, 16, 9, 4),
                                          (8, 3, 9, 2), (8, 1, 9, 0)):
            monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", fit * 8 * n * n)
            started.clear()
            _sweep_eigenvalues(family, np.linspace(0.0, 3.0, steps))
            # the calling thread takes one share of the chunks
            assert len(started) == workers

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # one-step chunks on 8 threads, switching every microsecond: a
        # chunk written to the wrong slice or not at all changes the bits
        family = lambda g: nhzm.coupled_chain(g, system_gamma=0.4)
        grid = np.linspace(0.0, 3.0, 40)
        n = family(0.0).n_sites
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 1)
        one_thread = _sweep_eigenvalues(family, grid).tobytes()
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 8)
        monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", 8 * 8 * n * n)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            for _ in range(3):
                assert _sweep_eigenvalues(family, grid).tobytes() \
                    == one_thread
            assert time.perf_counter() - start < 30.0
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads

    def test_long_sweep_on_many_cpus(self, monkeypatch):
        # the 301-step sweep of a 59-site chain on 19 CPUs: 19 threads of
        # one-step chunks, within CHUNK_BYTES together, and the bits of one
        family = lambda g: nhzm.coupled_chain(g, n_reservoir=50, t_prime=0.2)
        grid = np.arange(0.0, 3.0 + 0.005, 0.01)
        n = family(0.0).n_sites
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 1)
        one_thread = _sweep_eigenvalues(family, grid).tobytes()
        started, sizes = [], []
        eigvals = np.linalg.eigvals

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def recording_eigvals(a):
            sizes.append(len(a))
            return eigvals(a)

        monkeypatch.setattr(nhzm.spectral.threading, "Thread", Thread)
        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 19)
        assert _sweep_eigenvalues(family, grid).tobytes() == one_thread
        assert len(started) == 18
        assert sizes == [1] * len(grid)
        assert 19 * 8 * n * n <= nhzm.spectral.CHUNK_BYTES

    def test_worker_failure_is_an_eigensolver_error(self, monkeypatch):
        eigvals = np.linalg.eigvals

        def failing_off_the_calling_thread(a):
            if threading.current_thread() is not threading.main_thread():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals",
                            failing_off_the_calling_thread)
        family = lambda g: nhzm.coupled_chain(g)
        n = family(0.0).n_sites
        monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", 2 * 8 * n * n)
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(EigensolverError, match="did not converge") as info:
            nhzm.sweep_gamma(family, np.linspace(0.0, 3.0, 4))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert threading.active_count() == threads

    def test_fallbacks_mixed_in_one_call(self):
        # a shifted onsite keeps the real form; a detuned reservoir takes
        # eigvals of H
        specs = [nhzm.coupled_chain(1.0), nhzm.coupled_chain(2.0, onsite=0.3),
                 nhzm.coupled_chain(2.0, reservoir_onsite=0.3),
                 nhzm.coupled_chain(1.5)]
        w = _sweep_eigenvalues(lambda k: specs[k], range(len(specs)))
        for k, spec in enumerate(specs):
            assert w[k].tobytes() == _sweep_eigenvalues(
                lambda g: spec, [0.0])[0].tobytes()
        h = nhzm.assemble_hamiltonian(specs[2]).matrix
        assert w[2].tobytes() == sorted_rows([np.linalg.eigvals(h)]).tobytes()

    def test_single_site_chains(self):
        # no real form below two sites: eigvals of H
        family = lambda g: nhzm.LatticeSpec([0.2 - 0.5j * g], [])
        grid = [0.0, 1.0]
        h = [nhzm.assemble_hamiltonian(family(g)).matrix for g in grid]
        tracked = nhzm.sweep_gamma(family, grid)
        assert tracked.eigenvalues.tobytes() \
            == sorted_rows([np.linalg.eigvals(m) for m in h]).tobytes()
        assert tracked.mode_id.tolist() == [[1], [1]]

    def test_one_chain_length_a_sweep(self):
        family = lambda g: nhzm.coupled_chain(g, n_reservoir=10 + int(g))
        with pytest.raises(ValueError, match="20-site chain at gamma = 1.0"):
            nhzm.sweep_gamma(family, [0.0, 1.0])

    def test_sweep_refused_before_the_stack_is_allocated(self, monkeypatch):
        spec = nhzm.coupled_chain(2.0, n_reservoir=90)
        n = spec.n_sites
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", n - 1)
        tracemalloc.start()
        try:
            with pytest.raises(EigensolverError, match="too long"):
                nhzm.sweep_gamma(lambda g: spec, np.linspace(0.0, 3.0, 301))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # not one N x N matrix of the stack was allocated
        assert peak < 8 * n * n

    @pytest.mark.parametrize("steps", [12, 36])
    def test_solve_holds_one_block(self, monkeypatch, steps):
        # blocks of 3 steps at N = 200: the solve holds one block of real
        # forms and the eigenvalues, not the 8 N^2 bytes a step of every
        # real form
        family = lambda g: nhzm.coupled_chain(g, n_reservoir=191)
        n = family(0.0).n_sites
        monkeypatch.setattr(nhzm.spectral, "STACK_BYTES", 3 * 8 * n * n)
        grid = np.linspace(0.0, 3.0, steps)
        tracemalloc.start()
        try:
            _sweep_eigenvalues(family, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nhzm.spectral.STACK_BYTES + 2 * 8 * n * n

    def test_specs_built_one_block_at_a_time(self, monkeypatch):
        built, at_solve = [], []
        solve = nhzm.spectral._chunked_eigvals

        def recording(a):
            at_solve.append(len(built))
            return solve(a)

        def family(g):
            built.append(g)
            return nhzm.coupled_chain(g)

        monkeypatch.setattr(nhzm.spectral, "_chunked_eigvals", recording)
        monkeypatch.setattr(nhzm.spectral, "STACK_BYTES", 2 * 8 * 19 * 19)
        _sweep_eigenvalues(family, np.linspace(0.0, 3.0, 5))
        assert at_solve == [2, 4, 5]

    @pytest.mark.parametrize("spec", [
        nhzm.coupled_chain(2.0, reservoir_onsite=0.3),
        nhzm.coupled_chain(2.0, n_reservoir=SPARSE_MIN_SITES,
                           reservoir_onsite=0.3),
        nhzm.LatticeSpec([0.2 - 0.5j], []),
    ], ids=["detuned", "detuned-long", "single-site"])
    def test_other_specs_fall_back_bit_for_bit(self, spec):
        ref = nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))
        same_modesets([nhzm.chain_modes(spec)], [ref])


def reference_fit_pair_threshold(traj_a, traj_b, omega0=0.0):
    """``fit_pair_threshold`` as a loop over the steps both trajectories
    share, sampled one step at a time."""
    lo = max(traj_a.start, traj_b.start)
    hi = min(traj_a.start + len(traj_a.eigenvalues),
             traj_b.start + len(traj_b.eigenvalues))
    samples = []
    for step in range(lo, hi):
        wa = traj_a.eigenvalues[step - traj_a.start]
        wb = traj_b.eigenvalues[step - traj_b.start]
        g = traj_a.parameters[step - traj_a.start]
        if abs(wa.real - omega0) > ZERO_TOL \
                or abs(wb.real - omega0) > ZERO_TOL:
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


def fit_outcome(fit):
    """A fit's value as hex, or its FitError's message."""
    try:
        return fit().hex()
    except FitError as exc:
        return str(exc)


def table(parameters, eigenvalues, mode_id):
    """A ``TrackedSweep`` of the given fields."""
    return nhzm.TrackedSweep(np.asarray(parameters, dtype=float),
                             np.asarray(eigenvalues, dtype=complex),
                             np.asarray(mode_id))


class TestFitPairThreshold:
    @staticmethod
    def synthetic_pair(gamma_mu, grid, omega0=0.0):
        """Modes 1 and 2 on the branches +/- sqrt(gamma^2 - gamma_mu^2)."""
        ims = np.sqrt(np.asarray(grid) ** 2 - gamma_mu ** 2)
        return table(grid, omega0 + np.outer(1j * ims, [1, -1]),
                     np.tile([1, 2], (len(grid), 1)))

    def test_exact_square_root_model_recovered(self):
        pair = self.synthetic_pair(1.0, np.linspace(1.05, 3.0, 40))
        assert nhzm.fit_pair_threshold(pair, 1, 2) == pytest.approx(1.0,
                                                                    abs=1e-6)

    def test_pair_on_a_shifted_axis(self):
        pair = self.synthetic_pair(1.0, np.linspace(1.05, 3.0, 40), 0.3)
        with pytest.raises(FitError):
            nhzm.fit_pair_threshold(pair, 1, 2)
        assert nhzm.fit_pair_threshold(pair, 1, 2, 0.3) \
            == pytest.approx(1.0, abs=1e-6)

    def test_insufficient_points_raise(self):
        pair = self.synthetic_pair(1.0, np.linspace(1.05, 1.1, 2))
        with pytest.raises(FitError):
            nhzm.fit_pair_threshold(pair, 1, 2)

    @pytest.mark.parametrize("a, b", [(-1, 2), (1, 0)])
    def test_a_number_below_one_is_refused(self, a, b):
        pair = self.synthetic_pair(1.0, np.linspace(1.05, 3.0, 40))
        with pytest.raises(ValueError, match="mode numbers start at 1"):
            nhzm.fit_pair_threshold(pair, a, b)

    def test_a_number_beyond_the_modes_is_refused(self):
        pair = self.synthetic_pair(1.0, np.linspace(1.05, 3.0, 40))
        with pytest.raises(ValueError, match="mode numbers end at 2"):
            nhzm.fit_pair_threshold(pair, 1, 3)

    @pytest.mark.parametrize("t_prime", [0.2, 0.25], ids=["fig2", "t'0.25"])
    def test_matches_the_step_loop_on_fig2(self, t_prime):
        # fig2's chain, and at t' = 0.25 one whose trajectories the removed
        # overlap tracking split
        grid = load_scenario("fig2").sweep_grid()
        family = lambda g: nhzm.coupled_chain(g, t_prime=t_prime)
        tracked = nhzm.sweep_gamma(family, grid)
        by_number = {t.mode_number: t for t in trajectories(tracked)}
        pairs = [(a, b) for a in range(1, 20) for b in range(1, 20)]
        outcomes = [
            [fit_outcome(lambda: nhzm.fit_pair_threshold(tracked, a, b))
             for a, b in pairs],
            [fit_outcome(lambda: reference_fit_pair_threshold(
                by_number[a], by_number[b])) for a, b in pairs]]
        assert outcomes[0] == outcomes[1]
        # fits of the five pairs, both orders, and refusals
        fits = sum(o.startswith("0x") for o in outcomes[0])
        assert 10 <= fits < len(outcomes[0])

    def test_matches_the_step_loop_on_random_pairs(self):
        # points off the axis, same-sign and NaN Im, Im above gamma (a
        # negative gamma^2), too few points; |Im| where libm's pow(x, 2),
        # which the scalar x ** 2 calls, differs from x * x
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 3.0, 24)
        steps = len(grid)
        x = rng.uniform(0.0, 3.5, 10 ** 5)
        x = x[np.array([v ** 2 for v in x]) != x * x]
        assert len(x) > 20
        kinds = set()
        for _ in range(600):
            # modes 1 and 2 in columns that change from step to step, beside
            # a column of mode 3, whose eigenvalues are noise
            w = rng.normal(size=(steps, 3)) + 1j
            cols = np.argsort(rng.random((steps, 3)), axis=1)
            mode_id = np.empty((steps, 3), dtype=int)
            mode_id[np.arange(steps)[:, None], cols] = [1, 2, 3]
            on_axis = rng.choice([0.1, 0.7])
            pair = []
            for number in (1, 2):
                re = rng.choice([0.0, 1e-9, 1e-7, 0.3], steps,
                                p=[on_axis] + [(1 - on_axis) / 3] * 3)
                im = rng.choice([-1.0, 1.0], steps) * rng.choice(x, steps)
                im[rng.random(steps) < 0.02] = np.nan
                w[np.arange(steps), cols[:, number - 1]] = re + 1j * im
                pair.append(SimpleNamespace(start=0, parameters=grid,
                                            eigenvalues=re + 1j * im))
            tracked = table(grid, w, mode_id)
            a, b = rng.permutation([1, 2]).tolist()
            omega0 = rng.choice([0.0, 0.3])
            got = fit_outcome(
                lambda: nhzm.fit_pair_threshold(tracked, a, b, omega0))
            ref = fit_outcome(lambda: reference_fit_pair_threshold(
                pair[a - 1], pair[b - 1], omega0))
            assert got == ref
            kinds.add("value" if got.startswith("0x") or got == "nan"
                      else "negative" if "negative" in got else "few")
        assert kinds == {"value", "negative", "few"}


class TestMatchMode:
    def test_matches_exact_eigenvector(self):
        _, modes = chain_modes(0.5)
        assert nhzm.match_mode(modes.right_vectors[:, 7], modes) == 7

    def test_mixed_vector_fails_a_strict_threshold(self):
        _, modes = chain_modes(0.5)
        mixed = modes.right_vectors[:, 3] + modes.right_vectors[:, 12]
        with pytest.raises(nhzm.errors.ModeMatchingError):
            nhzm.match_mode(mixed, modes, min_overlap=0.99)


class TestChainModes:
    @pytest.mark.parametrize("n_reservoir", [10, SPARSE_MIN_SITES - 10])
    def test_short_chain_is_eigendecompose_bit_for_bit(self, n_reservoir):
        spec = nhzm.coupled_chain(2.0, n_reservoir=n_reservoir)
        assert spec.n_sites < SPARSE_MIN_SITES
        same_modesets([nhzm.chain_modes(spec)],
                      [nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))])

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    def test_long_chain_takes_the_real_form(self, omega0):
        spec = nhzm.coupled_chain(2.0, n_reservoir=SPARSE_MIN_SITES,
                                  onsite=omega0)
        h = nhzm.assemble_hamiltonian(spec).matrix
        modes, ref = nhzm.chain_modes(spec), nhzm.eigendecompose(
            nhzm.Hamiltonian(h))
        dist = np.abs(modes.eigenvalues[:, None] - ref.eigenvalues[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-10 * np.abs(h).sum(axis=1).max()
        zms, ref_zms = (nhzm.find_zero_modes(m, spec, omega0)
                        for m in (modes, ref))
        assert len(zms) == len(ref_zms) > 0
        # a real lambda of the real form; zgeev leaves rounding noise
        assert all(zm.omega.real == omega0 for zm in zms)
        assert [nhzm.classify_regime(zm, spec).regime for zm in zms] == \
            [nhzm.classify_regime(zm, spec).regime for zm in ref_zms]


def dense_lowest_zero_mode(spec):
    zms = nhzm.find_zero_modes(
        nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec)), spec)
    return zms[0] if zms else None


def eigenvector_agrees(zm, ref, h, modes):
    """Unit overlap with the dense vector where the gap determines it.

    Rounding rotates the eigenvector of a mode with gap g by about
    eps |H| / g; a near-degenerate pair (a Hermitian chain's split edge
    states) only fixes its span, so there the eigen-residual is checked.
    """
    scale = np.abs(h).sum(axis=1).max()
    if modes.eigenvalue_gaps[ref.mode_index] >= 1e-6 * scale:
        return abs(np.vdot(zm.wavefunction, ref.wavefunction)) >= 1 - 1e-10
    psi = zm.wavefunction
    return np.linalg.norm(h @ psi - zm.omega * psi) <= 1e-10 * scale


class TestLowestZeroMode:
    def test_short_chain_takes_the_dense_path(self):
        spec = nhzm.coupled_chain(2.0)
        zm, ref = nhzm.lowest_zero_mode(spec), dense_lowest_zero_mode(spec)
        assert spec.n_sites < SPARSE_MIN_SITES
        assert zm.mode_index == ref.mode_index
        assert zm.omega == ref.omega
        assert np.array_equal(zm.wavefunction, ref.wavefunction)
        assert (zm.kappa_a, zm.kappa_b, zm.alpha) == \
            (ref.kappa_a, ref.kappa_b, ref.alpha)

    @settings(max_examples=30, deadline=None)
    # Hermitian chains with split edge states: a +/- pair with Im = 0 that
    # the dense order breaks by Re, 5.5e-9 apart (55) and 1.1e-11 apart (73);
    # 119 and 239 are longer such chains, where a Krylov vector can come
    # back near the residual bound, which grows with N
    @example(55, 0.0, 0.5, None, 0.5)
    @example(73, 0.0, 0.5, None, 0.5)
    @example(119, 0.0, 0.5, None, 0.5)
    @example(239, 0.0, 0.75, None, 0.5)
    @given(st.integers(SPARSE_MIN_SITES - 9, 291),
           st.one_of(st.just(0.0), st.floats(0.0, 3.5)),
           st.one_of(st.just(1.0), st.floats(0.3, 1.5)),
           st.one_of(st.none(), st.floats(-1.0, 1.0)),
           st.floats(0.05, 0.6))
    def test_sparse_matches_dense(self, n_reservoir, gamma, t_b, detuning,
                                  t_prime):
        spec = nhzm.coupled_chain(gamma, n_reservoir=n_reservoir,
                                  reservoir_t_b=t_b, t_prime=t_prime,
                                  reservoir_onsite=detuning)
        h = nhzm.assemble_hamiltonian(spec).matrix
        modes = nhzm.eigendecompose(nhzm.Hamiltonian(h))
        zms = nhzm.find_zero_modes(modes, spec)
        sparse = nhzm.lowest_zero_mode(spec)
        if not zms:
            assert sparse is None
            return
        assert sparse.mode_index is None
        assert abs(sparse.omega - zms[0].omega) <= \
            1e-10 * np.abs(h).sum(axis=1).max()
        assert eigenvector_agrees(sparse, zms[0], h, modes)
        assert sparse.alpha == pytest.approx(zms[0].alpha, rel=1e-8, abs=1e-8)

    def test_exactly_singular_chain(self):
        from scipy.linalg.lapack import zgttrf

        # an odd Hermitian chain has omega = 0 exactly, so H itself (shift
        # sigma = 0) has no LU factorization: zgttrf meets a zero pivot
        spec = nhzm.coupled_chain(0.0, n_reservoir=100)
        diag, off = spec.onsite, spec.bonds
        assert zgttrf(off, diag, off)[-1] > 0
        zm, ref = nhzm.lowest_zero_mode(spec), dense_lowest_zero_mode(spec)
        assert zm.mode_index is None
        assert abs(zm.omega) < 1e-12
        assert abs(zm.omega - ref.omega) < 1e-12
        assert abs(np.vdot(zm.wavefunction, ref.wavefunction)) >= 1 - 1e-10

    def test_no_dense_fallback_beyond_its_size(self, monkeypatch):
        # a detuned chain has no zero mode; past DENSE_MAX_SITES its 16 N^2
        # byte matrices are never built (2e5 sites would need 596 GiB)
        spec = nhzm.coupled_chain(1.0, n_reservoir=200, reservoir_onsite=0.3)
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", spec.n_sites - 1)
        with pytest.raises(EigensolverError, match="too long for the dense"):
            nhzm.lowest_zero_mode(spec)
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", spec.n_sites)
        assert nhzm.lowest_zero_mode(spec) is None

    def test_nearly_self_orthogonal_mode_of_a_long_chain(self):
        # |psi^T psi| ~ pi / n_reservoir: the Hessenberg entries reach 2.5e9,
        # and the Ritz vectors from its eig alone come back at residuals
        # of 4e-10 to 3e-9 |H|, above the bound; past DENSE_MAX_SITES the
        # dense fallback would raise
        spec = nhzm.coupled_chain(2.0, n_reservoir=200_000, t_prime=0.2)
        zm = nhzm.lowest_zero_mode(spec)
        psi, w = zm.wavefunction, zm.omega
        residual = spec.onsite * psi - w * psi
        residual[:-1] += spec.bonds * psi[1:]
        residual[1:] += spec.bonds * psi[:-1]
        assert zm.mode_index is None
        assert np.linalg.norm(residual) <= 1e-10
        assert abs(w.imag) == pytest.approx(2 * np.pi / 200_000, rel=1e-4)

    def test_dense_fallback_takes_the_real_form(self, monkeypatch):
        # no Arnoldi round: chain_modes decides, on the real form
        monkeypatch.setattr(nhzm.spectral, "SPARSE_MAX_K", 0)
        spec = nhzm.coupled_chain(2.0, n_reservoir=100, onsite=0.7)
        zm = nhzm.lowest_zero_mode(spec, 0.7)
        ref = nhzm.find_zero_modes(nhzm.chain_modes(spec), spec, 0.7)[0]
        assert zm.mode_index == ref.mode_index is not None
        assert zm.omega == ref.omega and zm.omega.real == 0.7
        assert np.array_equal(zm.wavefunction, ref.wavefunction)

    @pytest.mark.parametrize("n_reservoir", [10, 100])
    def test_zero_measured_from_omega0(self, n_reservoir):
        ref = nhzm.lowest_zero_mode(nhzm.coupled_chain(
            2.0, n_reservoir=n_reservoir))
        spec = nhzm.coupled_chain(2.0, n_reservoir=n_reservoir, onsite=0.3)
        assert nhzm.lowest_zero_mode(spec) is None
        zm = nhzm.lowest_zero_mode(spec, 0.3)
        assert abs(zm.omega.imag - ref.omega.imag) <= 1e-10
        assert abs(zm.omega.real - 0.3) <= ZERO_TOL
        assert zm.alpha == pytest.approx(ref.alpha, rel=1e-8)

    def test_vector_scaled_like_lapack(self):
        zm = nhzm.lowest_zero_mode(nhzm.coupled_chain(2.0, n_reservoir=200))
        psi = zm.wavefunction
        top = np.argmax(np.abs(psi))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert psi[top].imag == 0.0 and psi[top].real > 0

