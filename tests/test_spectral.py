import dataclasses
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nhzm
from nhzm.errors import EigensolverError, FitError
from nhzm.spectral import (DEFECT_GAP_FRACTION, DEFECT_OVERLAP,
                           SPARSE_MIN_SITES, ZERO_TOL, ModeTrajectory,
                           _gaps, _modeset, _real_form_modes,
                           _zero_mode_indices)

from conftest import KNOWN_ZERO_OMEGAS, baseline_zero_mode, chain_modes


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

    @pytest.mark.parametrize("scratch", [1, 7, 10 ** 9])
    def test_blocked_scratch_matches_whole_arrays(self, monkeypatch, scratch):
        # blocks of 1 row or column, of 7 and of everything at once
        n = 400
        h = nhzm.assemble_hamiltonian(nhzm.coupled_chain(
            0.7, n_reservoir=n - 9))
        w, vr = np.linalg.eig(h.matrix)
        monkeypatch.setattr(nhzm.spectral, "SCRATCH_BYTES", scratch * 16 * n)
        modes = _modeset(w, vr, 1.0)
        order = np.lexsort((w.imag, w.real))
        ref = vr[:, order]
        ref = ref / np.linalg.norm(ref, axis=0, keepdims=True)
        assert modes.right_vectors.strides == ref.strides
        assert modes.right_vectors.tobytes() == ref.tobytes()
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
    def test_single_point_hermitian_sweep(self):
        sweeps = list(nhzm.sweep_gamma(nhzm.coupled_chain, [0.0]))
        assert len(sweeps) == 1
        assert np.abs(sweeps[0].eigenvalues.imag).max() < 1e-10

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            nhzm.sweep_gamma(nhzm.coupled_chain, [0.0, 1.0, 0.5])

    def test_constant_sweep_matches_identically(self):
        spec, _ = chain_modes(1.0)
        sweeps = list(nhzm.sweep_gamma(lambda g: spec, [0.0, 1.0, 2.0]))
        trajectories = nhzm.track_modes(sweeps, [0.0, 1.0, 2.0])
        assert len(trajectories) == 19
        for t in trajectories:
            assert len(t.eigenvalues) == 3
            assert np.ptp(t.column_indices) == 0
            assert np.all(t.overlaps > 0.999999)

    def test_matching_equals_the_one_argmax_at_a_time_greedy(self):
        # vectors of multiples of 1/2 give overlaps of multiples of 1/4,
        # exact in floating point: ties everywhere, splits below 0.5
        rng = np.random.default_rng(7)
        for _ in range(400):
            n, steps = rng.integers(1, 9), rng.integers(2, 6)
            sweep = vector_sweep(rng.integers(-2, 3, (steps, n, n)) * 0.5
                                 + 0j)
            params = np.linspace(0.0, 1.0, steps)
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = nhzm.track_modes(sweep, params)
            with warnings.catch_warnings(record=True) as ref_warnings:
                warnings.simplefilter("always")
                ref = reference_track_modes(sweep, params)
            assert [str(w.message) for w in got_warnings] \
                == [str(w.message) for w in ref_warnings]
            assert [(t.start, t.parameters.tolist(), t.eigenvalues.tolist(),
                     t.column_indices.tolist(), t.overlaps.tolist())
                    for t in got] == ref

    def test_forced_split_warns(self):
        sweep = vector_sweep([np.eye(2), np.diag([0.4, 1.0])])
        with pytest.warns(UserWarning, match=r"^mode trajectory split at "
                          r"step 1: overlap 0\.400"):
            trajectories = nhzm.track_modes(sweep)
        assert [(t.start, t.column_indices.tolist()) for t in trajectories] \
            == [(0, [0]), (0, [1, 1]), (1, [0])]

    def test_an_iterator_tracks_as_the_list_does(self):
        # the random tie-laden sweeps of the greedy test, and a physical
        # sweep streamed from ``sweep_gamma``
        rng = np.random.default_rng(11)
        sweeps = [vector_sweep(rng.integers(-2, 3, (rng.integers(2, 6), n, n))
                               * 0.5 + 0j) for n in rng.integers(1, 9, 100)]
        grid = np.linspace(0.0, 3.0, 13)
        family = lambda g: nhzm.coupled_chain(g, n_reservoir=30)
        cases = [(sweep, None) for sweep in sweeps] + [
            (list(nhzm.sweep_gamma(family, grid)), grid)]
        for sweep, params in cases:
            got_iter, warned_iter = tracked(iter(sweep), params)
            got_list, warned_list = tracked(sweep, params)
            assert warned_iter == warned_list
            assert got_iter == got_list
        streamed, warned = tracked(nhzm.sweep_gamma(family, grid), grid)
        assert warned and (streamed, warned) == tracked(cases[-1][0], grid)

    @pytest.mark.parametrize("n_params", [2, 4])
    def test_one_parameter_a_step(self, n_params):
        sweep = vector_sweep([np.eye(2)] * 3)
        with pytest.raises(ValueError, match=f"{n_params} parameters for 3 "
                           "sweep points"):
            nhzm.track_modes(iter(sweep), np.arange(n_params, dtype=float))

    @pytest.mark.parametrize("steps", [0, 1])
    def test_fewer_than_two_points_refused_from_a_stream(self, steps):
        with pytest.raises(ValueError, match="at least two sweep points"):
            nhzm.track_modes(iter(vector_sweep([np.eye(2)] * steps)))

    def test_baseline_keeps_small_imaginary_part_between_crossings(self, gamma_sweep):
        grid, sweeps, _ = gamma_sweep
        # between avoided crossings the lowest zero mode hugs the real axis;
        # sample points well away from the pair-creation thresholds
        for g in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            i = int(np.argmin(np.abs(grid - g)))
            zms = nhzm.find_zero_modes(sweeps[i])
            assert zms and abs(zms[0].omega.imag) < 0.06

    def test_mode_numbering_gives_consecutive_pair_ranks(self, gamma_sweep):
        grid, _, trajectories = gamma_sweep
        by_number = {t.mode_number: t for t in trajectories if t.mode_number}
        assert sorted(by_number) == list(range(1, 20))
        # ranks 1..10 are the five zero-mode pairs, 11 the small-Im baseline
        for odd in (1, 3, 5, 7, 9):
            im_a = by_number[odd].eigenvalues[-1].imag
            im_b = by_number[odd + 1].eigenvalues[-1].imag
            assert im_a * im_b < 0
            assert abs(im_a + im_b) < 0.02
        assert abs(by_number[11].eigenvalues[-1].imag) < 0.02

    def test_physical_sweep_tracks_without_splits(self, gamma_sweep):
        grid, _, trajectories = gamma_sweep
        assert len(trajectories) == 19
        for t in trajectories:
            assert t.start == 0 and len(t.eigenvalues) == len(grid)
            assert np.all(t.overlaps > 0.5)

    def test_pair_9_10_threshold(self, gamma_sweep):
        _, _, trajectories = gamma_sweep
        by_number = {t.mode_number: t for t in trajectories if t.mode_number}
        gamma_mu = nhzm.fit_pair_threshold(by_number[9], by_number[10])
        assert gamma_mu == pytest.approx(1.919, rel=0.02)

    def test_pair_r_nearly_constant_past_threshold(self, gamma_sweep):
        grid, _, trajectories = gamma_sweep
        by_number = {t.mode_number: t for t in trajectories if t.mode_number}
        gamma_mu = nhzm.fit_pair_threshold(by_number[9], by_number[10])
        traj = by_number[9]
        rs = [w.imag ** 2 - g ** 2
              for g, w in zip(traj.parameters, traj.eigenvalues)
              if g > 2.2 and abs(w.real) < 1e-8]
        assert rs
        np.testing.assert_allclose(rs, -gamma_mu ** 2, rtol=0.05)


def tracked(sweep, parameters):
    """``track_modes``'s trajectories as lists, and its warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = nhzm.track_modes(sweep, parameters)
    return ([(t.start, t.parameters.tobytes(), t.eigenvalues.tobytes(),
              t.column_indices.tolist(), t.overlaps.tobytes()) for t in got],
            [str(w.message) for w in caught])


def reference_track_modes(sweep, parameters):
    """``track_modes`` with its greedy matching as one argmax at a time."""
    n = sweep[0].n_modes
    live = {j: {"start": 0, "eigenvalues": [sweep[0].eigenvalues[j]],
                "columns": [j], "overlaps": []} for j in range(n)}
    finished = []

    def close(traj, end):
        return (traj["start"], list(parameters[traj["start"]:end]),
                traj["eigenvalues"], traj["columns"], traj["overlaps"])

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
                    f"mode trajectory split at step {step}: overlap {ov:.3f}")
                finished.append(close(traj, step))
                new_live[j] = {"start": step,
                               "eigenvalues": [sweep[step].eigenvalues[j]],
                               "columns": [j], "overlaps": []}
            else:
                traj["eigenvalues"].append(sweep[step].eigenvalues[j])
                traj["columns"].append(j)
                traj["overlaps"].append(ov)
                new_live[j] = traj
        live = new_live
    finished.extend(close(traj, len(sweep)) for traj in live.values())
    finished.sort(key=lambda t: (t[0], t[3][0]))
    return finished


def vector_sweep(vectors):
    """A sweep whose step k has the given right vectors, omega = 100k + j."""
    return [nhzm.ModeSet(100 * k + np.arange(v.shape[1]) + 0j, v,
                         np.ones(v.shape[1]), np.ones(v.shape[1]),
                         np.zeros(v.shape[1], dtype=bool))
            for k, v in enumerate(vectors)]


def real_form(spec):
    """The real tridiagonal A of ``_real_form_modes``."""
    return np.diag(spec.onsite.imag) + np.diag(spec.bonds, 1) \
        - np.diag(spec.bonds, -1)


def same_modesets(got, expected):
    """Every field of each ModeSet equal bit for bit."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in dataclasses.fields(b):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def trajectory(eigenvalues):
    n = len(eigenvalues)
    return ModeTrajectory(start=0, parameters=np.arange(n, dtype=float),
                          eigenvalues=np.asarray(eigenvalues, dtype=complex),
                          column_indices=np.zeros(n, dtype=int),
                          overlaps=np.ones(n - 1))


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
        real, ref = next(_real_form_modes([spec])), nhzm.eigendecompose(
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

    def test_all_real_lambda(self):
        # gain/loss 2 against unit bonds puts all five modes on the axis:
        # every lambda of A is real, and np.linalg.eig then returns real
        # lambda and v
        spec = nhzm.LatticeSpec(0.4 + 2j * np.array([1, -1, 1, -1, 1]),
                                np.ones(4))
        lam, v = np.linalg.eig(real_form(spec))
        assert lam.dtype == v.dtype == np.float64
        modes = next(_real_form_modes([spec]))
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
            next(_real_form_modes([spec]))
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", spec.n_sites)
        assert next(_real_form_modes([spec])).n_modes == spec.n_sites

    def test_stack_matches_lone_solves(self):
        # gain/loss g against unit bonds: every lambda of A is real from
        # g = 2 (see test_all_real_lambda), none is at g = 0
        family = lambda g: nhzm.LatticeSpec(
            0.4 + 1j * g * np.array([1, -1, 1, -1, 1]), np.ones(4))
        grid = [0.0, 0.5, 2.0, 2.5]
        # stacked, eig returns complex lambda and v for the all-real steps
        # too, where a lone solve returns real ones
        lam, _ = np.linalg.eig(np.stack([real_form(family(g)) for g in grid]))
        assert lam.dtype == complex
        assert (lam[2:].imag == 0).all()
        lone = [next(_real_form_modes([family(g)])) for g in grid]
        same_modesets(list(nhzm.sweep_gamma(family, grid)), lone)

    @pytest.mark.parametrize("family, grid", [
        (lambda g: nhzm.coupled_chain(g, system_gamma=0.4, onsite=0.3),
         np.linspace(0.0, 3.0, 7)),
        # chunks of 2 steps: one chunk has every lambda real, and eig
        # returns real arrays for it alone (see test_stack_matches_lone_solves)
        (lambda g: nhzm.LatticeSpec(
            0.4 + 1j * g * np.array([1, -1, 1, -1, 1]), np.ones(4)),
         [0.0, 0.5, 2.0, 2.5]),
    ], ids=["coupled-chain", "all-real-chunk"])
    def test_blocks_match_one_stack(self, monkeypatch, family, grid):
        n = family(0.0).n_sites
        step = 24 * n * n
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 1)
        monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", len(grid) * step)
        one_call = list(nhzm.sweep_gamma(family, grid))
        threads = threading.active_count()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: cpus)
            for per_block in (1, 2, 3, len(grid)):
                monkeypatch.setattr(nhzm.spectral, "STACK_BYTES",
                                    per_block * step)
                for per_chunk in (1, 2, 3):
                    monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES",
                                        per_chunk * step * cpus)
                    same_modesets(list(nhzm.sweep_gamma(family, grid)),
                                  one_call)
                    assert threading.active_count() == threads

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
            monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", fit * 24 * n * n)
            started.clear()
            list(nhzm.sweep_gamma(family, np.linspace(0.0, 3.0, steps)))
            # the calling thread takes one share of the chunks
            assert len(started) == workers

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # one-step chunks on 8 threads, switching every microsecond: a
        # chunk written to the wrong slice or not at all changes the bits
        family = lambda g: nhzm.coupled_chain(g, system_gamma=0.4)
        grid = np.linspace(0.0, 3.0, 40)
        n = family(0.0).n_sites
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 1)
        one_thread = list(nhzm.sweep_gamma(family, grid))
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 8)
        monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", 8 * 24 * n * n)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            for _ in range(3):
                same_modesets(list(nhzm.sweep_gamma(family, grid)),
                              one_thread)
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
        one_thread = list(nhzm.sweep_gamma(family, grid))
        started, sizes = [], []
        eig = np.linalg.eig

        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def recording_eig(a):
            sizes.append(len(a))
            return eig(a)

        monkeypatch.setattr(nhzm.spectral.threading, "Thread", Thread)
        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 19)
        same_modesets(list(nhzm.sweep_gamma(family, grid)), one_thread)
        assert len(started) == 18
        assert sizes == [1] * len(grid)
        assert 19 * 24 * n * n <= nhzm.spectral.CHUNK_BYTES

    def test_worker_failure_is_an_eigensolver_error(self, monkeypatch):
        eig = np.linalg.eig

        def failing_off_the_calling_thread(a):
            if threading.current_thread() is not threading.main_thread():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", failing_off_the_calling_thread)
        family = lambda g: nhzm.coupled_chain(g)
        n = family(0.0).n_sites
        monkeypatch.setattr(nhzm.spectral, "CHUNK_BYTES", 2 * 24 * n * n)
        monkeypatch.setattr(nhzm.spectral, "_cpu_count", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(EigensolverError, match="did not converge") as info:
            list(nhzm.sweep_gamma(family, np.linspace(0.0, 3.0, 4)))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert threading.active_count() == threads

    def test_lengths_and_fallbacks_mixed_in_one_call(self):
        specs = [nhzm.coupled_chain(1.0), nhzm.coupled_chain(2.0, onsite=0.3),
                 nhzm.coupled_chain(2.0, reservoir_onsite=0.3),
                 nhzm.coupled_chain(1.5, n_reservoir=12),
                 nhzm.LatticeSpec([0.2 - 0.5j], [])]
        same_modesets(list(_real_form_modes(specs)),
                      [next(_real_form_modes([s])) for s in specs])

    def test_sweep_refused_before_the_stack_is_allocated(self, monkeypatch):
        spec = nhzm.coupled_chain(2.0, n_reservoir=90)
        n = spec.n_sites
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", n - 1)
        tracemalloc.start()
        try:
            with pytest.raises(EigensolverError, match="too long"):
                list(nhzm.sweep_gamma(lambda g: spec,
                                      np.linspace(0.0, 3.0, 301)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # not one N x N matrix of the stack was allocated
        assert peak < 8 * n * n

    @pytest.mark.parametrize("steps", [12, 36])
    def test_streamed_sweep_holds_one_block(self, monkeypatch, steps):
        # blocks of 3 steps at N = 200: tracking holds one block and a few
        # N x N arrays (two ModeSets, the overlaps, the chunks' eig
        # results), not the 16 N^2 bytes a step of every ModeSet
        family = lambda g: nhzm.coupled_chain(g, n_reservoir=191)
        n = family(0.0).n_sites
        monkeypatch.setattr(nhzm.spectral, "STACK_BYTES", 3 * 24 * n * n)
        grid = np.linspace(0.0, 3.0, steps)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                # a coarse grid splits trajectories; memory is the point
                warnings.simplefilter("ignore")
                nhzm.track_modes(nhzm.sweep_gamma(family, grid), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nhzm.spectral.STACK_BYTES + 7 * 16 * n * n

    def test_specs_read_only_as_the_steps_are_consumed(self):
        built = []

        def family(g):
            built.append(g)
            return nhzm.coupled_chain(g)

        sweep = nhzm.sweep_gamma(family, [0.0, 1.0, 2.0])
        assert built == []
        next(sweep)
        assert built == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("spec", [
        nhzm.coupled_chain(2.0, reservoir_onsite=0.3),
        nhzm.coupled_chain(2.0, n_reservoir=SPARSE_MIN_SITES,
                           reservoir_onsite=0.3),
        nhzm.LatticeSpec([0.2 - 0.5j], []),
    ], ids=["detuned", "detuned-long", "single-site"])
    def test_other_specs_fall_back_bit_for_bit(self, spec):
        ref = nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))
        same_modesets([next(_real_form_modes([spec])), nhzm.chain_modes(spec)],
                      [ref, ref])

    def test_nhph_sweep_never_calls_eigendecompose(self, monkeypatch):
        def refuse(h):
            raise AssertionError("eigendecompose called")

        monkeypatch.setattr(nhzm.spectral, "eigendecompose", refuse)
        grid = np.linspace(0.0, 3.0, 7)
        sweeps = nhzm.sweep_gamma(
            lambda g: nhzm.coupled_chain(g, system_gamma=0.4, onsite=0.3),
            grid)
        assert [m.n_modes for m in sweeps] == [19] * 7

    def test_mode_number_tie_is_broken_by_real_part(self):
        # NHPH partners omega, -omega* off the axis: bitwise-equal Im
        right = trajectory([0.5 + 0.2j, 0.7 + 0.1j])
        left = trajectory([-0.5 + 0.2j, -0.7 + 0.1j])
        axis = trajectory([0.3j, 0.4j])
        for order in ([right, left, axis], [left, right, axis]):
            for t in order:
                t.mode_number = None
            nhzm.assign_mode_numbers(order, 2)
            assert (axis.mode_number, left.mode_number, right.mode_number) \
                == (1, 2, 3)


class TestFitPairThreshold:
    @staticmethod
    def synthetic_pair(gamma_mu, grid):
        ims = np.sqrt(np.asarray(grid) ** 2 - gamma_mu ** 2)
        make = lambda sign: ModeTrajectory(
            start=0, parameters=np.asarray(grid),
            eigenvalues=sign * 1j * ims,
            column_indices=np.zeros(len(grid), dtype=int),
            overlaps=np.ones(len(grid) - 1))
        return make(+1), make(-1)

    def test_exact_square_root_model_recovered(self):
        a, b = self.synthetic_pair(1.0, np.linspace(1.05, 3.0, 40))
        assert nhzm.fit_pair_threshold(a, b) == pytest.approx(1.0, abs=1e-6)

    def test_pair_on_a_shifted_axis(self):
        a, b = self.synthetic_pair(1.0, np.linspace(1.05, 3.0, 40))
        for t in (a, b):
            t.eigenvalues = t.eigenvalues + 0.3
        with pytest.raises(FitError):
            nhzm.fit_pair_threshold(a, b)
        assert nhzm.fit_pair_threshold(a, b, 0.3) == pytest.approx(1.0,
                                                                   abs=1e-6)

    def test_insufficient_points_raise(self):
        a, b = self.synthetic_pair(1.0, np.linspace(1.05, 1.1, 2))
        with pytest.raises(FitError):
            nhzm.fit_pair_threshold(a, b)


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

