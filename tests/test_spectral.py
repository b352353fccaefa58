import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nhzm
from nhzm.errors import FitError
from nhzm.spectral import DEFECT_GAP_FRACTION, DEFECT_OVERLAP, ModeTrajectory

from conftest import KNOWN_ZERO_OMEGAS, baseline_zero_mode, chain_modes


def random_gain_loss_chain(n, couplings, gamma):
    m = np.zeros((n, n), dtype=complex)
    for i, c in enumerate(couplings):
        m[i, i + 1] = m[i + 1, i] = c
    for i in range(n):
        m[i, i] = 1j * gamma * (-1) ** i
    return nhzm.Hamiltonian(m)


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
        pairing = nhzm.check_spectral_symmetry(modes, kind="nhph", tol=1e-8)
        assert pairing.all_paired

    def test_full_chain_nhph_paired(self):
        _, modes = chain_modes(2.0)
        pairing = nhzm.check_spectral_symmetry(modes, kind="nhph", tol=1e-8)
        assert pairing.all_paired
        assert len(modes.eigenvalues) == 19

    def test_hermitian_ssh_chain_chiral_paired(self):
        spec = nhzm.build_ssh_chain(8, 1.0, 0.4)
        modes = nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))
        pairing = nhzm.check_spectral_symmetry(modes, kind="chiral", tol=1e-8)
        assert pairing.all_paired

    def test_lossy_single_site_self_pairs_under_nhph(self):
        modes = nhzm.eigendecompose(nhzm.Hamiltonian([[-0.3j]]))
        pairing = nhzm.check_spectral_symmetry(modes, kind="nhph")
        assert pairing.pairs == ((0, 0),)

    def test_unmatched_modes_are_reported_not_raised(self):
        modes = nhzm.eigendecompose(nhzm.Hamiltonian([[0.5 + 0j]]))
        pairing = nhzm.check_spectral_symmetry(modes, kind="nhph", tol=1e-10)
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
        sweeps = nhzm.sweep_gamma(nhzm.coupled_chain, [0.0])
        assert len(sweeps) == 1
        assert np.abs(sweeps[0].eigenvalues.imag).max() < 1e-10

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            nhzm.sweep_gamma(nhzm.coupled_chain, [0.0, 1.0, 0.5])

    def test_constant_sweep_matches_identically(self):
        spec, _ = chain_modes(1.0)
        sweeps = nhzm.sweep_gamma(lambda g: spec, [0.0, 1.0, 2.0])
        trajectories = nhzm.track_modes(sweeps, [0.0, 1.0, 2.0])
        assert len(trajectories) == 19
        for t in trajectories:
            assert len(t.eigenvalues) == 3
            assert np.ptp(t.column_indices) == 0
            assert np.all(t.overlaps > 0.999999)

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
