import tracemalloc

import numpy as np
import pytest

import nhzm
from nhzm import dynamics
from nhzm.dynamics import (PERIOD, EpEvolution, _block_width, _evolver,
                           _seeded_normals)
from nhzm.errors import DomainError, EpSetupError, PropagationOverflowError
from nhzm.spectral import ZeroMode

from conftest import baseline_zero_mode, chain_modes


def numpy_normals(seed, n_realizations, n, start=0):
    """numpy's construction: one SeedSequence and generator per row."""
    return np.array([
        np.random.default_rng(np.random.SeedSequence((seed, i)))
        .standard_normal(n) for i in range(start, start + n_realizations)])


def loop_ensemble(spec, zm, sigma, n_realizations, periods, seed):
    """Mean and std of ``ensemble_experiment``, noise drawn row by row."""
    h = nhzm.assemble_hamiltonian(spec)
    sites = spec.reservoir_sites()
    reservoir = slice(sites.start, sites.stop)
    base = np.asarray(zm.wavefunction, dtype=complex)
    states = np.tile(base[:, None], (1, n_realizations))
    for i in range(n_realizations):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        states[reservoir, i] *= np.exp(sigma * rng.standard_normal(len(sites)))
    out = _evolver(h, periods * PERIOD, "max")(states)
    profiles = np.abs(out[reservoir, :])
    return profiles.mean(axis=1), profiles.std(axis=1)


def defective_dimer():
    """Gain/loss equal to the coupling: an exactly defective 2-site chain."""
    return nhzm.Hamiltonian(np.array([[1j, 1.0], [1.0, -1j]]))


def ep_pair():
    """The standalone flat-band matrix at its zone-center degeneracy."""
    h = nhzm.Hamiltonian(nhzm.bloch_hamiltonian(0.0, 1.0, 1.0, 2.0))
    return h, EpEvolution.from_hamiltonian(h)


class TestPropagate:
    def test_zero_hamiltonian_is_identity(self):
        h = nhzm.Hamiltonian(np.zeros((3, 3)))
        psi0 = np.array([1.0, 2.0j, -0.5])
        np.testing.assert_allclose(nhzm.propagate(h, psi0, 7.3), psi0,
                                   atol=1e-14)

    def test_eigenvector_picks_up_a_phase(self):
        spec, modes = chain_modes(1.0)
        h = nhzm.assemble_hamiltonian(spec)
        i = 5
        out = nhzm.propagate(h, modes.right_vectors[:, i], 2.5)
        expected = np.exp(-1j * modes.eigenvalues[i] * 2.5) \
            * modes.right_vectors[:, i]
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_composition_property(self):
        spec, _ = chain_modes(0.7)
        h = nhzm.assemble_hamiltonian(spec)
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=19) + 1j * rng.normal(size=19)
        once = nhzm.propagate(h, psi0, 3.0)
        twice = nhzm.propagate(h, nhzm.propagate(h, psi0, 1.2), 1.8)
        np.testing.assert_allclose(once, twice, atol=1e-8)

    def test_hermitian_norm_conservation(self):
        spec, _ = chain_modes(0.0)
        h = nhzm.assemble_hamiltonian(spec)
        rng = np.random.default_rng(6)
        psi0 = rng.normal(size=19) + 1j * rng.normal(size=19)
        out = nhzm.propagate(h, psi0, 50.0)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi0),
                                                    abs=1e-8)

    def test_long_gainy_run_overflows_without_renormalization(self):
        spec, _ = chain_modes(2.0)
        h = nhzm.assemble_hamiltonian(spec)
        psi0 = np.ones(19, dtype=complex)
        with pytest.raises(PropagationOverflowError):
            nhzm.propagate(h, psi0, 1e4 * PERIOD)

    def test_renormalized_run_matches_plain_direction(self):
        spec, _ = chain_modes(2.0)
        h = nhzm.assemble_hamiltonian(spec)
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=19) + 1j * rng.normal(size=19)
        duration = 3.5 * PERIOD
        plain = nhzm.propagate(h, psi0, duration)
        renorm, log_scale = nhzm.propagate(h, psi0, duration,
                                           renormalize_each_period=True)
        np.testing.assert_allclose(np.exp(log_scale) * renorm, plain,
                                   rtol=1e-8)

    def test_eigenbasis_route_matches_matrix_exponential(self):
        spec, _ = chain_modes(1.5)
        h = nhzm.assemble_hamiltonian(spec)
        rng = np.random.default_rng(8)
        states = rng.normal(size=(19, 4)) + 1j * rng.normal(size=(19, 4))
        duration = 2.0 * PERIOD
        fast = _evolver(h, duration, "max")(states.copy())
        for j in range(4):
            direct = nhzm.propagate(h, states[:, j], duration)
            direct = direct / np.abs(direct).max()
            np.testing.assert_allclose(fast[:, j], direct, atol=1e-8)


    def test_defective_matrix_takes_the_renormalized_fallback(self):
        # gain/loss equal to the coupling makes this dimer exactly
        # defective: numpy's two eigenvectors are parallel, the eigenbasis
        # fails its reconstruction check, and every column is stepped
        # period by period
        h = defective_dimer()
        ev, v = np.linalg.eig(h.matrix)
        assert np.linalg.norm(v @ np.diag(ev) @ np.linalg.inv(v) - h.matrix,
                              2) > 1e-8 * h.norm
        rng = np.random.default_rng(10)
        states = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        duration = 3.5 * PERIOD
        out = _evolver(h, duration, "max")(states.copy())
        for j in range(3):
            direct, _ = nhzm.propagate(h, states[:, j], duration,
                                       renormalize_each_period=True)
            np.testing.assert_array_equal(out[:, j],
                                          direct / np.abs(direct).max())

    def test_fallback_computes_two_propagators_per_ensemble(self,
                                                             monkeypatch):
        # one expm for the period and one for the remainder, shared by every
        # realization of every block, rather than two per realization
        import scipy.linalg
        expm = scipy.linalg.expm
        calls = []
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda a: calls.append(a) or expm(a))
        monkeypatch.setattr(dynamics, "_block_width", lambda n: 2)
        spec = nhzm.LatticeSpec(np.diag(defective_dimer().matrix), [1.0])
        zm = ZeroMode(None, 0j, np.array([1.0, 1j]))
        result = nhzm.ensemble_experiment(spec, zm, n_realizations=5,
                                          periods=3.5, seed=1)
        assert len(calls) == 2
        assert np.all(np.isfinite(result.mean_abs_profile))

    def test_vanishing_coefficient_gets_no_phase(self):
        # a diagonal H has exactly the identity as eigenvectors, so a zero
        # entry of a state is an exactly zero coefficient, whose unit phase
        # is taken as 0 rather than 0/0
        w = np.array([1.0 + 0.1j, -0.5 - 0.2j, 0.3j, 0.7 - 0.05j])
        h = nhzm.Hamiltonian(np.diag(w))
        assert np.array_equal(np.linalg.eig(h.matrix)[1], np.eye(4))
        states = np.array([[1.0, 0.5j], [0.0, 2.0], [0.3 - 0.2j, 0.0],
                           [2.0, 1.0]], dtype=complex)
        duration = 2.0
        out = _evolver(h, duration, "max")(states.copy())
        assert out[1, 0] == 0 and out[2, 1] == 0
        expected = np.exp(-1j * w[:, None] * duration) * states
        expected /= np.abs(expected).max(axis=0)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)


SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 5 * 2 ** 40 + 7, 2 ** 64 + 3, 2 ** 100]


class TestSeededNormals:
    @pytest.mark.parametrize("n_realizations", [1, 3, 1000])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_numpy_bit_for_bit(self, seed, n_realizations):
        # 2**100 has five entropy words, one more than SeedSequence's pool
        got = _seeded_normals(seed, n_realizations, 5)
        want = numpy_normals(seed, n_realizations, 5)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 2 ** 64 + 3])
    def test_ensemble_equals_the_per_realization_loop(self, seed):
        spec, zm = baseline_zero_mode(2.000316)
        kwargs = dict(sigma=0.1, n_realizations=200, periods=0.17, seed=seed)
        result = nhzm.ensemble_experiment(spec, zm, **kwargs)
        mean, std = loop_ensemble(spec, zm, **kwargs)
        assert result.mean_abs_profile.tobytes() == mean.tobytes()
        assert result.std_profile.tobytes() == std.tobytes()

    def test_negative_seed_raises_like_numpy(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence((-1, 0))
        with pytest.raises(ValueError):
            _seeded_normals(-1, 3, 5)
        spec, zm = baseline_zero_mode(2.000316)
        with pytest.raises(ValueError):
            nhzm.ensemble_experiment(spec, zm, n_realizations=3,
                                     periods=0.17, seed=-1)

    @pytest.mark.parametrize("start", [0, 1, 999, 2 ** 32 - 3])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 + 3])
    def test_rows_from_an_offset_equal_numpy(self, seed, start):
        # from 2**32 - 3 two rows remain below the 2**32-row limit
        count = min(3, 2 ** 32 - 1 - start)
        got = _seeded_normals(seed, count, 5, start=start)
        want = numpy_normals(seed, count, 5, start=start)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the rows of a block are the matching rows of a wider draw
        if start < 1000:
            wide = _seeded_normals(seed, start + count, 5)
            assert got.tobytes() == wide[start:].tobytes()

    @pytest.mark.parametrize("count", [4, 10 ** 6])
    def test_offset_beyond_one_uint32_word_refused_first(self, count):
        # drawing first would allocate 40 MB of rows for count = 10**6
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                _seeded_normals(0, count, 5, start=2 ** 32 - 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_index_beyond_one_uint32_word_refused(self):
        # refused before any allocation rather than wrapped to index 0
        with pytest.raises(DomainError):
            _seeded_normals(0, 2 ** 32, 5)
        spec, zm = baseline_zero_mode(2.000316)
        with pytest.raises(DomainError):
            nhzm.ensemble_experiment(spec, zm, n_realizations=2 ** 32)


class TestEnsemble:
    def test_reproducible_bit_for_bit(self):
        spec, zm = baseline_zero_mode(2.000316)
        kwargs = dict(sigma=0.1, n_realizations=64, periods=0.17, seed=123)
        a = nhzm.ensemble_experiment(spec, zm, **kwargs)
        b = nhzm.ensemble_experiment(spec, zm, **kwargs)
        np.testing.assert_array_equal(a.mean_abs_profile, b.mean_abs_profile)
        np.testing.assert_array_equal(a.std_profile, b.std_profile)
        assert a.r_squared == b.r_squared

    def test_zero_noise_reproduces_the_clean_tail(self):
        spec, zm = baseline_zero_mode(2.000316)
        result = nhzm.ensemble_experiment(spec, zm, sigma=0.0,
                                          n_realizations=3, periods=0.17,
                                          seed=1)
        clean = nhzm.fit_tail(zm.wavefunction, spec.reservoir_sites(),
                              "linear", per_sublattice=False)
        assert result.r_squared == pytest.approx(clean.r_squared, abs=1e-3)
        assert result.r_squared > 0.999

    def test_result_invariants(self):
        spec, zm = baseline_zero_mode(2.000316)
        result = nhzm.ensemble_experiment(spec, zm, n_realizations=32,
                                          periods=0.17, seed=9)
        assert np.all(result.mean_abs_profile >= 0)
        assert np.all(result.std_profile >= 0)
        assert 0.0 <= result.r_squared <= 1.0

    def test_single_realization_has_comparable_scatter(self):
        spec, zm = baseline_zero_mode(2.000316)
        single = nhzm.ensemble_experiment(spec, zm, n_realizations=1,
                                          periods=0.17, seed=3)
        many = nhzm.ensemble_experiment(spec, zm, n_realizations=256,
                                        periods=0.17, seed=3)
        assert np.all(single.std_profile == 0.0)
        assert many.r_squared > 0.98
        # per-site noise of order sigma survives in a single draw
        deviation = np.abs(single.mean_abs_profile - many.mean_abs_profile)
        assert deviation.max() > 0.2 * many.std_profile.max()

    def test_seed_changes_the_profile(self):
        spec, zm = baseline_zero_mode(2.000316)
        a = nhzm.ensemble_experiment(spec, zm, n_realizations=16,
                                     periods=0.17, seed=1)
        b = nhzm.ensemble_experiment(spec, zm, n_realizations=16,
                                     periods=0.17, seed=2)
        assert not np.array_equal(a.mean_abs_profile, b.mean_abs_profile)

    def test_amplification_limited_periods(self):
        spec, modes = chain_modes(2.0)
        zm = nhzm.find_zero_modes(modes, spec)[0]
        periods = nhzm.amplification_limited_periods(modes.eigenvalues,
                                                     zm.omega, 1e3)
        delta = modes.eigenvalues.imag.max() - zm.omega.imag
        assert np.exp(delta * periods * PERIOD) == pytest.approx(1e3)


class TestEnsembleBlocks:
    def test_block_width(self):
        assert _block_width(109) == 2048
        for n in (1, 19, 109, 459, 1009, 8192):
            width = _block_width(n)
            assert width & (width - 1) == 0
            assert width > n
            assert (width * dynamics._COLUMN_BYTES * n
                    <= max(dynamics.ENSEMBLE_BYTES,
                           2 * n * dynamics._COLUMN_BYTES * n))

    @pytest.mark.parametrize("normalization", ["max", "l2"])
    @pytest.mark.parametrize("width", [1, 7, 64])
    def test_width_moves_mean_and_std_only_by_rounding(self, monkeypatch,
                                                       width, normalization):
        spec, zm = baseline_zero_mode(2.000316)
        kwargs = dict(sigma=0.1, n_realizations=200, periods=0.17, seed=4,
                      normalization=normalization)
        assert _block_width(spec.n_sites) >= 200
        one = nhzm.ensemble_experiment(spec, zm, **kwargs)
        monkeypatch.setattr(dynamics, "_block_width", lambda n: width)
        blocked = nhzm.ensemble_experiment(spec, zm, **kwargs)
        np.testing.assert_allclose(blocked.mean_abs_profile,
                                   one.mean_abs_profile, rtol=1e-14, atol=0)
        np.testing.assert_allclose(blocked.std_profile, one.std_profile,
                                   rtol=1e-14, atol=0)

    def test_traced_memory_is_the_budget_and_the_moduli(self, monkeypatch):
        # all realizations at once trace ~80 MB here; blocks of the budget
        # and the (n_res, R) moduli that mean and std are taken over, ~9 MB
        monkeypatch.setattr(dynamics, "ENSEMBLE_BYTES", 4 * 2 ** 20)
        spec = nhzm.coupled_chain(2.0, n_reservoir=100)
        zm = nhzm.lowest_zero_mode(spec)
        n_res, n_realizations = len(spec.reservoir_sites()), 10_000
        tracemalloc.start()
        try:
            nhzm.ensemble_experiment(spec, zm, n_realizations=n_realizations,
                                     periods=0.17, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        margin = 2 * 2 ** 20
        assert peak <= (dynamics.ENSEMBLE_BYTES + 8 * n_res * n_realizations
                        + margin)


class TestEpEvolution:
    def test_jordan_chain_invariants(self):
        h, ep = ep_pair()
        shifted = h.matrix - ep.eigenvalue * np.eye(2)
        assert np.linalg.norm(shifted @ ep.psi0) <= 1e-10
        assert np.linalg.norm(shifted @ ep.psi1 - ep.psi0) <= 1e-10
        assert np.linalg.norm(shifted @ shifted @ ep.psi1) <= 1e-10

    def test_coalesced_state_is_staggered(self):
        _, ep = ep_pair()
        assert nhzm.check_stagger_phase(ep.psi0).staggered

    def test_closed_form_matches_propagation(self):
        h, ep = ep_pair()
        rng = np.random.default_rng(9)
        psi_init = rng.normal(size=2) + 1j * rng.normal(size=2)
        for t in np.linspace(0.0, 10 * PERIOD, 13):
            closed = nhzm.ep_evolution(h, ep, psi_init, t)
            direct = nhzm.propagate(h, psi_init, t)
            np.testing.assert_allclose(closed, direct, atol=1e-8)

    def test_coalesced_input_stays_put(self):
        h, ep = ep_pair()
        out = nhzm.ep_evolution(h, ep, ep.psi0, 4.2)
        expected = np.exp(-1j * ep.eigenvalue * 4.2) * ep.psi0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_generalized_input_grows_linearly_toward_psi0(self):
        h, ep = ep_pair()
        basis = np.column_stack([ep.psi0, ep.psi1])
        ts = np.linspace(0.5, 20.0, 25)
        amps = []
        for t in ts:
            state = nhzm.ep_evolution(h, ep, ep.psi1, t)
            c = np.linalg.solve(basis, state)
            amps.append(abs(c[0]))
        slope, intercept = np.polyfit(ts, amps, 1)
        resid = amps - (slope * ts + intercept)
        r2 = 1 - resid @ resid / np.sum((amps - np.mean(amps)) ** 2)
        assert r2 >= 0.9999
        assert slope > 0

    def test_long_time_direction_converges_to_psi0(self):
        h, ep = ep_pair()
        state = nhzm.ep_evolution(h, ep, ep.psi1, 500.0)
        state /= np.linalg.norm(state)
        ref = ep.psi0 / np.linalg.norm(ep.psi0)
        assert abs(np.vdot(ref, state)) == pytest.approx(1.0, abs=1e-2)

    def test_corrupted_chain_rejected(self):
        h, ep = ep_pair()
        broken = EpEvolution(ep.eigenvalue, ep.psi0, ep.psi1 + 0.1 * ep.psi0
                             + np.array([0.05, -0.02j]))
        with pytest.raises(EpSetupError):
            nhzm.ep_evolution(h, broken, ep.psi0, 1.0)

    def test_out_of_subspace_input_rejected_for_large_matrices(self):
        # a 4x4 with an exact Jordan block plus unrelated modes
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        m[2, 2] = 2.0
        m[3, 3] = 3.0
        h = nhzm.Hamiltonian(m)
        ep = EpEvolution(0.0, np.array([1, 0, 0, 0], dtype=complex),
                         np.array([0, 1, 0, 0], dtype=complex))
        with pytest.raises(EpSetupError):
            nhzm.ep_evolution(h, ep, np.array([0, 0, 1, 0], dtype=complex), 1.0)


class TestCriticalDamping:
    def test_pure_exponential_when_beta_vanishes(self):
        ts = np.linspace(0, 5, 30)
        out = nhzm.critical_damping(1.0, -2.0, 2.0, ts)
        np.testing.assert_allclose(out, np.exp(-2.0 * ts), atol=1e-12)

    def test_free_limit_is_uniform_velocity(self):
        ts = np.linspace(0, 5, 30)
        out = nhzm.critical_damping(0.3, 1.5, 0.0, ts)
        np.testing.assert_allclose(out, 0.3 + 1.5 * ts, atol=1e-12)

    def test_generic_motion_is_not_linear_in_time(self):
        omega0 = 1.0
        ts = np.linspace(0.0, 5.0 / omega0, 60)
        out = np.abs(nhzm.critical_damping(1.0, 1.0, omega0, ts))
        slope, intercept = np.polyfit(ts, out, 1)
        resid = out - (slope * ts + intercept)
        r2 = 1 - resid @ resid / np.sum((out - out.mean()) ** 2)
        assert r2 < 0.99
