import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nhzm
from nhzm import perturbation
from nhzm.errors import DegeneratePerturbationError, DomainError
from nhzm.perturbation import DEGENERACY_GAP, PerturbationSetup, _resolvent
from nhzm.spectral import ZERO_TOL

GAMMAS = np.round(np.arange(0.25, 3.01, 0.25), 10)


def setup_for(gamma, t_prime=0.2):
    spec = nhzm.coupled_chain(gamma, t_prime=t_prime)
    return spec, PerturbationSetup.from_spec(spec)


def sum_over_states(setup, mode_index):
    """Reference first-order correction: the sum over all unperturbed modes."""
    modes = setup.modes
    if modes.near_defective[mode_index]:
        raise DegeneratePerturbationError(
            f"unperturbed mode {mode_index} is near-defective")
    w0 = modes.eigenvalues[mode_index]
    psi0 = modes.right_vectors[:, mode_index]
    correction = np.zeros_like(psi0)
    # H' psi0 for the unit bond between the sites either side of the cut
    p = setup.spec.partition
    hp_psi = np.zeros_like(psi0)
    hp_psi[p - 1], hp_psi[p] = psi0[p], psi0[p - 1]
    for nu in range(modes.n_modes):
        if nu == mode_index:
            continue
        denom = w0 - modes.eigenvalues[nu]
        element = modes.left_vectors[nu] @ hp_psi
        if element == 0:
            continue
        if modes.near_defective[nu]:
            # a coalescing pair has no biorthonormalized left vector; the
            # nondegenerate expansion is inapplicable
            raise DegeneratePerturbationError(
                f"unperturbed mode {nu} is near-defective")
        if abs(denom) < DEGENERACY_GAP:
            raise DegeneratePerturbationError(
                f"degenerate denominator between modes {mode_index} and {nu}: "
                f"gap {abs(denom):.2e}")
        correction += (element / denom) * modes.right_vectors[:, nu]
    return setup.t_prime * correction


class TestSetup:
    def test_junction_structure(self):
        spec, setup = setup_for(2.0)
        # the cut is the partition: the bond between sites 8 and 9
        assert [f.name for f in dataclasses.fields(setup)] == \
            ["spec", "t_prime", "modes", "omega0"]
        assert setup.spec is spec
        assert spec.partition == 9
        assert setup.t_prime == spec.bonds[8] == 0.2

    def test_setup_keeps_one_n_by_n_array(self):
        # only the block-diagonal vectors: no full H, H0 or H' alongside
        spec = nhzm.coupled_chain(2.0, n_reservoir=391)
        n = spec.n_sites
        tracemalloc.start()
        try:
            setup = PerturbationSetup.from_spec(spec)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert setup.modes.right_vectors.nbytes == 16 * n * n
        assert retained <= 1.25 * 16 * n * n

    def test_block_modes_vanish_in_the_other_block(self):
        _, setup = setup_for(1.0)
        for i in range(19):
            psi = setup.modes.right_vectors[:, i]
            sys_weight = np.linalg.norm(psi[:9])
            res_weight = np.linalg.norm(psi[9:])
            assert min(sys_weight, res_weight) == 0.0

    def test_zero_mode_index_picks_the_edge_mode(self):
        _, setup = setup_for(2.0)
        idx = setup.zero_mode_index()
        assert abs(setup.modes.eigenvalues[idx]) < 1e-12
        psi = setup.modes.right_vectors[:, idx]
        assert np.linalg.norm(psi[9:]) == 0.0

    def test_omega0_is_the_system_onsite(self):
        # the detuned reservoir does not move the system's zero mode
        spec = nhzm.coupled_chain(2.0, onsite=0.7, reservoir_onsite=0.3)
        setup = PerturbationSetup.from_spec(spec)
        assert setup.omega0 == 0.7
        idx = setup.zero_mode_index()
        assert abs(setup.modes.eigenvalues[idx] - 0.7) < 1e-12

    def test_zero_mode_index_needs_a_common_onsite(self):
        spec = nhzm.coupled_chain(2.0)
        onsite = spec.onsite.copy()
        onsite[0] += 0.1
        setup = PerturbationSetup.from_spec(
            nhzm.LatticeSpec(onsite, spec.bonds, spec.first_sublattice,
                             spec.partition))
        assert setup.omega0 is None
        with pytest.raises(DomainError, match="onsite"):
            setup.zero_mode_index()


class TestFirstOrderEnergy:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_vanishes_for_every_mode(self, gamma):
        _, setup = setup_for(float(gamma))
        for i in range(19):
            if setup.modes.near_defective[i]:
                continue
            assert abs(nhzm.first_order_energy(setup, i)) < 1e-12

    def test_zero_coupling_gives_zero(self):
        spec = nhzm.coupled_chain(1.0)
        setup = PerturbationSetup.from_spec(spec)
        scaled = dataclasses.replace(setup, t_prime=0.0)
        assert nhzm.first_order_energy(scaled, 0) == 0.0

    def test_near_defective_mode_rejected(self):
        # the uncoupled reservoir passes an exceptional point near
        # gamma = 2 cos(pi/11), where perturbation theory must refuse
        gamma_ep = 2 * np.cos(np.pi / 11)
        _, setup = setup_for(gamma_ep)
        flagged = np.nonzero(setup.modes.near_defective)[0]
        assert flagged.size
        with pytest.raises(DegeneratePerturbationError):
            nhzm.first_order_energy(setup, int(flagged[0]))


class TestFirstOrderWavefunction:
    def test_zero_mode_correction_lives_in_the_reservoir(self):
        _, setup = setup_for(2.0)
        idx = setup.zero_mode_index()
        correction = nhzm.first_order_wavefunction(setup, idx)
        assert np.linalg.norm(correction[:9]) == 0.0
        assert np.linalg.norm(correction[9:]) > 0.0

    def test_zero_coupling_gives_zero_vector(self):
        _, setup = setup_for(1.0)
        scaled = dataclasses.replace(setup, t_prime=0.0)
        correction = nhzm.first_order_wavefunction(scaled, scaled.zero_mode_index())
        assert np.linalg.norm(correction) == 0.0

    def test_corrected_profile_is_linear_at_critical_modulation(self):
        _, setup = setup_for(2.000316)
        idx = setup.zero_mode_index()
        psi = setup.modes.right_vectors[:, idx] + \
            nhzm.first_order_wavefunction(setup, idx)
        fit = nhzm.fit_tail(psi, range(9, 19), "linear", per_sublattice=False)
        assert fit.r_squared >= 0.999

    def test_degenerate_denominator_raises_cleanly(self):
        gamma_ep = 2 * np.cos(np.pi / 11)
        _, setup = setup_for(gamma_ep)
        idx = setup.zero_mode_index()
        with pytest.raises(DegeneratePerturbationError):
            nhzm.first_order_wavefunction(setup, idx)

    def test_exactly_singular_block_raises_cleanly(self):
        # a one-site system has omega0 = 0 exactly, an eigenvalue of the
        # three-site Hermitian reservoir
        spec = nhzm.coupled_chain(0.0, n_system=1, n_reservoir=3)
        setup = PerturbationSetup.from_spec(spec)
        assert setup.modes.eigenvalues[0] == 0.0
        # an exactly zero pivot, not the amplification guard
        with pytest.raises(DegeneratePerturbationError,
                           match="is an eigenvalue of the other block"):
            nhzm.first_order_wavefunction(setup, 0)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_resolvent_equals_sum_over_states(self, gamma):
        _, setup = setup_for(float(gamma))
        blocks = set()
        for i in range(19):
            if setup.modes.near_defective[i]:
                continue
            reference = sum_over_states(setup, i)
            correction = nhzm.first_order_wavefunction(setup, i)
            assert np.linalg.norm(correction - reference) <= \
                1e-10 * np.linalg.norm(reference)
            blocks.add(i < 9)
        assert blocks == {True, False}

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_system_zero_mode_profile_matches_the_setup(self, gamma):
        spec, setup = setup_for(float(gamma))
        idx = setup.zero_mode_index()
        expected = setup.modes.right_vectors[:, idx] + \
            nhzm.first_order_wavefunction(setup, idx)
        assert np.array_equal(nhzm.first_order_zero_mode(spec), expected)


    def test_system_zero_mode_taken_at_omega0(self):
        # at onsite 0.7 a bulk system mode (0.7 - 0.8) lies closer to 0
        # than the zero mode at 0.7 itself
        ref = nhzm.first_order_zero_mode(nhzm.coupled_chain(2.0))
        psi = nhzm.first_order_zero_mode(nhzm.coupled_chain(2.0, onsite=0.7),
                                         0.7)
        np.testing.assert_allclose(np.abs(psi), np.abs(ref), rtol=0,
                                   atol=1e-10)


def banded_resolvent(diag, off, w0, rhs):
    """The reference: scipy's banded solve, which calls LAPACK's zgtsv, as
    bits, or None where ``_resolvent`` must raise."""
    from scipy.linalg import solve_banded

    ab = np.zeros((3, len(diag)), dtype=complex)
    ab[0, 1:] = -off
    ab[1] = w0 - diag
    ab[2, :-1] = -off
    try:
        x = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.norm(x) * DEGENERACY_GAP <= np.linalg.norm(rhs):
        return None
    return x.view(np.int64)


def ported_resolvent(diag, off, w0, rhs):
    """``_resolvent`` as bits, or None where it raises."""
    try:
        return _resolvent(diag, off, w0, rhs).view(np.int64)
    except DegeneratePerturbationError:
        return None


def same_bits(a, b):
    return a is b is None or (a is not None and b is not None
                              and np.array_equal(a, b))


def first_step_swaps(diag, off, w0):
    """Whether ?gtsv's first elimination step interchanges rows 0 and 1."""
    d = w0 - diag[0]
    return abs(d.real) + abs(d.imag) < off[0]


class TestResolvent:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(2, 120), st.floats(0.0, 3.5),
           st.floats(0.3, 1.5), st.floats(0.05, 0.6),
           st.one_of(st.none(), st.floats(-1.0, 1.0)),
           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_equals_lapack_gtsv_to_the_bit(self, half_system, n_reservoir,
                                           gamma, t_b, t_prime, detuning,
                                           system_draw, reservoir_draw):
        n_system = 2 * half_system + 1
        spec = nhzm.coupled_chain(gamma, n_system=n_system,
                                  n_reservoir=n_reservoir, reservoir_t_b=t_b,
                                  t_prime=t_prime, reservoir_onsite=detuning)
        setup = PerturbationSetup.from_spec(spec)
        # the system block's modes come first, then the reservoir's
        modes = [system_draw % n_system,
                 n_system + reservoir_draw % n_reservoir]
        assume(not setup.modes.near_defective[modes].any())
        calls = []

        def recording(*args):
            calls.append(args)
            return _resolvent(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(perturbation, "_resolvent", recording)
            try:
                nhzm.first_order_zero_mode(spec)
                for i in modes:
                    nhzm.first_order_wavefunction(setup, i)
            except DegeneratePerturbationError:
                assume(False)
        # the system mode's solve runs on the reservoir block, the reservoir
        # mode's on the system block
        assert [len(c[0]) for c in calls] == \
            [n_reservoir, n_reservoir, n_system]
        # and the reservoir block shifted to its first site's energy, whose
        # first elimination step swaps rows (the shift can be an eigenvalue),
        # against a right-hand side with no zero entry
        diag, off = calls[0][:2]
        rhs = [1, 1j] @ np.random.default_rng(reservoir_draw).standard_normal(
            (2, n_reservoir))
        calls.append((diag, off, diag[0], rhs))
        assert first_step_swaps(*calls[-1][:3])
        for args in calls:
            assert same_bits(ported_resolvent(*args), banded_resolvent(*args))

    def test_paper_chains_take_both_pivot_branches(self):
        # gamma = 0.5 < t_A: the junction row is swapped; gamma = 3: it is not
        swaps = []
        for gamma in (0.5, 3.0):
            spec = nhzm.coupled_chain(gamma)
            diag, off = spec.onsite[9:], spec.bonds[9:]
            setup = PerturbationSetup.from_spec(spec)
            w0 = setup.modes.eigenvalues[setup.zero_mode_index()]
            rhs = np.eye(len(diag), 1, dtype=complex)[:, 0]
            swaps.append(first_step_swaps(diag, off, w0))
            x = ported_resolvent(diag, off, w0, rhs)
            assert x is not None
            assert same_bits(x, banded_resolvent(diag, off, w0, rhs))
        assert swaps == [True, False]


class TestAgainstExact:
    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_weak_coupling_agreement(self, gamma):
        spec = nhzm.coupled_chain(gamma, t_prime=0.2)
        comparison = nhzm.perturbation_vs_exact(spec)
        assert comparison.vector_error <= 0.05
        assert comparison.energy_error <= 2 * 0.2 ** 2

    def test_strong_coupling_degrades(self):
        weak = nhzm.perturbation_vs_exact(nhzm.coupled_chain(2.0, t_prime=0.2))
        strong = nhzm.perturbation_vs_exact(nhzm.coupled_chain(2.0, t_prime=0.6))
        assert strong.vector_error > 3 * weak.vector_error

    def test_error_scales_quadratically(self):
        t_primes = np.array([0.05, 0.1, 0.2])
        errors = np.array([
            nhzm.perturbation_vs_exact(
                nhzm.coupled_chain(2.0, t_prime=tp)).vector_error
            for tp in t_primes])
        slope = np.polyfit(np.log(t_primes), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_halving_coupling_quarters_the_error(self):
        err1 = nhzm.perturbation_vs_exact(
            nhzm.coupled_chain(2.0, t_prime=0.2)).vector_error
        err2 = nhzm.perturbation_vs_exact(
            nhzm.coupled_chain(2.0, t_prime=0.1)).vector_error
        assert 3.0 <= err1 / err2 <= 5.5

    def test_zero_mode_at_shifted_onsite(self):
        ref = nhzm.perturbation_vs_exact(nhzm.coupled_chain(0.5))
        shifted = nhzm.perturbation_vs_exact(nhzm.coupled_chain(0.5, onsite=0.7))
        assert abs(shifted.omega_perturbative.real - 0.7) <= ZERO_TOL
        assert abs(shifted.vector_error - ref.vector_error) <= 1e-10
        assert abs(shifted.energy_error - ref.energy_error) <= 1e-10
