import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhzm
from nhzm.errors import DomainError
from nhzm.localization import Regime

from conftest import baseline_zero_mode, chain_modes


class TestComputeKappa:
    def test_symmetric_case(self):
        assert nhzm.compute_kappa(0.0, 2.0) == (-2.0, 2.0)

    def test_known_transition_values(self):
        ka, kb = nhzm.compute_kappa(0.0356j, 2.0)
        assert ka == pytest.approx(-1.9644)
        assert kb == pytest.approx(2.0356)

    def test_nonzero_real_part_raises(self):
        with pytest.raises(DomainError):
            nhzm.compute_kappa(0.1 + 0.0j, 1.0)


class TestComputeAlpha:
    @pytest.mark.parametrize("gamma,im_omega,expected_alpha", [
        (0.5, 0.0251, -1.75),
        (3.0, 0.0147, 7.0),
    ])
    def test_known_alpha_values(self, gamma, im_omega, expected_alpha):
        ka, kb = nhzm.compute_kappa(im_omega * 1j, gamma)
        alpha, _ = nhzm.compute_alpha(ka, kb, 1.0, 1.0)
        assert alpha == pytest.approx(expected_alpha, abs=5e-3)

    def test_critical_point(self):
        alpha, r = nhzm.compute_alpha(-2.0, 2.0, 1.0, 1.0)
        assert (alpha, r) == (2.0, -4.0)

    def test_generalized_reduces_to_uniform(self):
        alpha_u, r_u = nhzm.compute_alpha(-1.0, 1.5, 1.0, 1.0)
        assert alpha_u == -(2.0 + r_u)
        alpha_g, r_g = nhzm.compute_alpha(-1.0, 1.5, 1.0, 0.5)
        assert r_g == pytest.approx(-1.5 / 0.5)
        assert alpha_g == pytest.approx(-(2.5 + r_g))


class TestCharacteristicRoots:
    def test_double_root_at_two(self):
        bp, bm = nhzm.characteristic_roots(2.0)
        assert bp == bm == 1.0

    def test_alpha_seven(self):
        bp, bm = nhzm.characteristic_roots(7.0)
        assert bp.real == pytest.approx(6.8541, abs=1e-4)
        assert bm.real == pytest.approx(0.14590, abs=1e-5)
        assert bp * bm == pytest.approx(1.0, abs=1e-12)

    def test_unimodular_pair_inside_window(self):
        bp, bm = nhzm.characteristic_roots(-1.75)
        assert abs(bp) == pytest.approx(1.0, abs=1e-12)
        assert abs(bm) == pytest.approx(1.0, abs=1e-12)
        assert bp == bm.conjugate()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50, 50))
    def test_root_identities(self, alpha):
        bp, bm = nhzm.characteristic_roots(alpha)
        assert abs(bp * bm - 1.0) <= 1e-12 * max(1.0, abs(bp * bm))
        assert abs(bp + bm - alpha) <= 1e-12 * max(1.0, abs(alpha))


class TestClassifyRegime:
    def test_extended_at_weak_modulation(self):
        spec, zm = baseline_zero_mode(0.5)
        report = nhzm.classify_regime(zm, spec)
        assert report.regime is Regime.EXTENDED
        assert report.alpha == pytest.approx(-1.75, abs=1e-2)

    def test_exponential_at_strong_modulation(self):
        spec, zm = baseline_zero_mode(3.0)
        report = nhzm.classify_regime(zm, spec)
        assert report.regime is Regime.EXPONENTIAL
        assert report.alpha == pytest.approx(7.0, abs=1e-2)
        assert report.decay_rate == pytest.approx(math.log(6.8541), abs=1e-3)

    def test_linear_at_tuned_critical_point(self):
        spec, zm = baseline_zero_mode(2.000316)
        report = nhzm.classify_regime(zm, spec)
        assert report.regime is Regime.LINEAR
        assert report.fits["A"].r_squared > 0.999
        assert report.fits["B"].r_squared > 0.999

    def test_zigzag_at_strong_coupling(self):
        spec, zm = baseline_zero_mode(2.036142, t_prime=0.6)
        report = nhzm.classify_regime(zm, spec)
        assert report.regime is Regime.ZIGZAG

    def test_constant_delocalized_in_hermitian_limit(self):
        spec, zm = baseline_zero_mode(0.0)
        report = nhzm.classify_regime(zm, spec)
        assert report.regime is Regime.CONSTANT
        # amplitude constant on at least one reservoir sublattice
        res = list(spec.reservoir_sites())
        amps = np.abs(zm.wavefunction)[res]
        spreads = [np.ptp(amps[0::2]), np.ptp(amps[1::2])]
        assert min(spreads) <= 1e-10 * amps.max()

    def test_roots_satisfy_report_invariants(self):
        spec, zm = baseline_zero_mode(1.3)
        report = nhzm.classify_regime(zm, spec)
        bp, bm = report.roots
        assert abs(bp * bm - 1.0) <= 1e-12
        assert abs(bp + bm - report.alpha) <= 1e-12


def loop_verify_recurrence(psi, sites, alpha, kappas=None, t=1.0):
    """``verify_recurrence`` as a Python loop over the sites."""
    seg = np.asarray(psi)[list(sites)]
    scale = float(np.abs(seg).max())
    if scale == 0.0:
        return 0.0
    worst = float(np.abs(seg[4:] - alpha * seg[2:-2] + seg[:-4]).max()) / scale
    if kappas is not None:
        for pos in range(1, len(seg) - 1):
            kappa = kappas[pos % 2]
            r1 = abs(seg[pos + 1] - 1j * (kappa / t) * seg[pos] + seg[pos - 1])
            worst = max(worst, float(r1) / scale)
    return worst


class TestVerifyRecurrence:
    @pytest.mark.parametrize("kappas", [None, (0.3, -1.7)])
    def test_matches_the_site_loop(self, kappas):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=40) + 1j * rng.normal(size=40)
        for sites in (range(40), range(3, 11), list(range(7, 30))):
            assert nhzm.verify_recurrence(psi, sites, 1.9, kappas=kappas,
                                          t=0.8) \
                == loop_verify_recurrence(psi, sites, 1.9, kappas, t=0.8)

    def test_exact_eigenvector_matches_the_site_loop(self):
        spec, zm = baseline_zero_mode(2.0)
        res = spec.reservoir_sites()
        kappas = (zm.kappa_a, zm.kappa_b)
        assert nhzm.verify_recurrence(zm.wavefunction, res, zm.alpha,
                                      kappas=kappas) \
            == loop_verify_recurrence(zm.wavefunction, res, zm.alpha, kappas)

    def test_gap_in_sites_raises(self):
        with pytest.raises(DomainError, match="consecutive"):
            nhzm.verify_recurrence(np.ones(8), [0, 1, 2, 4, 5, 6], 2.0)

    def test_exact_eigenvector_satisfies_recurrence(self):
        spec, zm = baseline_zero_mode(2.0)
        assert nhzm.verify_eigenmode_recurrence(zm, spec) <= 1e-10

    def test_linear_sequence_is_exact_at_alpha_two(self):
        # psi constant on one sublattice, linear on the other
        psi = np.zeros(12, dtype=complex)
        psi[0::2] = np.arange(6, 0, -1)
        psi[1::2] = 1.0
        assert nhzm.verify_recurrence(psi, range(12), 2.0) == 0.0

    def test_random_vector_fails(self):
        rng = np.random.default_rng(11)
        psi = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert nhzm.verify_recurrence(psi, range(10), 2.0) > 0.1

    def test_short_range_raises(self):
        with pytest.raises(DomainError):
            nhzm.verify_recurrence(np.ones(4), range(4), 2.0)

    def test_residual_small_for_all_zero_modes_across_sweep(self):
        for gamma in np.arange(0.1, 3.01, 0.1):
            spec, modes = chain_modes(round(float(gamma), 10))
            for zm in nhzm.find_zero_modes(modes, spec):
                assert nhzm.verify_eigenmode_recurrence(zm, spec) <= 1e-9


class TestStaggerPhase:
    def test_two_site_example(self):
        report = nhzm.check_stagger_phase(np.array([1.0, 1.0j]))
        assert report.staggered

    def test_zero_mode_is_staggered_and_in_phase(self):
        spec, zm = baseline_zero_mode(2.000316)
        report = nhzm.check_stagger_phase(zm.wavefunction, spec.partition)
        assert report.staggered and report.in_phase_per_sublattice

    def test_generic_nonzero_mode_is_not_staggered(self):
        spec, modes = chain_modes(2.0)
        nonzero = [i for i, w in enumerate(modes.eigenvalues)
                   if abs(w.real) > 0.1]
        assert nonzero
        report = nhzm.check_stagger_phase(modes.right_vectors[:, nonzero[0]],
                                          spec.partition)
        assert not report.staggered

    def test_system_alternating_signs_do_not_break_in_phase_check(self):
        # the system part of the zero mode alternates in sign; only the
        # reservoir (from the partition) enters the in-phase condition
        spec, zm = baseline_zero_mode(2.000316)
        rotated = zm.wavefunction * np.exp(-1j * np.angle(zm.wavefunction[8]))
        signs = np.sign(rotated[:spec.partition][0::2].real)
        assert (signs[1:] * signs[:-1] < 0).all()


class TestFitTail:
    def test_exact_arithmetic_sequence(self):
        psi = np.arange(10, 0, -1).astype(complex)
        fit = nhzm.fit_tail(psi, range(10), "linear", per_sublattice=False)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.slope == pytest.approx(-1.0)

    def test_linear_profile_at_critical_point(self):
        spec, zm = baseline_zero_mode(2.000316)
        fit = nhzm.fit_tail(zm.wavefunction, spec.reservoir_sites(),
                            "linear", per_sublattice=False)
        assert fit.r_squared >= 0.999

    def test_exponential_decay_matches_root(self):
        spec, zm = baseline_zero_mode(3.0)
        bp, _ = nhzm.characteristic_roots(zm.alpha)
        res = list(spec.reservoir_sites())
        # last six usable sites, dropping the boundary site where the
        # reflected root contaminates the decay
        fits = nhzm.fit_tail(zm.wavefunction, res[-7:-1], "exponential")
        for fit in fits.values():
            assert -fit.slope == pytest.approx(math.log(bp.real), rel=0.01)

    def test_zero_amplitude_rejected_for_exponential(self):
        with pytest.raises(DomainError):
            nhzm.fit_tail(np.zeros(6), range(6), "exponential")


class TestExtendedBounds:
    def test_amplitudes_bounded_by_two_root_coefficients(self):
        spec, zm = baseline_zero_mode(0.5)
        roots = nhzm.characteristic_roots(zm.alpha)
        res = list(spec.reservoir_sites())
        for parity in (0, 1):
            sites = res[parity::2]
            vals = zm.wavefunction[sites]
            b1, b2 = nhzm.fit_two_root_expansion(vals, roots)
            amps = np.abs(vals)
            lo, hi = abs(abs(b1) - abs(b2)), abs(b1) + abs(b2)
            assert np.all(amps >= lo - 1e-8)
            assert np.all(amps <= hi + 1e-8)


class TestAmplitudeRelation:
    def test_linear_profile_amplitude_identity(self):
        spec, zm = baseline_zero_mode(2.000316)
        report = nhzm.classify_regime(zm, spec)
        assert report.regime is Regime.LINEAR
        res = list(spec.reservoir_sites())
        psi = np.abs(zm.wavefunction)
        scale = psi[res].max()
        for n in res[2:-1]:
            kappa = zm.kappa_a if spec.onsite[n - 1].imag > 0 else zm.kappa_b
            lhs = psi[n] + psi[n - 2]
            rhs = abs(kappa) * psi[n - 1]
            assert abs(lhs - rhs) <= 1e-8 * scale


class TestLinearPeakAmplitude:
    def test_reference_value(self):
        assert nhzm.linear_peak_amplitude(0.2, 1.0, 10) == \
            pytest.approx(0.2 / 1.1)

    def test_long_reservoir_limit(self):
        assert nhzm.linear_peak_amplitude(0.2, 1.0, 10**6) == \
            pytest.approx(0.2, rel=1e-5)

    def test_zero_coupling(self):
        assert nhzm.linear_peak_amplitude(0.0, 1.0, 10) == 0.0

    def test_matches_computed_profile(self):
        spec, zm = baseline_zero_mode(2.000316)
        psi = np.abs(zm.wavefunction) / np.abs(zm.wavefunction).max()
        peak = psi[list(spec.reservoir_sites())].max()
        assert peak == pytest.approx(nhzm.linear_peak_amplitude(0.2, 1.0, 10),
                                     rel=0.02)


class TestHermitianReservoir:
    def test_detuning_values(self):
        assert nhzm.hermitian_alpha(0.0, +2.0, 1.0) == -2.0
        assert nhzm.hermitian_alpha(0.0, -2.0, 1.0) == +2.0
        assert nhzm.hermitian_alpha(0.0, 0.0, 1.0) == 0.0

    def test_detuned_chain_loses_symmetry_protection(self):
        # aligning a band edge of a Hermitian reservoir with the zero mode
        # requires a detuning that breaks the symmetric spectrum
        spec = nhzm.coupled_chain(0.0, reservoir_onsite=-2.0)
        modes = nhzm.eigendecompose(nhzm.assemble_hamiltonian(spec))
        assert nhzm.find_zero_modes(modes, spec) == []
        pairing = nhzm.check_spectral_symmetry(modes, kind="chiral", tol=1e-8)
        assert len(pairing.unmatched) > 0


class TestSshLocalizationLength:
    def test_reference_value(self):
        assert nhzm.ssh_localization_length(1.0, 0.2) == \
            pytest.approx(1.0 / math.log(5.0))

    def test_log_ratio_one(self):
        assert nhzm.ssh_localization_length(math.e * 0.7, 0.7) == \
            pytest.approx(1.0)

    def test_equal_couplings_diverge(self):
        assert nhzm.ssh_localization_length(1.0, 1.0) == math.inf

    def test_wrong_order_raises(self):
        with pytest.raises(DomainError):
            nhzm.ssh_localization_length(0.2, 1.0)


class TestZigzagCandidates:
    def test_alternating_reservoir_crossings_sit_near_candidates(self):
        for target, gamma in ((2.0, 1.501683), (-2.0, 0.502462)):
            spec, zm = baseline_zero_mode(gamma, reservoir_t_b=0.5)
            assert zm.alpha == pytest.approx(target, abs=1e-4)
        # the crossings are near the candidates, not at twice their values
        for wrong_gamma in (1.0, 2.0):
            spec, zm = baseline_zero_mode(wrong_gamma, reservoir_t_b=0.5)
            assert min(abs(zm.alpha - 2), abs(zm.alpha + 2)) > 0.5

    def test_zigzag_profile_is_linear_per_sublattice(self):
        spec, zm = baseline_zero_mode(1.501683, reservoir_t_b=0.5)
        report = nhzm.classify_regime(zm, spec)
        assert report.regime is Regime.ZIGZAG
        for fit in report.fits.values():
            assert fit.r_squared >= 0.999
