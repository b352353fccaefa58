import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhzm
from nhzm.errors import InvalidSpecError


class TestBuildSshChain:
    def test_single_site_has_no_couplings(self):
        spec = nhzm.build_ssh_chain(1, 1.0, 0.2)
        assert spec.n_sites == 1
        assert spec.couplings == ()

    def test_nine_site_chain_alternates_starting_with_t_a(self):
        spec = nhzm.build_ssh_chain(9, 1.0, 0.2)
        strengths = [c.strength for c in spec.couplings]
        assert strengths == [1.0, 0.2, 1.0, 0.2, 1.0, 0.2, 1.0, 0.2]
        assert all(s.onsite_imag == 0.0 for s in spec.sites)

    def test_three_site_coupling_list(self):
        spec = nhzm.build_ssh_chain(3, 1.0, 0.5)
        assert [(c.left, c.right, c.strength) for c in spec.couplings] == \
            [(0, 1, 1.0), (1, 2, 0.5)]

    @pytest.mark.parametrize("args", [(0, 1.0, 0.2), (3, 0.0, 0.2), (3, 1.0, -1.0)])
    def test_invalid_arguments_raise(self, args):
        with pytest.raises(InvalidSpecError):
            nhzm.build_ssh_chain(*args)


class TestBuildReservoir:
    def test_uniform_reservoir_alternates_gain_loss(self):
        spec = nhzm.build_reservoir(10, 1.0, 1.0, 2.0)
        imag = [s.onsite_imag for s in spec.sites]
        assert imag == [2.0, -2.0] * 5
        assert spec.reservoir_gamma() == 2.0
        assert spec.reservoir_couplings() == (1.0, 1.0)

    def test_hermitian_dimer_is_gamma_zero_limit(self):
        spec = nhzm.build_reservoir(2, 1.0, 1.0, 0.0)
        assert [s.onsite_imag for s in spec.sites] == [0.0, 0.0]
        assert spec.reservoir_gamma() == 0.0

    def test_alternating_coupling_reservoir(self):
        spec = nhzm.build_reservoir(4, 1.0, 0.5, 1.0)
        assert [c.strength for c in spec.couplings] == [1.0, 0.5, 1.0]
        assert spec.reservoir_couplings() == (1.0, 0.5)

    def test_first_sign_controls_leading_site(self):
        spec = nhzm.build_reservoir(4, 1.0, 1.0, 1.5, first_sign=-1)
        assert spec.sites[0].onsite_imag == -1.5
        assert spec.sites[1].onsite_imag == +1.5

    def test_invalid_reservoir_raises_on_every_call(self):
        # the parameters are derived once per spec, but a failed derivation
        # is not remembered as a value
        sites = tuple(nhzm.Site(0.0, g, "AB"[i % 2])
                      for i, g in enumerate((1.0, 1.0, -1.0, 1.0)))
        spec = nhzm.LatticeSpec(sites, tuple(
            nhzm.Coupling(i, i + 1, s) for i, s in enumerate((1.0, 0.5, 0.7))))
        for _ in range(3):
            with pytest.raises(InvalidSpecError, match="alternate"):
                spec.reservoir_gamma()
            with pytest.raises(InvalidSpecError, match="alternate"):
                spec.reservoir_couplings()

    def test_derived_parameters_leave_equality_and_hash(self):
        spec, twin = nhzm.coupled_chain(2.0), nhzm.coupled_chain(2.0)
        before = hash(spec)
        assert spec.reservoir_gamma() == 2.0
        assert spec.reservoir_couplings() == (1.0, 1.0)
        assert spec == twin
        assert hash(spec) == before == hash(twin)
        assert spec != nhzm.coupled_chain(2.5)


class TestCouple:
    def test_default_chain_matches_expected_shape(self):
        spec = nhzm.coupled_chain(2.0)
        assert spec.n_sites == 19
        assert spec.partition == 9
        assert len(spec.couplings) == 9 + 10 - 1
        junction = [c for c in spec.couplings if c.left == 8]
        assert junction[0].strength == 0.2
        # gain on the reservoir site adjacent to the junction, labeled A
        assert spec.sites[9].sublattice == "A"
        assert spec.sites[9].onsite_imag == +2.0

    def test_coupling_count_is_sum_minus_one(self):
        system = nhzm.build_ssh_chain(5, 1.0, 0.3)
        reservoir = nhzm.build_reservoir(6, 1.0, 1.0, 0.7, start_sublattice="B")
        coupled = nhzm.couple(system, reservoir, 0.4)
        assert len(coupled.couplings) == 5 + 6 - 1

    def test_strong_coupling_spec(self):
        spec = nhzm.coupled_chain(2.0, t_prime=0.6)
        assert [c.strength for c in spec.couplings if c.left == 8] == [0.6]

    def test_sublattice_clash_raises(self):
        system = nhzm.build_ssh_chain(9, 1.0, 0.2)  # starts and ends on A
        reservoir = nhzm.build_reservoir(10, 1.0, 1.0, 2.0)  # starts on A
        with pytest.raises(InvalidSpecError):
            nhzm.couple(system, reservoir, 0.2)

    def test_nonpositive_junction_raises(self):
        system = nhzm.build_ssh_chain(3, 1.0, 0.2)
        reservoir = nhzm.build_reservoir(2, 1.0, 1.0, 1.0, start_sublattice="B")
        with pytest.raises(InvalidSpecError):
            nhzm.couple(system, reservoir, 0.0)


class TestAssemble:
    def test_single_site_zero_matrix(self):
        spec = nhzm.build_ssh_chain(1, 1.0, 0.2, onsite=0.0)
        h = nhzm.assemble_hamiltonian(spec)
        assert h.dim == 1
        assert h.matrix[0, 0] == 0.0

    def test_hermitian_dimer_eigenvalues(self):
        spec = nhzm.build_reservoir(2, 1.0, 1.0, 0.0)
        h = nhzm.assemble_hamiltonian(spec)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h.matrix)),
                                   [-1.0, 1.0], atol=1e-12)

    def test_row_action_in_reservoir_interior(self):
        spec = nhzm.coupled_chain(2.0)
        h = nhzm.assemble_hamiltonian(spec).matrix
        # acting on a basis vector at an interior reservoir site produces the
        # onsite energy there and the coupling t on both neighbors
        for j in (11, 12, 15):
            col = h @ np.eye(19)[j]
            onsite = spec.sites[j].onsite_real + 1j * spec.sites[j].onsite_imag
            assert col[j] == onsite
            assert col[j - 1] == 1.0 and col[j + 1] == 1.0
            assert np.count_nonzero(col) == 3

    def test_matrix_is_symmetric_tridiagonal_and_frozen(self):
        spec = nhzm.coupled_chain(1.3)
        h = nhzm.assemble_hamiltonian(spec)
        m = h.matrix
        np.testing.assert_array_equal(m, m.T)
        assert not m.flags.writeable
        i, j = np.nonzero(m)
        assert np.all(np.abs(i - j) <= 1)

    def test_coupled_differs_from_block_diagonal_in_two_entries(self):
        system = nhzm.build_ssh_chain(4, 1.0, 0.4)  # even length, ends on B
        reservoir = nhzm.build_reservoir(5, 1.0, 1.0, 1.1, start_sublattice="A")
        coupled = nhzm.assemble_hamiltonian(nhzm.couple(system, reservoir, 0.3))
        block = np.zeros((9, 9), dtype=complex)
        block[:4, :4] = nhzm.assemble_hamiltonian(system).matrix
        block[4:, 4:] = nhzm.assemble_hamiltonian(reservoir).matrix
        diff = coupled.matrix - block
        nz = np.nonzero(diff)
        assert len(nz[0]) == 2
        assert set(diff[nz]) == {0.3}


@st.composite
def chain_specs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    t_a = draw(st.floats(0.1, 3.0))
    t_b = draw(st.floats(0.1, 3.0))
    gamma = draw(st.floats(0.0, 3.0))
    sign = draw(st.sampled_from([+1, -1]))
    start = draw(st.sampled_from(["A", "B"]))
    return nhzm.build_reservoir(n, t_a, t_b, gamma, first_sign=sign,
                                start_sublattice=start)


class TestAssembledEntries:
    @settings(max_examples=60, deadline=None)
    @given(chain_specs())
    def test_matrix_holds_exactly_the_spec_entries(self, spec):
        m = nhzm.assemble_hamiltonian(spec).matrix
        n = spec.n_sites
        bonds = np.zeros(n - 1)
        for c in spec.couplings:
            bonds[c.left] = c.strength
        np.testing.assert_array_equal(np.diagonal(m), spec.onsite_energies())
        np.testing.assert_array_equal(np.diagonal(m, 1), bonds)
        np.testing.assert_array_equal(np.diagonal(m, -1), bonds)
        i, j = np.indices((n, n))
        assert not m[np.abs(i - j) > 1].any()
        np.testing.assert_array_equal(m, m.T)


class TestSpecValidation:
    def test_duplicate_coupling_rejected(self):
        sites = (nhzm.Site(0, 0, "A"), nhzm.Site(0, 0, "B"))
        cs = (nhzm.Coupling(0, 1, 1.0), nhzm.Coupling(0, 1, 2.0))
        with pytest.raises(InvalidSpecError):
            nhzm.LatticeSpec(sites, cs)

    def test_non_adjacent_coupling_rejected(self):
        sites = tuple(nhzm.Site(0, 0, "AB"[i % 2]) for i in range(3))
        with pytest.raises(InvalidSpecError):
            nhzm.LatticeSpec(sites, (nhzm.Coupling(0, 2, 1.0),))

    def test_label_alternation_enforced(self):
        sites = (nhzm.Site(0, 0, "A"), nhzm.Site(0, 0, "A"))
        with pytest.raises(InvalidSpecError):
            nhzm.LatticeSpec(sites, ())

    def test_defect_configuration_places_same_signs_at_junction(self):
        spec = nhzm.coupled_chain(2.0, system_gamma=2.0)
        assert spec.sites[8].onsite_imag == +2.0
        assert spec.sites[9].onsite_imag == +2.0
        # labels still alternate even though the modulation signs do not
        labels = spec.sublattices()
        assert all(labels[i] != labels[i + 1] for i in range(18))
