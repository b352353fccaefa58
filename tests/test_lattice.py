import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhzm
from nhzm.errors import EigensolverError, InvalidSpecError


class TestBuildSshChain:
    def test_single_site_has_no_couplings(self):
        spec = nhzm.build_ssh_chain(1, 1.0, 0.2)
        assert spec.n_sites == 1
        assert spec.bonds.shape == (0,)

    def test_nine_site_chain_alternates_starting_with_t_a(self):
        spec = nhzm.build_ssh_chain(9, 1.0, 0.2)
        assert spec.bonds.tolist() == [1.0, 0.2, 1.0, 0.2, 1.0, 0.2, 1.0, 0.2]
        assert not spec.onsite.imag.any()

    def test_three_site_coupling_list(self):
        spec = nhzm.build_ssh_chain(3, 1.0, 0.5)
        assert spec.bonds.tolist() == [1.0, 0.5]
        assert spec.sublattices() == ("A", "B", "A")

    @pytest.mark.parametrize("args", [(0, 1.0, 0.2), (3, 0.0, 0.2), (3, 1.0, -1.0)])
    def test_invalid_arguments_raise(self, args):
        with pytest.raises(InvalidSpecError):
            nhzm.build_ssh_chain(*args)


class TestBuildReservoir:
    def test_uniform_reservoir_alternates_gain_loss(self):
        spec = nhzm.build_reservoir(10, 1.0, 1.0, 2.0)
        assert spec.onsite.imag.tolist() == [2.0, -2.0] * 5
        assert spec.reservoir_gamma() == 2.0
        assert spec.reservoir_couplings() == (1.0, 1.0)

    def test_hermitian_dimer_is_gamma_zero_limit(self):
        spec = nhzm.build_reservoir(2, 1.0, 1.0, 0.0)
        assert spec.onsite.imag.tolist() == [0.0, 0.0]
        assert spec.reservoir_gamma() == 0.0

    def test_alternating_coupling_reservoir(self):
        spec = nhzm.build_reservoir(4, 1.0, 0.5, 1.0)
        assert spec.bonds.tolist() == [1.0, 0.5, 1.0]
        assert spec.reservoir_couplings() == (1.0, 0.5)

    def test_first_sign_controls_leading_site(self):
        spec = nhzm.build_reservoir(4, 1.0, 1.0, 1.5, first_sign=-1)
        assert spec.onsite[0].imag == -1.5
        assert spec.onsite[1].imag == +1.5

    def test_invalid_reservoir_raises_on_every_call(self):
        # the parameters are derived once per spec, but a failed derivation
        # is not remembered as a value
        spec = nhzm.LatticeSpec(1j * np.array([1.0, 1.0, -1.0, 1.0]),
                                [1.0, 0.5, 0.7])
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
        # == and hash read the partition, the label and the array bytes
        same = nhzm.LatticeSpec(spec.onsite, spec.bonds, "B", partition=9)
        assert spec == same and hash(spec) == hash(same)
        assert len({spec, twin, same}) == 1
        for other in (nhzm.coupled_chain(2.5),
                      nhzm.LatticeSpec(spec.onsite, spec.bonds, "A", 9),
                      nhzm.LatticeSpec(spec.onsite, spec.bonds, "B", 10),
                      nhzm.LatticeSpec(spec.onsite, spec.bonds, "B")):
            assert spec != other
        assert spec != "not a spec"


class TestCouple:
    def test_default_chain_matches_expected_shape(self):
        spec = nhzm.coupled_chain(2.0)
        assert spec.n_sites == 19
        assert spec.partition == 9
        assert len(spec.bonds) == 9 + 10 - 1
        assert spec.bonds[8] == 0.2
        # gain on the reservoir site adjacent to the junction, labeled A
        assert spec.sublattice(9) == "A"
        assert spec.onsite[9].imag == +2.0

    def test_coupling_count_is_sum_minus_one(self):
        system = nhzm.build_ssh_chain(5, 1.0, 0.3)
        reservoir = nhzm.build_reservoir(6, 1.0, 1.0, 0.7, start_sublattice="B")
        coupled = nhzm.couple(system, reservoir, 0.4)
        assert len(coupled.bonds) == 5 + 6 - 1
        assert coupled.bonds[4] == 0.4
        assert coupled.sublattices() == tuple("ABABABABABA")

    def test_strong_coupling_spec(self):
        spec = nhzm.coupled_chain(2.0, t_prime=0.6)
        assert spec.bonds[8] == 0.6

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
            assert col[j] == spec.onsite[j]
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

    def test_refused_beyond_the_dense_limit(self, monkeypatch):
        # the lowered limit stands in for a 2e5-site chain, whose matrix
        # would need 596 GiB
        spec = nhzm.coupled_chain(2.0)
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", spec.n_sites - 1)
        with pytest.raises(EigensolverError, match="19-site chain is too long"):
            nhzm.assemble_hamiltonian(spec)
        monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", spec.n_sites)
        assert nhzm.assemble_hamiltonian(spec).dim == spec.n_sites


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
        np.testing.assert_array_equal(np.diagonal(m), spec.onsite)
        np.testing.assert_array_equal(np.diagonal(m, 1), spec.bonds)
        np.testing.assert_array_equal(np.diagonal(m, -1), spec.bonds)
        i, j = np.indices((n, n))
        assert not m[np.abs(i - j) > 1].any()
        np.testing.assert_array_equal(m, m.T)


class TestSpecValidation:
    @pytest.mark.parametrize("onsite,bonds", [
        ([], []),                      # no site
        ([[0.0, 0.0]], []),            # not 1-D
        ([0.0, 0.0], []),              # one bond short
        ([0.0, 0.0], [1.0, 1.0]),      # one bond too many
        ([0.0, 0.0], [0.0]),           # uncoupled neighbours
        ([0.0, 0.0], [-1.0]),          # negative bond
    ])
    def test_malformed_arrays_rejected(self, onsite, bonds):
        with pytest.raises(InvalidSpecError):
            nhzm.LatticeSpec(onsite, bonds)

    @pytest.mark.parametrize("onsite,bonds", [
        ([0.0, complex(0.0, np.nan)], [1.0]),
        ([np.inf, 0.0], [1.0]),
        ([0.0, 0.0], [np.nan]),
        ([0.0, 0.0], [np.inf]),
    ])
    def test_non_finite_entries_rejected(self, onsite, bonds):
        with pytest.raises(InvalidSpecError, match="finite"):
            nhzm.LatticeSpec(onsite, bonds)

    def test_builders_reject_non_finite_gamma(self):
        with pytest.raises(InvalidSpecError, match="finite"):
            nhzm.coupled_chain(float("nan"), n_reservoir=100)
        with pytest.raises(InvalidSpecError, match="finite"):
            nhzm.build_reservoir(4, 1.0, 1.0, float("inf"))

    @pytest.mark.parametrize("kwargs", [{"first_sublattice": "C"},
                                        {"partition": 0}, {"partition": 3}])
    def test_label_and_partition_checked(self, kwargs):
        with pytest.raises(InvalidSpecError):
            nhzm.LatticeSpec([0.0, 0.0, 0.0], [1.0, 1.0], **kwargs)

    def test_labels_follow_parity_of_the_first(self):
        spec = nhzm.LatticeSpec([0.0] * 4, [1.0] * 3, first_sublattice="B")
        assert spec.sublattices() == ("B", "A", "B", "A")
        assert [spec.sublattice(j) for j in range(4)] == list("BABA")

    def test_defect_configuration_places_same_signs_at_junction(self):
        spec = nhzm.coupled_chain(2.0, system_gamma=2.0)
        assert spec.onsite[8].imag == +2.0
        assert spec.onsite[9].imag == +2.0
        # labels still alternate even though the modulation signs do not
        labels = spec.sublattices()
        assert all(labels[i] != labels[i + 1] for i in range(18))


def old_style_arrays(gamma, n_system=9, system_gamma=0.0,
                     reservoir_onsite=0.0):
    """``coupled_chain``'s arrays built one site at a time, as Site objects did.

    Each site's energy is ``onsite_real + 1j * onsite_imag`` on Python
    scalars, with the signed zero that ``sign * gamma`` gives at gamma = 0.
    """
    sites = []
    for i in range(n_system):
        sign = +1 if (n_system - 1 - i) % 2 == 0 else -1
        sites.append((0.0, sign * system_gamma if system_gamma else 0.0))
    for j in range(10):
        sites.append((reservoir_onsite, (-1) ** j * gamma))
    bonds = [1.0 if i % 2 == 0 else 0.2 for i in range(n_system - 1)] \
        + [0.2] + [1.0] * 9
    return (np.array([re + 1j * im for re, im in sites], dtype=complex),
            np.array(bonds))


class TestArrayValues:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": 2.0}, {"gamma": 2.0, "system_gamma": 2.0},
        {"gamma": 2.0, "system_gamma": 1.5, "n_system": 7},
        {"gamma": 0.0, "reservoir_onsite": 0.3},
        {"gamma": 2.0, "reservoir_onsite": -0.4},
    ])
    def test_coupled_chain_matches_per_site_reference(self, kwargs):
        spec = nhzm.coupled_chain(**kwargs)
        onsite, bonds = old_style_arrays(**kwargs)
        assert spec.onsite.tobytes() == onsite.tobytes()
        assert spec.bonds.tobytes() == bonds.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_reservoir_first_sign_matches_per_site_reference(self, gamma):
        spec = nhzm.build_reservoir(7, 1.0, 0.5, gamma, first_sign=-1)
        onsite = np.array([0.0 + 1j * (-1 * (-1) ** j * gamma)
                           for j in range(7)], dtype=complex)
        assert spec.onsite.tobytes() == onsite.tobytes()
        assert spec.bonds.tolist() == [1.0, 0.5, 1.0, 0.5, 1.0, 0.5]

    def test_arrays_are_read_only_copies(self):
        onsite = np.array([0.0, 1j, 0.0])
        bonds = np.array([1.0, 1.0])
        spec = nhzm.LatticeSpec(onsite, bonds)
        twin = nhzm.LatticeSpec(onsite, bonds)
        onsite[1] = 5.0
        bonds[0] = 7.0
        assert spec.onsite[1] == 1j and spec.bonds[0] == 1.0
        assert spec == twin
        for arr in (spec.onsite, spec.bonds):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_million_site_chain_is_built_as_arrays():
    tracemalloc.start()
    try:
        spec = nhzm.coupled_chain(2.0, n_reservoir=10**6)
        assert spec.reservoir_gamma() == 2.0
        assert spec.reservoir_couplings() == (1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.n_sites == 10**6 + 9
    assert peak < 128e6
