"""Reference determinants and truncated CI solutions."""

import numpy as np
import pytest

from trotterr.ci import ci_ground_state, excitation_basis, hartree_fock_state
from trotterr.errors import ValidationError
from trotterr.fock import CIVector, SectorBasis, expectation, ground_state
from trotterr.hamiltonian import parse_fcidump
from trotterr.stateprep import cisd_support_dimension
from trotterr.synthetic import random_system

from bruteforce import loop_excitation_states


def _system_with_spin(n_spatial, n_electrons, ms2):
    syst = random_system(np.random.default_rng(0), n_spatial)
    syst.n_electrons, syst.ms2 = n_electrons, ms2
    syst.validate()
    return syst


class TestReference:
    def test_half_filled(self):
        rng = np.random.default_rng(0)
        syst = random_system(rng, 2, n_electrons=2)
        assert hartree_fock_state(syst) == 0b0011

    def test_completely_filled(self):
        rng = np.random.default_rng(0)
        syst = random_system(rng, 2, n_electrons=4)
        assert hartree_fock_state(syst) == 0b1111

    def test_vacuum(self):
        rng = np.random.default_rng(0)
        syst = random_system(rng, 2, n_electrons=0)
        assert hartree_fock_state(syst) == 0

    @pytest.mark.parametrize("n_electrons, ms2", [(3, -1), (3, 1), (4, 2), (2, 2), (5, -3)])
    def test_reference_has_the_system_ms2(self, n_electrons, ms2):
        syst = _system_with_spin(4, n_electrons, ms2)
        ref = hartree_fock_state(syst)
        alpha = bin(ref & 0x55).count("1")  # even spin orbitals
        beta = bin(ref & 0xAA).count("1")
        assert (alpha + beta, alpha - beta) == (n_electrons, ms2)
        # the lowest orbitals of each spin
        assert ref & 0x55 == sum(1 << (2 * i) for i in range(alpha))
        assert ref & 0xAA == sum(1 << (2 * i + 1) for i in range(beta))

    def test_triplet_examples(self):
        syst = _system_with_spin(3, 4, 2)
        assert hartree_fock_state(syst) == 0b010111
        syst = _system_with_spin(3, 3, -1)
        assert hartree_fock_state(syst) == 0b001011

    @pytest.mark.parametrize("n_electrons", range(0, 9))
    def test_lowest_spin_orbitals_when_ms2_is_the_parity(self, n_electrons):
        syst = _system_with_spin(4, n_electrons, n_electrons % 2)
        assert hartree_fock_state(syst) == (1 << n_electrons) - 1

    def test_spin_that_does_not_fit_is_rejected(self):
        syst = _system_with_spin(2, 3, 1)
        syst.ms2 = 3  # three alpha electrons, two alpha orbitals
        with pytest.raises(ValidationError):
            hartree_fock_state(syst)


class TestExcitationBasis:
    def test_level_zero(self):
        basis = excitation_basis(0b0011, 0, 4)
        assert basis.dim == 1 and basis.states[0] == 0b0011

    def test_small_sector_saturates(self):
        basis = excitation_basis(0b0011, 2, 4)
        assert basis.dim == 6
        full = SectorBasis.sector(4, 2)
        assert np.array_equal(basis.states, full.states)

    def test_counts(self):
        for n_orbitals, ref, level, count in (
            (8, 0b0011, 2, 28), (4, 0b0011, 2, 6), (10, 0b1111, 0, 1)
        ):
            assert excitation_basis(ref, level, n_orbitals).dim == count
        assert cisd_support_dimension(8, 2) == 28
        assert cisd_support_dimension(4, 2) == 6

    def test_all_states_in_sector(self):
        basis = excitation_basis(0b00111, 1, 6)
        assert all(int(s).bit_count() == 3 for s in basis.states)

    def test_is_the_combinations_reference(self):
        rng = np.random.default_rng(0)
        for n_orbitals in range(13):
            for n_electrons in range(n_orbitals + 1):
                # the lowest orbitals, and a scattered choice of them
                scattered = rng.choice(n_orbitals, n_electrons, replace=False)
                for reference in (
                    (1 << n_electrons) - 1,
                    sum(1 << int(p) for p in scattered),
                ):
                    for level in range(n_orbitals - n_electrons + 1):
                        got = excitation_basis(reference, level, n_orbitals).states
                        want = loop_excitation_states(reference, level, n_orbitals)
                        assert got.tobytes() == want.tobytes(), (reference, level)

    def test_is_the_sector_filter(self, fixture_dir):
        # the recurrence drops far partial states early; what it keeps is
        # the whole sector filtered by distance from the reference
        rng = np.random.default_rng(5)
        systems = [parse_fcidump(p.read_text()) for p in sorted(fixture_dir.glob("*.fcidump"))]
        cases = [(hartree_fock_state(s), s.n_spin_orbitals) for s in systems]
        for n_orbitals in range(1, 11):
            for _ in range(3):
                n_electrons = int(rng.integers(0, n_orbitals + 1))
                occupied = rng.choice(n_orbitals, n_electrons, replace=False)
                cases.append((sum(1 << int(p) for p in occupied), n_orbitals))
        for reference, n_orbitals in cases:
            sector = SectorBasis.sector(n_orbitals, reference.bit_count()).states
            distance = np.bitwise_count(sector ^ reference)
            for level in range(n_orbitals - reference.bit_count() + 1):
                got = excitation_basis(reference, level, n_orbitals).states
                want = sector[distance <= 2 * level]
                assert got.tobytes() == want.tobytes(), (reference, level)

    def test_does_not_list_the_sector(self, monkeypatch):
        # 40 spin orbitals, 14 electrons: a sector of 23 billion states
        def unreachable(*args):
            raise AssertionError("sector listed")

        monkeypatch.setattr(SectorBasis, "sector", unreachable)
        basis = excitation_basis((1 << 14) - 1, 2, 40)
        assert basis.dim == cisd_support_dimension(40, 14)

    def test_level_out_of_range(self):
        for reference, level, n_orbitals, message in (
            (0b0011, 3, 4, "level 3 exceeds N - n = 2"),
            (0b0011, -1, 4, "level must be >= 0, got -1"),
            (0b00111, 4, 6, "level 4 exceeds N - n = 3"),
            (0b10011, 1, 4, "outside 4 orbitals"),
            (-1, 0, 4, "outside 4 orbitals"),
        ):
            with pytest.raises(ValidationError, match=message):
                excitation_basis(reference, level, n_orbitals)


class TestGroundState:
    def test_level_zero_is_reference_energy(self):
        rng = np.random.default_rng(1)
        syst = random_system(rng, 3, n_electrons=2)
        ref = hartree_fock_state(syst)
        energy, vec = ci_ground_state(syst, 0)
        # the one configuration is the Hartree-Fock determinant
        assert vec.basis.states.tolist() == [ref]
        h = syst.hamiltonian()
        full = SectorBasis.sector(syst.n_spin_orbitals, syst.n_electrons)
        ref_vec = CIVector.unit(full, ref)
        assert energy == pytest.approx(expectation(h, ref_vec), rel=1e-12)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(2)
        syst = random_system(rng, 3, n_electrons=2)
        energies = [
            ci_ground_state(syst, k)[0]
            for k in range(syst.n_spin_orbitals - syst.n_electrons + 1)
        ]
        for lower, higher in zip(energies[1:], energies):
            assert lower <= higher + 1e-12

    def test_full_level_is_fci(self):
        rng = np.random.default_rng(3)
        syst = random_system(rng, 3, n_electrons=2)
        level = syst.n_spin_orbitals - syst.n_electrons
        e_ci, _ = ci_ground_state(syst, level)
        e_fci, _ = ground_state(
            syst.hamiltonian(),
            SectorBasis.sector(syst.n_spin_orbitals, syst.n_electrons),
        )
        assert e_ci == pytest.approx(e_fci, abs=1e-10)

    def test_cisd_exact_for_two_electrons(self, fixture_dir):
        syst = parse_fcidump((fixture_dir / "h2_sto6g_canonical.fcidump").read_text())
        e_cisd, _ = ci_ground_state(syst, 2)
        e_fci, _ = ground_state(
            syst.hamiltonian(), SectorBasis.sector(4, 2)
        )
        assert e_cisd == pytest.approx(e_fci, abs=1e-10)
