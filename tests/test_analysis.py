"""Report pipeline, marginals, ansatz corrections, and power-law fits."""

import json
import math

import numpy as np
import pytest

from bruteforce import loop_orbital_marginals
from trotterr.analysis import (
    ErrorAnalysisReport,
    PowerLawFit,
    analyze,
    embed_in_sector,
    fit_power_law,
    marginals_csv,
    orbital_marginals,
    spectrum_csv,
)
from trotterr.ci import hartree_fock_state
from trotterr.errors import NumericalError, ValidationError
from trotterr.fermion import NormalOrderedOperator
from trotterr.fock import (
    CIVector,
    SectorBasis,
    expectation,
    full_spectrum,
    ground_state,
)
from trotterr.hamiltonian import GRANULARITIES, build_trotter_sequence, load_fcidump
from trotterr.synthetic import random_system
from trotterr.trotter import ErrorOperator, build_error_operator


def synthetic_error(op: NormalOrderedOperator, n_orbitals: int) -> ErrorOperator:
    return ErrorOperator(
        op=op,
        delta_t=1.0,
        ordering_label="synthetic",
        n_fragments=0,
        n_spin_orbitals=n_orbitals,
    )


@pytest.fixture(scope="module")
def h2_local(fixture_dir):
    return load_fcidump(
        fixture_dir / "h2_sto6g_local.fcidump", orbital_kind="local"
    )


@pytest.fixture(scope="module")
def h2_error(h2_local):
    return build_error_operator(build_trotter_sequence(h2_local), 1.0)


@pytest.fixture(scope="module")
def h2_report(h2_local):
    return analyze(h2_local)


# ---------------------------------------------------------------------------
# Power-law fitting.
# ---------------------------------------------------------------------------


class TestFitPowerLaw:
    def test_exact_sixth_power(self):
        fit = fit_power_law([(x, x**6) for x in range(2, 11)])
        assert fit.exponent == pytest.approx(6.0, abs=1e-10)
        assert fit.prefactor == pytest.approx(1.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_recovered(self):
        fit = fit_power_law([(x, 3.0 * x**2) for x in (1.0, 2.0, 4.0, 8.0)])
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)

    def test_noisy_sixth_power_over_seeded_trials(self):
        # the acceptance envelope, run in full: +-20% multiplicative noise
        for seed in range(100):
            rng = np.random.default_rng(seed)
            points = [
                (z, 0.7 * z**6 * (1.0 + rng.uniform(-0.2, 0.2)))
                for z in range(1, 10)
            ]
            fit = fit_power_law(points)
            assert 5.5 <= fit.exponent <= 6.5
            assert fit.r_squared > 0.98

    def test_constant_data_is_a_perfect_flat_fit(self):
        fit = fit_power_law([(1.0, 5.0), (2.0, 5.0), (4.0, 5.0)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_rejects_short_or_nonpositive_input(self):
        with pytest.raises(ValidationError):
            fit_power_law([(1.0, 1.0), (2.0, 4.0)])
        with pytest.raises(ValidationError):
            fit_power_law([(1.0, 1.0), (2.0, 4.0), (3.0, -9.0)])
        with pytest.raises(ValidationError):
            fit_power_law([(0.0, 1.0), (2.0, 4.0), (3.0, 9.0)])

    def test_rejects_degenerate_x(self):
        with pytest.raises(NumericalError):
            fit_power_law([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])

    def test_result_unpacks_as_tuple(self):
        exponent, prefactor, r2 = fit_power_law([(x, x**3) for x in (1, 2, 3)])
        assert exponent == pytest.approx(3.0)
        assert isinstance(
            fit_power_law([(x, x**3) for x in (1, 2, 3)]), PowerLawFit
        )


# ---------------------------------------------------------------------------
# Orbital marginals and the spectral concentration statistic.
# ---------------------------------------------------------------------------


class TestOrbitalMarginals:
    def test_zero_operator(self):
        mat = orbital_marginals(synthetic_error(NormalOrderedOperator.zero(), 3))
        assert mat.shape == (3, 3)
        assert not mat.any()

    def test_single_hopping_term(self):
        op = NormalOrderedOperator.from_key(((1,), (3,)), -0.25)
        mat = orbital_marginals(synthetic_error(op, 4))
        expected = np.zeros((4, 4))
        expected[1, 3] = expected[3, 1] = 0.25
        assert np.array_equal(mat, expected)

    def test_number_term_hits_the_diagonal(self):
        op = NormalOrderedOperator.from_key(((2,), (2,)), 0.5)
        mat = orbital_marginals(synthetic_error(op, 3))
        expected = np.zeros((3, 3))
        expected[2, 2] = 0.5
        assert np.array_equal(mat, expected)

    def test_multi_orbital_term_marginalizes_with_multiplicity(self):
        # ladder multiset {3, 1, 2, 1}: orbital 1 twice, 2 and 3 once
        op = NormalOrderedOperator.from_key(((3, 1), (2, 1)), -2.0)
        mat = orbital_marginals(synthetic_error(op, 4))
        expected = np.zeros((4, 4))
        expected[1, 1] = 2.0
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            expected[i, j] = expected[j, i] = 2.0
        assert np.array_equal(mat, expected)

    def test_scalar_term_contributes_nowhere(self):
        op = NormalOrderedOperator.identity(3.0)
        assert not orbital_marginals(synthetic_error(op, 2)).any()

    def test_fixture_marginals_conserve_magnitude(self, h2_error):
        mat = orbital_marginals(h2_error)
        assert mat.shape == (4, 4)
        assert np.array_equal(mat, mat.T)
        assert (mat >= 0.0).all()
        # every non-scalar term lands in at least one unordered bin
        upper = float(np.triu(mat).sum())
        nonscalar = sum(
            abs(c) for k, c in h2_error.op.terms.items() if k != ((), ())
        )
        assert upper >= nonscalar - 1e-12

    def test_rejects_undersized_matrix(self):
        op = NormalOrderedOperator.from_key(((3,), (3,)), 1.0)
        with pytest.raises(ValidationError, match="touches orbital 3"):
            orbital_marginals(synthetic_error(op, 2))

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize(
        "name",
        ["h2_sto6g_canonical", "h2_sto6g_local", "h2_sto6g_natural", "h4_sto6g_local"]
        + [f"random-{n}" for n in range(1, 6)],
    )
    def test_matches_term_loop_bit_for_bit(self, fixture_dir, name, granularity):
        if name.startswith("random"):
            n = int(name.split("-")[1])
            syst = random_system(np.random.default_rng(n), n)
        else:
            syst = load_fcidump(fixture_dir / f"{name}.fcidump")
        seq = build_trotter_sequence(syst, granularity=granularity)
        error = build_error_operator(seq, 1.0)
        want = loop_orbital_marginals(error.op, syst.n_spin_orbitals)
        assert orbital_marginals(error).tobytes() == want.tobytes()


class TestNearZeroFraction:
    def test_fixture_error_spectrum_peaks_near_zero(self, h2_local, h2_error):
        basis = SectorBasis.sector(
            h2_local.n_spin_orbitals, h2_local.n_electrons
        )
        spectrum = full_spectrum(h2_error.op, basis)
        # a uniform spectrum has a tenth of its eigenvalues within a tenth
        # of the spectral radius of zero
        frac = np.mean(np.abs(spectrum) <= 0.1 * np.max(np.abs(spectrum)))
        assert frac > 2 * 0.1


# ---------------------------------------------------------------------------
# Ansatz errors.
# ---------------------------------------------------------------------------


class TestAnsatzError:
    """The report's per-level ``ansatz_error`` against direct expectations."""

    def test_fci_level_reproduces_exact_error(self, h2_local, h2_error, h2_report):
        basis = SectorBasis.sector(
            h2_local.n_spin_orbitals, h2_local.n_electrons
        )
        _, psi0 = ground_state(h2_local.hamiltonian(), basis)
        exact = expectation(h2_error.op, psi0)
        level = h2_report.ci_results[2]
        assert level.level == 2
        assert level.ansatz_error == pytest.approx(exact, abs=1e-10)

    def test_reference_level_is_a_determinant_expectation(
        self, h2_local, h2_error, h2_report
    ):
        ref = hartree_fock_state(h2_local)
        basis = SectorBasis.sector(
            h2_local.n_spin_orbitals, h2_local.n_electrons
        )
        direct = expectation(h2_error.op, CIVector.unit(basis, ref))
        level = h2_report.ci_results[0]
        assert level.level == 0
        assert level.ansatz_error == pytest.approx(direct, abs=1e-12)

    def test_embed_preserves_amplitudes_and_expectations(self, h2_local, h2_error):
        sector = SectorBasis.sector(4, 2)
        sub = SectorBasis(4, 2, np.sort([0b0011, 0b1100]))
        vec = CIVector(sub, np.array([0.6, 0.8]))
        padded = embed_in_sector(vec, sector)
        assert padded.basis is sector
        assert padded.norm() == pytest.approx(1.0)
        assert padded.amplitudes[sector.index_of(0b0011)] == 0.6
        assert padded.amplitudes[sector.index_of(0b1100)] == 0.8
        assert np.count_nonzero(padded.amplitudes) == 2

    def test_embed_rejects_state_outside_sector(self):
        sector = SectorBasis(4, 2, np.sort([0b0011, 0b0101, 0b1100]))
        vec = CIVector(SectorBasis(4, 2, np.sort([0b0011, 0b1010])), np.ones(2))
        with pytest.raises(ValidationError, match="1010 not in basis"):
            embed_in_sector(vec, sector)
        past_the_end = CIVector(SectorBasis(4, 2, np.sort([0b1100])), np.ones(1))
        embed_in_sector(past_the_end, sector)
        with pytest.raises(ValidationError):
            embed_in_sector(past_the_end, SectorBasis(4, 2, np.sort([0b0011])))


# ---------------------------------------------------------------------------
# The analyze pipeline.
# ---------------------------------------------------------------------------


class TestAnalyze:
    def test_report_metadata(self, h2_report):
        assert h2_report.schema_version == 1
        assert h2_report.molecule == "h2_sto6g_local"
        assert h2_report.orbital_kind == "local"
        assert h2_report.n_spin_orbitals == 4
        assert h2_report.n_electrons == 2
        assert h2_report.space == "sector"
        assert h2_report.ordering_label == "diagonal-first-lexicographic/integral"
        assert h2_report.delta_t == 1.0

    def test_rayleigh_bound(self, h2_report):
        assert 0.0 <= h2_report.ratio <= 1.0
        assert h2_report.ground_state_error <= h2_report.spectral_norm

    def test_ci_hierarchy_embedded(self, h2_report):
        levels = [c.level for c in h2_report.ci_results]
        assert levels == [0, 1, 2]
        energies = [c.energy for c in h2_report.ci_results]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))
        # two electrons: doubles space is the full sector
        fci = h2_report.ci_results[-1]
        assert fci.subspace_dim == 6
        assert fci.energy == pytest.approx(h2_report.ground_state_energy, abs=1e-10)
        assert fci.residual_fraction == pytest.approx(0.0, abs=1e-9)

    def test_trotter_number_consistent(self, h2_report):
        expected = max(
            1,
            math.ceil(
                h2_report.evolution_time
                * math.sqrt(h2_report.ground_state_error / h2_report.target_delta)
            ),
        )
        assert h2_report.recommended_trotter_number == expected

    def test_json_round_trip_and_determinism(self, h2_local, h2_report):
        text = h2_report.to_json()
        again = analyze(h2_local).to_json()
        assert text == again
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert payload["ratio"] == h2_report.ratio
        assert payload["ci_results"][2]["residual_fraction"] < 1e-9

    def test_full_space_switch(self, h2_local):
        rep = analyze(h2_local, space="full", ci_levels=())
        assert rep.space == "full"
        assert 0.0 <= rep.ratio <= 1.0
        assert not rep.ci_results

    def test_explicit_options_recorded(self, h2_local):
        rep = analyze(
            h2_local,
            delta_t=0.5,
            ordering="magnitude-descending",
            ci_levels=(0,),
            evolution_time=2.0,
            target_delta=1e-2,
            seeds=(7, 11),
            source_sha256="abc123",
        )
        assert rep.delta_t == 0.5
        assert rep.ordering_label == "diagonal-first-magnitude-descending/integral"
        assert [c.level for c in rep.ci_results] == [0]
        assert rep.seeds == (7, 11)
        assert rep.source_sha256 == "abc123"

    def test_ratio_is_step_size_invariant(self, h2_local, h2_report):
        # every error coefficient scales by delta_t^2, so the ratio cancels
        halved = analyze(h2_local, delta_t=0.5, ci_levels=())
        assert halved.ratio == pytest.approx(h2_report.ratio, rel=1e-9)
        assert halved.spectral_norm == pytest.approx(
            0.25 * h2_report.spectral_norm, rel=1e-9
        )

    def test_fully_filled_sector_has_one_configuration(self):
        rng = np.random.default_rng(5)
        system = random_system(rng, 2, n_electrons=4)
        rep = analyze(system)
        assert rep.ci_results[0].subspace_dim == 1
        assert rep.ground_state_error <= rep.spectral_norm + 1e-15

    @pytest.mark.parametrize("space, bases", [("sector", [6]), ("full", [16, 6])])
    def test_error_table_built_once_per_basis(self, h2_local, h2_error, monkeypatch, space, bases):
        import trotterr.fock

        built = []
        original = trotterr.fock._action_table

        def recording(op, basis):
            if np.array_equal(op.val, h2_error.op.val):
                built.append(basis.dim)
            return original(op, basis)

        monkeypatch.setattr(trotterr.fock, "_action_table", recording)
        rep = analyze(h2_local, space=space)
        assert len(rep.ci_results) == 3
        assert built == bases

    def test_stage_labels_in_errors(self, h2_local):
        with pytest.raises(ValidationError, match="fragment sequence"):
            analyze(h2_local, ordering="no-such-ordering")
        with pytest.raises(ValidationError):
            analyze(h2_local, space="nowhere")

    def test_ci_levels_need_the_parity_ms2(self):
        # a triplet reference against the whole-sector ground state would mix spins
        system = random_system(np.random.default_rng(5), 3)
        system.ms2 = 2
        system.validate()
        with pytest.raises(ValidationError, match="MS2=2"):
            analyze(system)
        assert analyze(system, ci_levels=()).ci_results == ()

    def test_requested_infeasible_level_propagates(self, h2_local):
        # N - n = 2, so triples are not constructible for this system
        with pytest.raises(ValidationError, match="CI level 3"):
            analyze(h2_local, ci_levels=(3,))


# ---------------------------------------------------------------------------
# CSV renderings.
# ---------------------------------------------------------------------------


class TestCsv:
    def test_marginals_csv_shape(self, h2_error):
        text = marginals_csv(orbital_marginals(h2_error))
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 5
        parsed = [[float(v) for v in row.split(",")] for row in lines[1:]]
        assert np.allclose(parsed, orbital_marginals(h2_error))

    def test_marginals_csv_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            marginals_csv(np.zeros((2, 3)))

    def test_spectrum_csv_ascending(self):
        text = spectrum_csv(np.array([0.5, -1.5, 0.0]))
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert [float(v) for v in lines[1:]] == [-1.5, 0.0, 0.5]

    def test_csv_values_round_trip_exactly(self):
        values = np.array([1 / 3, -2 / 7, 1e-17])
        parsed = [
            float(line)
            for line in spectrum_csv(values).strip().split("\n")[1:]
        ]
        assert sorted(values.tolist()) == parsed
