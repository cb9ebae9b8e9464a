"""Occupation-basis machinery against the dense brute-force oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trotterr.ci import excitation_basis, hartree_fock_state
from trotterr import fermion
from trotterr.errors import NumericalError, ResourceLimitError, ValidationError
from trotterr.fermion import (
    LadderTerm,
    NormalOrderedOperator,
    ann,
    cre,
    normal_order,
    number_operator,
)
from trotterr.fock import (
    DENSE_LIMIT,
    CIVector,
    RestrictedOperator,
    SectorBasis,
    apply,
    expectation,
    full_spectrum,
    ground_state,
    spectral_norm,
    to_dense,
)
from trotterr.hamiltonian import build_trotter_sequence, load_fcidump
from trotterr.synthetic import random_system
from trotterr.trotter import build_error_operator

from bruteforce import (
    combinations_sector,
    concatenated_table,
    dense_operator,
    per_term_apply,
    per_term_dense,
    source_count_formula,
)


def op_strings(n_orbitals=4, max_len=5):
    ladder = st.tuples(
        st.integers(min_value=0, max_value=n_orbitals - 1), st.booleans()
    ).map(lambda t: cre(t[0]) if t[1] else ann(t[0]))
    return st.tuples(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).filter(
            lambda x: abs(x) > 1e-6
        ),
        st.lists(ladder, min_size=0, max_size=max_len).map(tuple),
    ).map(lambda t: LadderTerm(*t))


def random_conserving(rng, n_orbitals=4, n_terms=5, max_half=2):
    """Random particle-number-conserving operator with canonical keys."""
    op = NormalOrderedOperator.zero()
    for _ in range(n_terms):
        k = int(rng.integers(0, max_half + 1))
        c = tuple(sorted(rng.choice(n_orbitals, size=k, replace=False), reverse=True))
        a = tuple(sorted(rng.choice(n_orbitals, size=k, replace=False), reverse=True))
        op = op + NormalOrderedOperator.from_key(
            (tuple(int(p) for p in c), tuple(int(p) for p in a)),
            float(rng.normal()),
        )
    return op


def random_hermitian_conserving(rng, n_orbitals=4, n_terms=5):
    op = random_conserving(rng, n_orbitals, n_terms)
    return op + op.adjoint()


def probe_vector(dim: int) -> np.ndarray:
    # deterministic, no zeros, no special structure
    return np.sin(np.arange(1, dim + 1, dtype=float))


# ---------------------------------------------------------------------------
# Basis construction.
# ---------------------------------------------------------------------------


class TestSectorBasis:
    def test_full_space_enumerates_all_masks(self):
        basis = SectorBasis.full(3)
        assert basis.dim == 8
        assert basis.n_electrons is None
        assert list(basis.states) == list(range(8))

    def test_sector_enumerates_fixed_occupation(self):
        basis = SectorBasis.sector(6, 2)
        assert basis.dim == math.comb(6, 2)
        assert all(int(s).bit_count() == 2 for s in basis.states)
        assert list(basis.states) == sorted(basis.states)

    def test_sector_is_the_combinations_reference(self):
        for n_orbitals in range(15):
            for n_electrons in range(n_orbitals + 1):
                got = SectorBasis.sector(n_orbitals, n_electrons).states
                want = combinations_sector(n_orbitals, n_electrons)
                assert got.tobytes() == want.tobytes(), (n_orbitals, n_electrons)

    @pytest.mark.parametrize("n_electrons", [-1, 5])
    def test_sector_rejects_electrons_outside_the_orbitals(self, n_electrons):
        message = rf"n_electrons {n_electrons} outside \[0, 4\]"
        with pytest.raises(ValidationError, match=message):
            SectorBasis.sector(4, n_electrons)

    def test_index_of_roundtrip(self):
        basis = SectorBasis.sector(5, 3)
        for i, s in enumerate(basis.states):
            assert basis.index_of(int(s)) == i

    def test_index_of_rejects_missing_state(self):
        basis = SectorBasis.sector(4, 2)
        with pytest.raises(ValidationError):
            basis.index_of(0b0001)

    def test_subset_sorts_input(self):
        # a subset basis takes its states sorted; the caller sorts them
        with pytest.raises(ValidationError, match="sorted"):
            SectorBasis(4, 2, np.array([0b1100, 0b0011]))
        basis = SectorBasis(4, 2, np.sort([0b1100, 0b0011]))
        assert list(basis.states) == [0b0011, 0b1100]

    def test_rejects_bad_states(self):
        with pytest.raises(ValidationError):
            SectorBasis(4, None, np.array([], dtype=np.int64))
        with pytest.raises(ValidationError):
            SectorBasis(4, None, np.array([3, 3]))
        with pytest.raises(ValidationError):
            SectorBasis(4, None, np.array([2, 1]))
        with pytest.raises(ValidationError):
            SectorBasis(2, None, np.array([0, 4]))
        with pytest.raises(ValidationError):
            SectorBasis(4, 5, np.array([0b1111]))
        with pytest.raises(ValidationError):
            # occupation does not match the declared sector
            SectorBasis(4, 2, np.array([0b0111]))

    def test_repr_names_the_sector(self):
        assert "n=2" in repr(SectorBasis.sector(4, 2))
        assert "full" in repr(SectorBasis.full(2))


class TestCIVector:
    def test_unit_vector(self):
        basis = SectorBasis.sector(4, 2)
        v = CIVector.unit(basis, 0b0101)
        assert v.norm() == 1.0
        assert v.amplitudes[basis.index_of(0b0101)] == 1.0
        assert np.count_nonzero(v.amplitudes) == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CIVector(SectorBasis.full(2), np.ones(3))

    def test_norm_and_dot(self):
        basis = SectorBasis.full(2)
        v = CIVector(basis, [3.0, 0.0, 4.0, 0.0])
        w = CIVector(basis, [1.0, 1.0, 1.0, 1.0])
        assert v.norm() == 5.0
        assert v.dot(w) == 7.0
        assert v.normalized().norm() == pytest.approx(1.0)

    def test_normalizing_zero_rejected(self):
        with pytest.raises(ValidationError):
            CIVector(SectorBasis.full(2), np.zeros(4)).normalized()


# ---------------------------------------------------------------------------
# Matrix-free application against explicit matrices.
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(op_strings())
def test_apply_matches_dense_on_full_space(term):
    op = normal_order(term)
    basis = SectorBasis.full(4)
    v = probe_vector(basis.dim)
    got = apply(op, CIVector(basis, v)).amplitudes
    assert np.allclose(got, dense_operator(4, op) @ v, atol=1e-10)
    # particle number need not be conserved here
    _assert_matches_per_term(op, basis, term)


def test_apply_matches_dense_on_sector():
    rng = np.random.default_rng(7)
    for _ in range(25):
        op = random_conserving(rng, n_orbitals=5)
        basis = SectorBasis.sector(5, 2)
        idx = np.asarray(basis.states)
        block = dense_operator(5, op)[np.ix_(idx, idx)]
        v = probe_vector(basis.dim)
        got = apply(op, CIVector(basis, v)).amplitudes
        assert np.allclose(got, block @ v, atol=1e-10)


def test_apply_on_subset_is_the_projected_operator():
    # components leading out of the span are dropped, which is P H P
    rng = np.random.default_rng(3)
    op = random_hermitian_conserving(rng, n_orbitals=4)
    keep = [0b0011, 0b0110, 0b1100]
    basis = SectorBasis(4, 2, np.sort(keep))
    block = dense_operator(4, op)[np.ix_(keep, keep)]
    v = probe_vector(3)
    got = apply(op, CIVector(basis, v)).amplitudes
    assert np.allclose(got, block @ v, atol=1e-10)


def test_apply_rejects_operator_outside_orbital_range():
    op = NormalOrderedOperator.from_key(((5,), (5,)), 1.0)
    basis = SectorBasis.full(4)
    with pytest.raises(ValidationError):
        apply(op, CIVector(basis, np.ones(basis.dim)))


def test_sector_basis_rejects_nonconserving_operator():
    op = normal_order(LadderTerm(1.0, (cre(2),)))
    basis = SectorBasis.sector(4, 2)
    with pytest.raises(ValidationError):
        apply(op, CIVector(basis, np.ones(basis.dim)))
    # the same operator is fine on the full space
    full = SectorBasis.full(4)
    apply(op, CIVector(full, np.ones(full.dim)))


def test_to_dense_matches_bruteforce():
    rng = np.random.default_rng(19)
    full = SectorBasis.full(4)
    sector = SectorBasis.sector(4, 2)
    idx = np.asarray(sector.states)
    for _ in range(20):
        op = random_conserving(rng, n_orbitals=4)
        ref = dense_operator(4, op)
        assert np.allclose(to_dense(op, full), ref, atol=1e-12)
        assert np.allclose(to_dense(op, sector), ref[np.ix_(idx, idx)], atol=1e-12)


# ---------------------------------------------------------------------------
# The term-action table against the per-term reference, bit for bit.
# ---------------------------------------------------------------------------

FIXTURES = ("h2_sto6g_local", "h2_sto6g_canonical", "h2_sto6g_natural", "h4_sto6g_local")
RANDOM = tuple(f"random n={n}" for n in range(1, 6))


def _system(fixture_dir, name):
    if name in RANDOM:
        n_spatial = int(name.rsplit("=", 1)[1])
        return random_system(np.random.default_rng(n_spatial), n_spatial)
    kind = name.rsplit("_", 1)[1]
    return load_fcidump(fixture_dir / f"{name}.fcidump", orbital_kind=kind)


def _systems(fixture_dir):
    for name in (*FIXTURES, *RANDOM[:4]):
        yield name, _system(fixture_dir, name)


def _bases(system):
    n = system.n_spin_orbitals
    yield SectorBasis.full(n)
    yield SectorBasis.sector(n, system.n_electrons)
    # singles around the reference: H and V lead out of it, so the images
    # outside the basis must be projected away
    if 0 < system.n_electrons < n:
        yield excitation_basis(hartree_fock_state(system), 1, n)


def _assert_matches_per_term(op, basis, label):
    v = probe_vector(basis.dim)
    got = apply(op, CIVector(basis, v)).amplitudes
    assert np.array_equal(got, per_term_apply(op, basis, v)), label
    assert np.array_equal(to_dense(op, basis), per_term_dense(op, basis)), label


def test_term_actions_equal_per_term_reference(fixture_dir):
    for name, system in _systems(fixture_dir):
        error = build_error_operator(build_trotter_sequence(system), 1.0)
        for basis in _bases(system):
            for op in (system.hamiltonian(), error.op):
                _assert_matches_per_term(op, basis, (name, basis))


@pytest.mark.parametrize("name", [*FIXTURES, *RANDOM])
def test_sliced_table_is_the_concatenated_reference(fixture_dir, name):
    # a budget of a few cells cuts the table build into chunks of one or a
    # few terms and apply and dense into many slices; the preallocated
    # int32 table must still give the bits of one unsliced int64 table
    system = _system(fixture_dir, name)
    error = build_error_operator(build_trotter_sequence(system), 1.0)
    with mock.patch.object(fermion, "_CELL_BUDGET", 5):
        for basis in _bases(system):
            complete = basis.n_electrons is None or basis.dim == math.comb(
                basis.n_orbitals, basis.n_electrons
            )
            for op in (system.hamiltonian(), error.op):
                label = (name, basis, len(op))
                restricted = RestrictedOperator(op, basis)
                rows, cols, vals = restricted._table
                assert rows.dtype == cols.dtype == np.int32, label
                want, want_apply, want_dense = concatenated_table(op, basis)
                for got, ref in zip((rows, cols, vals), want):
                    assert np.array_equal(got, ref), label
                count = source_count_formula(op, basis)
                assert len(vals) == count if complete else len(vals) <= count, label
                v = probe_vector(basis.dim)
                assert restricted.apply(v).tobytes() == want_apply(v).tobytes(), label
                assert restricted.dense().tobytes() == want_dense().tobytes(), label


@pytest.mark.parametrize("solver", ["dense", "lanczos"])
@pytest.mark.parametrize("name", FIXTURES)
def test_restricted_operator_is_the_public_functions(
    fixture_dir, set_dense_limit, name, solver
):
    # one restriction, evaluated many times, gives exactly the bits of the
    # one-shot functions
    kind = name.rsplit("_", 1)[1]
    system = load_fcidump(fixture_dir / f"{name}.fcidump", orbital_kind=kind)
    error = build_error_operator(build_trotter_sequence(system), 1.0)
    n = system.n_spin_orbitals
    for basis in (SectorBasis.sector(n, system.n_electrons), SectorBasis.full(n)):
        set_dense_limit(DENSE_LIMIT if solver == "dense" else basis.dim - 1)
        vector = CIVector(basis, probe_vector(basis.dim)).normalized()
        for op in (system.hamiltonian(), error.op):
            restricted = RestrictedOperator(op, basis)
            assert np.array_equal(
                restricted.apply(vector.amplitudes), apply(op, vector).amplitudes
            )
            if solver == "dense":  # to_dense refuses above the limit
                assert np.array_equal(restricted.dense(), to_dense(op, basis))
            assert restricted.expectation(vector) == expectation(op, vector)
            energy, state = restricted.lowest()
            ref_energy, ref_state = ground_state(op, basis)
            assert energy == ref_energy
            assert np.array_equal(state.amplitudes, ref_state.amplitudes)
            assert restricted.spectral_norm() == spectral_norm(op, basis)


def test_restricted_expectation_rejects_another_basis():
    op = number_operator(4)
    restricted = RestrictedOperator(op, SectorBasis.sector(4, 2))
    with pytest.raises(ValidationError, match="different bases"):
        restricted.expectation(CIVector.unit(SectorBasis.sector(4, 1), 0b1))


def test_to_dense_respects_resource_limit(set_dense_limit):
    set_dense_limit(63)
    with pytest.raises(ResourceLimitError):
        to_dense(number_operator(6), SectorBasis.full(6))


# ---------------------------------------------------------------------------
# Expectation values.
# ---------------------------------------------------------------------------


class TestExpectation:
    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(23)
        op = random_hermitian_conserving(rng)
        basis = SectorBasis.sector(4, 2)
        v = probe_vector(basis.dim)
        v /= np.linalg.norm(v)
        ref = v @ dense_operator(4, op)[np.ix_(basis.states, basis.states)] @ v
        assert expectation(op, CIVector(basis, v)) == pytest.approx(ref)

    def test_unnormalized_input_is_normalized_with_warning(self, caplog):
        basis = SectorBasis.full(2)
        n = number_operator(2)
        v = CIVector(basis, [0.0, 2.0, 0.0, 0.0])
        with caplog.at_level("WARNING", logger="trotterr.fock"):
            value = expectation(n, v)
        assert value == pytest.approx(1.0)
        assert any("norm" in rec.message for rec in caplog.records)

    def test_zero_vector_rejected(self):
        basis = SectorBasis.full(2)
        with pytest.raises(ValidationError):
            expectation(number_operator(2), CIVector(basis, np.zeros(4)))


# ---------------------------------------------------------------------------
# Eigensolvers, dense and matrix-free.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hermitian_case():
    rng = np.random.default_rng(41)
    op = random_hermitian_conserving(rng, n_orbitals=5, n_terms=8)
    basis = SectorBasis.sector(5, 2)
    idx = np.asarray(basis.states)
    ref = dense_operator(5, op)[np.ix_(idx, idx)]
    return op, basis, ref


class TestEigensolvers:
    def test_ground_state_matches_dense(self, hermitian_case):
        op, basis, ref = hermitian_case
        vals, vecs = np.linalg.eigh(ref)
        energy, state = ground_state(op, basis)
        assert energy == pytest.approx(float(vals[0]), abs=1e-10)
        assert abs(state.amplitudes @ vecs[:, 0]) == pytest.approx(1.0, abs=1e-8)
        assert state.norm() == pytest.approx(1.0)

    def test_ground_state_lanczos_path(self, hermitian_case, set_dense_limit):
        op, basis, ref = hermitian_case
        # a limit below dim forces the iterative solver
        set_dense_limit(1)
        energy, _ = ground_state(op, basis)
        assert energy == pytest.approx(float(np.linalg.eigvalsh(ref)[0]), abs=1e-7)

    def test_lanczos_path_on_fixture_hamiltonian(self, fixture_dir, set_dense_limit):
        system = load_fcidump(
            fixture_dir / "h4_sto6g_local.fcidump", orbital_kind="local"
        )
        h = system.hamiltonian()
        basis = SectorBasis.sector(system.n_spin_orbitals, system.n_electrons)
        dense_energy, dense_state = ground_state(h, basis)
        dense_norm = spectral_norm(h, basis)
        set_dense_limit(basis.dim // 4)
        energy, state = ground_state(h, basis)
        assert energy == pytest.approx(dense_energy, abs=1e-9)
        assert abs(state.dot(dense_state)) == pytest.approx(1.0, abs=1e-6)
        assert spectral_norm(h, basis) == pytest.approx(dense_norm, rel=1e-8)

    def test_spectral_norm_both_paths(self, hermitian_case, set_dense_limit):
        op, basis, ref = hermitian_case
        expected = float(np.max(np.abs(np.linalg.eigvalsh(ref))))
        assert spectral_norm(op, basis) == pytest.approx(expected, abs=1e-10)
        set_dense_limit(1)
        assert spectral_norm(op, basis) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("solver", [ground_state, spectral_norm])
    def test_lanczos_no_convergence_is_numerical_error(
        self, hermitian_case, solver, monkeypatch, set_dense_limit
    ):
        import scipy.sparse.linalg

        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        op, basis, _ = hermitian_case
        set_dense_limit(1)
        with pytest.raises(NumericalError, match="Lanczos did not converge"):
            solver(op, basis)

    def test_dense_limit_boundary(self, hermitian_case, set_dense_limit, monkeypatch):
        # DENSE_LIMIT states are diagonalized densely; one more takes Lanczos
        # and is refused by the dense-only paths
        op, basis, ref = hermitian_case
        d = 6
        set_dense_limit(d)
        lanczos_dims = []
        lanczos = RestrictedOperator._lanczos

        def spy(self, *args, **kwargs):
            lanczos_dims.append(self.basis.dim)
            return lanczos(self, *args, **kwargs)

        monkeypatch.setattr(RestrictedOperator, "_lanczos", spy)
        for dim, expected in ((d, []), (d + 1, [d + 1] * 3)):
            restricted = RestrictedOperator(op, SectorBasis(5, 2, np.sort(basis.states[:dim])))
            lanczos_dims.clear()
            energy, _ = restricted.lowest()
            norm = restricted.spectral_norm()
            assert lanczos_dims == expected
            vals = np.linalg.eigvalsh(ref[:dim, :dim])
            assert energy == pytest.approx(vals[0], abs=1e-9)
            assert norm == pytest.approx(np.max(np.abs(vals)), rel=1e-8)
        at_limit = SectorBasis(5, 2, np.sort(basis.states[:d]))
        assert np.allclose(to_dense(op, at_limit), ref[:d, :d], atol=1e-12)
        assert np.allclose(full_spectrum(op, at_limit), np.linalg.eigvalsh(ref[:d, :d]))
        above = SectorBasis(5, 2, np.sort(basis.states[: d + 1]))
        for dense_only in (to_dense, full_spectrum):
            with pytest.raises(ResourceLimitError, match=f"dim {d + 1} exceeds limit {d}$"):
                dense_only(op, above)

    def test_full_spectrum_ascending_and_exact(self, hermitian_case):
        op, basis, ref = hermitian_case
        spec = full_spectrum(op, basis)
        assert np.all(np.diff(spec) >= 0)
        assert np.allclose(spec, np.linalg.eigvalsh(ref), atol=1e-10)

    def test_full_spectrum_is_dense_only(self, hermitian_case, set_dense_limit):
        op, basis, _ = hermitian_case
        set_dense_limit(basis.dim - 1)
        with pytest.raises(ResourceLimitError):
            full_spectrum(op, basis)

    def test_non_hermitian_rejected(self):
        hop = NormalOrderedOperator.from_key(((1,), (0,)), 1.0)
        basis = SectorBasis.sector(4, 1)
        for solver in (ground_state, spectral_norm, full_spectrum):
            with pytest.raises(ValidationError):
                solver(hop, basis)

    def test_number_operator_spectrum(self):
        # eigenvalues of N on the full space are the popcounts
        basis = SectorBasis.full(4)
        spec = full_spectrum(number_operator(4), basis)
        counts = sorted(int(s).bit_count() for s in basis.states)
        assert np.allclose(spec, counts, atol=1e-12)
