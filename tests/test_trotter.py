"""Leading-order product-formula error operator."""

import hashlib
import json
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from bruteforce import dense_operator
from trotterr import trotter
from trotterr.analysis import analyze
from trotterr.errors import NumericalError, ValidationError
from trotterr.fermion import (
    NormalOrderedOperator,
    RunningSum,
    commutator,
    expand_pairs,
    number_operator,
)
from trotterr.fock import RestrictedOperator, SectorBasis
from trotterr.hamiltonian import (
    GRANULARITIES,
    ORDERINGS,
    TrotterSequence,
    build_trotter_sequence,
    parse_fcidump,
)
from trotterr.synthetic import random_system
from trotterr.trotter import ErrorOperator, build_error_operator, estimate_trotter_number


def _sequence_of(ops):
    n = 1 + max((op.max_orbital() for op in ops if op), default=0)
    return TrotterSequence(
        fragments=list(ops),
        ordering="lexicographic",
        granularity="term",
        n_spin_orbitals=n,
    )


def test_single_fragment_is_exact():
    op = NormalOrderedOperator({((1,), (1,)): 0.7})
    err = build_error_operator(_sequence_of([op]), 0.1)
    assert not err.op.terms
    assert err.n_fragments == 1


def test_commuting_fragments_give_zero():
    ops = [
        NormalOrderedOperator({((0,), (0,)): 0.5}),
        NormalOrderedOperator({((1,), (1,)): -0.3}),
        NormalOrderedOperator({((1, 0), (1, 0)): 1.2}),
    ]
    err = build_error_operator(_sequence_of(ops), 0.2)
    assert not err.op.terms


def test_delta_t_scaling_is_exactly_four():
    rng = np.random.default_rng(3)
    syst = random_system(rng, 3)
    seq = build_trotter_sequence(syst)
    v1 = build_error_operator(seq, 0.05)
    v2 = build_error_operator(seq, 0.10)
    keys = set(v1.op.terms) | set(v2.op.terms)
    assert keys
    for key in keys:
        assert v2.op.terms[key] == 4.0 * v1.op.terms[key]


def test_invalid_delta_t():
    op = NormalOrderedOperator({((1,), (1,)): 0.7})
    seq = _sequence_of([op])
    with pytest.raises(ValidationError):
        build_error_operator(seq, 0.0)
    with pytest.raises(ValidationError):
        build_error_operator(seq, -1.0)


def test_matches_literal_triple_sum_on_matrices():
    """The grouped accumulation equals the raw triple-index formula."""
    rng = np.random.default_rng(5)
    syst = random_system(rng, 3, n_electrons=2)
    seq = build_trotter_sequence(syst, granularity="term")
    dt = 0.05
    err = build_error_operator(seq, dt)
    n = syst.n_spin_orbitals
    mats = [dense_operator(n, f) for f in seq.fragments]
    acc = np.zeros_like(mats[0])
    for beta in range(len(mats)):
        for gamma in range(beta):
            inner = mats[beta] @ mats[gamma] - mats[gamma] @ mats[beta]
            for alpha in range(beta + 1):
                weight = 0.5 if alpha == beta else 1.0
                acc += weight * (mats[alpha] @ inner - inner @ mats[alpha])
    acc *= dt * dt / 12.0
    got = dense_operator(n, err.op)
    assert np.max(np.abs(got - acc)) <= 1e-12 * max(1.0, np.max(np.abs(acc)))


def test_invariants_on_random_systems():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        syst = random_system(rng, 3)
        seq = build_trotter_sequence(syst)
        err = build_error_operator(seq, 0.1)
        scale = max(1.0, err.coefficient_l1())
        assert err.hermitian_defect() <= 1e-10 * scale
        assert err.trace_residual() <= 1e-10 * scale
        assert err.number_commutator_residual() <= 1e-10 * scale


def test_validate_rejects_injected_nonconserving_term():
    syst = random_system(np.random.default_rng(2), 3)
    err = build_error_operator(build_trotter_sequence(syst), 0.1)
    assert err.number_commutator_residual() == 0.0
    budget = 1e-8 * err.coefficient_l1()
    # a Hermitian pair a+_2 a+_1 a_0 + h.c. keeps the Hermitian and trace
    # checks quiet, so only the particle-number check can catch it
    leak = NormalOrderedOperator({((2, 1), (0,)): 1e3 * budget})
    broken = ErrorOperator(
        op=err.op + leak + leak.adjoint(),
        delta_t=err.delta_t,
        ordering_label=err.ordering_label,
        n_fragments=err.n_fragments,
        n_spin_orbitals=err.n_spin_orbitals,
    )
    assert broken.number_commutator_residual() == pytest.approx(1e3 * budget)
    with pytest.raises(ValidationError, match="particle number"):
        broken.validate()


def _weighted_diagonal(err):
    """The sum of V's |diagonal terms|, each weighted by the 2^(N-k) basis
    states it counts in the trace."""
    op = err.op
    diagonal = op.cre == op.ann
    k = np.bitwise_count(op.cre[diagonal]).astype(np.int64)
    return np.ldexp(np.abs(op.val[diagonal]), err.n_spin_orbitals - k).sum()


def test_validate_rejects_injected_trace():
    syst = random_system(np.random.default_rng(2), 3)
    err = build_error_operator(build_trotter_sequence(syst), 0.1)
    budget = 1e-8 * _weighted_diagonal(err)
    assert err.trace_residual() <= budget
    # n_0 is Hermitian and conserves particle number, so only the trace
    # check can catch it; it counts once per basis state holding orbital 0
    leak = NormalOrderedOperator({((0,), (0,)): 1e3 * budget / 2 ** (err.n_spin_orbitals - 1)})
    broken = ErrorOperator(
        op=err.op + leak,
        delta_t=err.delta_t,
        ordering_label=err.ordering_label,
        n_fragments=err.n_fragments,
        n_spin_orbitals=err.n_spin_orbitals,
    )
    assert broken.trace_residual() == pytest.approx(1e3 * budget, rel=1e-3)
    with pytest.raises(ValidationError, match="trace"):
        broken.validate()


@pytest.mark.parametrize("seed", [4, 0, 1])
def test_high_orbital_build_matches_shifted(seed):
    # the build is shift-invariant, so V of fragments moved up by 40
    # orbitals (N = 46, past the packed keys' 31 orbitals) must be the
    # shifted V to the bit, and must pass validation as the low one does
    seq = build_trotter_sequence(random_system(np.random.default_rng(seed), 3))
    low = build_error_operator(seq, 1.0)
    high = build_error_operator(
        TrotterSequence(
            fragments=[
                NormalOrderedOperator._from_arrays(f.cre << 40, f.ann << 40, f.val)
                for f in seq.fragments
            ],
            ordering=seq.ordering,
            granularity=seq.granularity,
            n_spin_orbitals=seq.n_spin_orbitals + 40,
        ),
        1.0,
    )
    assert len(low.op) and high.op.max_orbital() >= 40
    assert [a.tobytes() for a in (high.op.cre, high.op.ann, high.op.val)] == [
        a.tobytes() for a in (low.op.cre << 40, low.op.ann << 40, low.op.val)
    ]


def test_number_residual_matches_explicit_commutator():
    op = NormalOrderedOperator(
        {((2, 1), (0,)): 0.3, ((1,), (2, 0)): -0.7, ((3,), (1,)): 1.1, ((), (2,)): 0.2}
    )
    err = ErrorOperator(
        op=op, delta_t=1.0, ordering_label="x", n_fragments=0, n_spin_orbitals=4
    )
    explicit = commutator(number_operator(4), op).max_abs_coefficient()
    assert err.number_commutator_residual() == pytest.approx(explicit, rel=1e-14)


def test_permutation_changes_v_but_not_invariants():
    rng = np.random.default_rng(9)
    syst = random_system(rng, 3)
    seq = build_trotter_sequence(syst)
    base = build_error_operator(seq, 0.1)
    perm = list(rng.permutation(len(seq.fragments)))
    shuffled = TrotterSequence(
        fragments=[seq.fragments[i] for i in perm],
        ordering="lexicographic",
        granularity=seq.granularity,
        n_spin_orbitals=seq.n_spin_orbitals,
    )
    other = build_error_operator(shuffled, 0.1)
    diff = (base.op + other.op.scaled(-1.0)).max_abs_coefficient()
    assert diff > 1e-6  # ordering sensitivity is real
    scale = max(1.0, other.coefficient_l1())
    assert other.hermitian_defect() <= 1e-10 * scale
    assert other.trace_residual() <= 1e-10 * scale
    assert other.number_commutator_residual() <= 1e-10 * scale


def test_diagonal_prefix_order_is_irrelevant(fixture_dir):
    """Fragments in the leading mutually commuting block can be permuted
    without changing the error operator at all."""
    syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
    seq = build_trotter_sequence(syst)
    diag = [f for f in seq.fragments if all(c == a for c, a in f.terms)]
    off = [f for f in seq.fragments if not all(c == a for c, a in f.terms)]
    base = build_error_operator(seq, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        perm = [diag[i] for i in rng.permutation(len(diag))]
        other = build_error_operator(_sequence_of(perm + off), 1.0)
        diff = (base.op + other.op.scaled(-1.0)).max_abs_coefficient()
        assert diff <= 1e-12


def test_overflowing_step_is_numerical_error(fixture_dir):
    # dt^2/12 overflows to inf and every kept coefficient with it
    syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
    seq = build_trotter_sequence(syst)
    with pytest.raises(NumericalError, match="overflow"):
        build_error_operator(seq, 1e160)
    assert np.isfinite(build_error_operator(seq, 1e150).op.val).all()


def _step_systems(fixture_dir):
    for name in ("h2_sto6g_local", "h4_sto6g_local"):
        yield name, parse_fcidump((fixture_dir / f"{name}.fcidump").read_text())
    yield "synthetic-3", random_system(np.random.default_rng(0), 3)


@pytest.mark.parametrize("delta_t", [1e-2, 1e-4, 1e-5])
def test_kept_terms_do_not_depend_on_the_step(fixture_dir, delta_t):
    # pruned after scaling, small steps would lose terms or all of V: on H2,
    # 4 of its 24 terms at dt = 1e-4 and every term at 1e-5
    for name, syst in _step_systems(fixture_dir):
        seq = build_trotter_sequence(syst)
        unit = build_error_operator(seq, 1.0).op
        small = build_error_operator(seq, delta_t).op
        assert len(unit) > 0, name
        assert list(small.terms) == list(unit.terms), name
        np.testing.assert_allclose(
            small.val, delta_t * delta_t * unit.val, rtol=1e-12, atol=0.0, err_msg=name
        )


def test_analyze_ratio_does_not_depend_on_the_step(fixture_dir):
    syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
    unit = analyze(syst, delta_t=1.0, ci_levels=[])
    for delta_t in (1e-2, 1e-4, 1e-5):
        small = analyze(syst, delta_t=delta_t, ci_levels=[])
        assert small.error_term_count == unit.error_term_count == 24
        assert small.ratio == pytest.approx(unit.ratio, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("delta_t", [1e-155, 1e-170])
def test_underflowing_step_is_numerical_error(fixture_dir, delta_t):
    # at 1e-155 the kept coefficients scale to subnormals, at 1e-170 dt^2
    # itself is 0.0; neither may come back as a silently empty V
    syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
    seq = build_trotter_sequence(syst)
    with pytest.raises(NumericalError, match="underflow"):
        build_error_operator(seq, delta_t)


def _fold_cases():
    for name in ("canonical", "local", "natural"):
        yield f"h2_sto6g_{name}", "integral"
    yield "h4_sto6g_local", "integral"
    for n in range(1, 6):
        for seed in range(3):
            yield (n, seed), "integral"
            if n <= 4:
                yield (n, seed), "term"


@pytest.mark.parametrize("case, granularity", list(_fold_cases()), ids=str)
def test_folding_is_byte_identical(fixture_dir, monkeypatch, case, granularity):
    """Folding the pieces as often as the rule allows, once at the end, or at
    the default budget gives the same bytes."""
    if isinstance(case, str):
        syst = parse_fcidump((fixture_dir / f"{case}.fcidump").read_text())
    else:
        syst = random_system(np.random.default_rng(case[1]), case[0])
    seq = build_trotter_sequence(syst, granularity=granularity)
    sum_pairs = trotter.sum_pairs
    calls = []

    def spy(parts):
        calls.append(len(parts))
        return sum_pairs(parts)

    monkeypatch.setattr(trotter, "sum_pairs", spy)
    default = trotter.FOLD_TERMS
    built = {}
    folds = {}
    for budget in (1, 1 << 62, default):
        monkeypatch.setattr(trotter, "FOLD_TERMS", budget)
        calls.clear()
        op = build_error_operator(seq, 1.0).op
        built[budget] = [a.tobytes() for a in (op.cre, op.ann, op.val)]
        folds[budget] = len(calls)
    assert built[1] == built[1 << 62] == built[default]
    assert folds[1 << 62] == 1
    if len(op):
        # at budget 1 every case with a nonzero V folds at least twice in the
        # loop before the last fold
        assert folds[1] >= 3


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _in_key_order(op):
    """``op``'s three arrays with its terms ascending by ``(cre, ann)``."""
    order = np.lexsort((op.ann, op.cre))
    return [a[order].tobytes() for a in (op.cre, op.ann, op.val)]


def _step_cases():
    for path in sorted(FIXTURES.glob("*.fcidump")):
        yield path.stem
    yield from range(1, 6)


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("case", list(_step_cases()), ids=str)
def test_dense_running_sums_are_the_operator_sums(
    fixture_dir, monkeypatch, case, ordering, granularity
):
    """Every S_beta and D_alpha the build holds, and every operand it hands
    the product kernel (S_{beta-1}, then W_alpha = D_alpha - C_alpha/2),
    equals the sum built with ``+`` key for key, to the bit, in key order."""
    if isinstance(case, str):
        syst = parse_fcidump((fixture_dir / f"{case}.fcidump").read_text())
    else:
        syst = random_system(np.random.default_rng(case), case)
    seq = build_trotter_sequence(syst, ordering, granularity=granularity)
    sums, operands = [], []
    add, product = RunningSum.add, trotter.hermitian_product

    def add_spy(self, *args):
        slots = add(self, *args)
        sums.append(self.operator())
        return slots

    def product_spy(a, b, *args):
        operands.append(b)
        return product(a, b, *args)

    monkeypatch.setattr(RunningSum, "add", add_spy)
    monkeypatch.setattr(trotter, "hermitian_product", product_spy)
    build_error_operator(seq, 1.0)
    # the same steps with the running sums as operators
    want_sums, want_operands, cross = [], [], []
    prefix = NormalOrderedOperator.zero()
    for frag in seq.fragments:
        want_operands.append(prefix)
        cross.append(product(frag, prefix, 0, -1))
        prefix = prefix + frag
        want_sums.append(prefix)
    suffix = NormalOrderedOperator.zero()
    for frag in reversed(seq.fragments):
        c = expand_pairs(cross.pop(), -1)
        suffix = suffix + c
        want_sums.append(suffix)
        weight = suffix + c.scaled(-0.5)
        if weight:
            want_operands.append(weight)
    assert len(sums) == len(want_sums) == 2 * len(seq.fragments)
    assert len(operands) == len(want_operands)
    for got, want in zip(sums + operands, want_sums + want_operands, strict=True):
        assert [a.tobytes() for a in (got.cre, got.ann, got.val)] == _in_key_order(want)


# SHA-256 of V's cre, ann and val bytes per case, pinned when V was still
# built by summing both halves of every adjoint pair
V_HASHES = json.loads(
    (Path(__file__).resolve().parent / "error_operator_sha256.json").read_text()
)


def _pinned_cases():
    for path in sorted(FIXTURES.glob("*.fcidump")):
        for granularity in GRANULARITIES:
            for ordering in ORDERINGS:
                yield f"{path.stem} {granularity} {ordering} 1.0"
    for n in range(1, 6):
        for seed in range(3):
            yield f"synthetic-{n}-{seed} integral lexicographic 1.0"
            if n <= 4:
                yield f"synthetic-{n}-{seed} term lexicographic 1.0"
    yield "h4_sto6g_local integral lexicographic 0.5"


@lru_cache(maxsize=None)
def _pinned_error_operator(case: str):
    name, granularity, ordering, delta_t = case.split()
    if name.startswith("synthetic-"):
        n, seed = map(int, name.removeprefix("synthetic-").split("-"))
        syst = random_system(np.random.default_rng(seed), n)
    else:
        syst = parse_fcidump((FIXTURES / f"{name}.fcidump").read_text())
    seq = build_trotter_sequence(syst, ordering, granularity=granularity)
    return build_error_operator(seq, float(delta_t))


def _digest(op) -> str:
    h = hashlib.sha256()
    for a in (op.cre, op.ann, op.val):
        h.update(a.tobytes())
    return h.hexdigest()


def test_pinned_cases_match_the_pin_file():
    assert sorted(_pinned_cases()) == sorted(V_HASHES)


@pytest.mark.parametrize("case", list(_pinned_cases()))
def test_error_operator_bytes_are_pinned(case):
    assert _digest(_pinned_error_operator(case).op) == V_HASHES[case]


@pytest.mark.parametrize("case", list(_pinned_cases()))
def test_error_operator_is_hermitian_to_the_bit(case):
    # each piece H_alpha W + (H_alpha W)^+ holds V[k^+] = s V[k] exactly, so
    # their running sum does too
    assert _pinned_error_operator(case).hermitian_defect() == 0.0


# tracemalloc peak of the synthetic-5 V build (10 spin orbitals, 1.45M
# unsummed piece terms, 21,125 terms in V): 105 MiB when every piece is held
# for one final sum, 24.9 MiB with the pieces folded at a budget of 2^18
# terms, 8.1 MiB with one entry per adjoint pair folded at 2^15 entries,
# 5.7 MiB with each C_beta held as pairs until it is used
SYN5_BUILD_PEAK_BUDGET = 7 * 2**20

# tracemalloc peak of V's action table on the synthetic-5 sector (210
# states, 59,170 entries): 10.9 MiB with an 8 MiB int64 temporary per term
# chunk and the chunks concatenated, 3.9 MiB preallocated with int32
# indices and 2 MiB chunks
SYN5_TABLE_PEAK_BUDGET = 6 * 2**20


def test_synthetic5_build_stays_in_bounded_memory():
    seq = build_trotter_sequence(random_system(np.random.default_rng(0), 5))
    tracemalloc.start()
    try:
        error = build_error_operator(seq, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(error.op) == 21125
    assert peak < SYN5_BUILD_PEAK_BUDGET, f"{peak / 2**20:.1f} MiB"


def test_synthetic5_table_stays_in_bounded_memory():
    system = random_system(np.random.default_rng(0), 5)
    error = build_error_operator(build_trotter_sequence(system), 1.0)
    sector = SectorBasis.sector(system.n_spin_orbitals, system.n_electrons)
    tracemalloc.start()
    try:
        restricted = RestrictedOperator(error.op, sector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(restricted._table[0]) == 59170
    assert peak < SYN5_TABLE_PEAK_BUDGET, f"{peak / 2**20:.1f} MiB"


class TestTrotterNumber:
    def test_zero_error_floor(self):
        assert estimate_trotter_number(0.0, 10.0, 1e-3) == 1

    def test_frozen_examples(self):
        assert estimate_trotter_number(1.0, 1.0, 1e-4) == 100
        assert estimate_trotter_number(4.0, 2.0, 1e-2) == 40

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            estimate_trotter_number(-1.0, 1.0, 1e-3)
        with pytest.raises(ValidationError):
            estimate_trotter_number(1.0, 0.0, 1e-3)
        with pytest.raises(ValidationError):
            estimate_trotter_number(1.0, 1.0, 0.0)

    def test_at_least_one(self):
        assert estimate_trotter_number(1e-30, 1e-6, 1.0) == 1

    def test_overflow_is_numerical_error(self):
        with pytest.raises(NumericalError, match="overflows"):
            estimate_trotter_number(1e300, 1.0, 1e-10)
