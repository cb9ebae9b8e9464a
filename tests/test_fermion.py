"""Normal-ordered ladder algebra against the dense brute-force oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trotterr import fermion
from trotterr.errors import ResourceLimitError, ValidationError
from trotterr.fermion import (
    DEFAULT_DROP_TOLERANCE,
    LadderTerm,
    NormalOrderedOperator,
    RunningSum,
    _bits_desc,
    _combine,
    _hermitian_defects,
    _max_difference,
    _product_terms,
    _rank,
    ann,
    commutator,
    cre,
    expand_pairs,
    hermitian_product,
    multiply,
    normal_order,
    number_operator,
    operator_sum,
    trace,
)
from trotterr.hamiltonian import build_trotter_sequence, load_fcidump
from trotterr.synthetic import random_system
from trotterr.trotter import build_error_operator

from bruteforce import (
    dense_ladder,
    dense_operator,
    dense_term,
    dict_add,
    dict_adjoint,
    dict_commutator,
    dict_sub,
    dict_sum,
    loop_normal_order,
    loop_product_terms,
    mask_order,
    scalar_multiply,
)


def op_strings(n_orbitals=4, max_len=6):
    ladder = st.tuples(
        st.integers(min_value=0, max_value=n_orbitals - 1), st.booleans()
    ).map(lambda t: cre(t[0]) if t[1] else ann(t[0]))
    return st.tuples(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).filter(
            lambda x: abs(x) > 1e-6
        ),
        st.lists(ladder, min_size=0, max_size=max_len).map(tuple),
    ).map(lambda t: LadderTerm(*t))


def random_operator(rng, n_orbitals=4, n_terms=3, max_len=4):
    total = NormalOrderedOperator.zero()
    for _ in range(n_terms):
        length = rng.integers(0, max_len + 1)
        ops = tuple(
            cre(int(p)) if b else ann(int(p))
            for p, b in zip(
                rng.integers(0, n_orbitals, size=length),
                rng.integers(0, 2, size=length),
            )
        )
        total = total + normal_order(LadderTerm(float(rng.normal()), ops))
    return total


# ---------------------------------------------------------------------------
# Canonical form and the worked reduction.
# ---------------------------------------------------------------------------


def test_worked_reduction_two_terms():
    # a2 a1 a1^+ a3^+ -> a1^+ a3^+ a2 a1 - a3^+ a2
    result = normal_order(LadderTerm(1.0, (ann(2), ann(1), cre(1), cre(3))))
    expected = normal_order(
        LadderTerm(1.0, (cre(1), cre(3), ann(2), ann(1)))
    ) + normal_order(LadderTerm(-1.0, (cre(3), ann(2))))
    assert result.allclose(expected)
    # canonical keys: strictly descending groups
    assert result.terms == pytest.approx(
        {((3, 1), (2, 1)): -1.0, ((3,), (2,)): -1.0}
    )
    # and the dense matrices agree with the raw product
    lhs = dense_term(4, 1.0, (ann(2), ann(1), cre(1), cre(3)))
    assert np.allclose(dense_operator(4, result), lhs)


def test_repeated_index_terms_vanish():
    assert not normal_order(LadderTerm(1.0, (cre(1), cre(1)))).terms
    assert not normal_order(LadderTerm(1.0, (ann(0), ann(0)))).terms
    # a_p a_p^+ = 1 - n_p
    op = normal_order(LadderTerm(1.0, (ann(2), cre(2))))
    assert op.terms == pytest.approx({((), ()): 1.0, ((2,), (2,)): -1.0})


def test_canonical_keys_strictly_descending():
    op = normal_order(LadderTerm(2.0, (cre(0), cre(2), ann(1), ann(3))))
    assert list(op.terms) == [((2, 0), (3, 1))]
    assert op.terms[((2, 0), (3, 1))] == pytest.approx(-2.0 * (-1.0) * (-1.0) * -1.0)


def test_invalid_orbital_rejected():
    with pytest.raises(ValidationError):
        normal_order(LadderTerm(1.0, (cre(-1),)))
    with pytest.raises(ValidationError):
        NormalOrderedOperator({((1, 2), ()): 1.0})


@settings(max_examples=200, deadline=None)
@given(op_strings())
def test_normal_order_matches_dense(term):
    reduced = normal_order(term)
    assert np.allclose(
        dense_operator(4, reduced), dense_term(4, term.coeff, term.ops), atol=1e-10
    )


@st.composite
def banded_strings(draw):
    """Ladder strings of length 0-8 on orbitals 0-5 or 57-62, the top of
    the mask width, with coefficients far above and below the tolerance."""
    lo, hi = draw(st.sampled_from([(0, 5), (57, 62)]))
    ladder = st.builds(
        lambda p, creation: cre(p) if creation else ann(p), st.integers(lo, hi), st.booleans()
    )
    coeff = st.sampled_from([1e16, -1e16, 1e-13, -1e-13, 1.0, -1.0, 0.0]) | st.floats(
        min_value=-2.0, max_value=2.0, allow_nan=False
    )
    return LadderTerm(draw(coeff), tuple(draw(st.lists(ladder, max_size=8))))


@pytest.mark.parametrize("tol", [0.0, DEFAULT_DROP_TOLERANCE], ids=["keep-zeros", "default"])
@settings(max_examples=300, deadline=None)
@given(term=banded_strings())
def test_normal_order_matches_string_rewriting(tol, term):
    # the fold over the product kernel against the iterated-anticommutation
    # reference: the same keys with the same bits, listed in product order
    got = normal_order(term, drop_tolerance=tol).terms
    want = loop_normal_order(term, drop_tolerance=tol).terms
    assert dict(_bits(got)) == dict(_bits(want))
    assert list(got) == mask_order(got)


# ---------------------------------------------------------------------------
# Products and commutators.
# ---------------------------------------------------------------------------


def test_multiply_worked_example():
    a = normal_order(LadderTerm(1.0, (ann(2), ann(1))))
    b = normal_order(LadderTerm(1.0, (cre(1), cre(3))))
    prod = multiply(a, b)
    assert prod.terms == pytest.approx({((3, 1), (2, 1)): -1.0, ((3,), (2,)): -1.0})


def test_identity_is_neutral():
    rng = np.random.default_rng(7)
    a = random_operator(rng)
    one = NormalOrderedOperator.identity()
    assert multiply(one, a).allclose(a)
    assert multiply(a, one).allclose(a)


def test_commutator_examples():
    n1 = normal_order(LadderTerm(1.0, (cre(1), ann(1))))
    hop = normal_order(LadderTerm(1.0, (cre(1), ann(2))))
    assert commutator(n1, hop).terms == pytest.approx({((1,), (2,)): 1.0})

    fwd = normal_order(LadderTerm(1.0, (cre(1), ann(2))))
    bwd = normal_order(LadderTerm(1.0, (cre(2), ann(1))))
    assert commutator(fwd, bwd).terms == pytest.approx(
        {((1,), (1,)): 1.0, ((2,), (2,)): -1.0}
    )


def test_commutator_exactly_antisymmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_operator(rng)
        b = random_operator(rng)
        lhs = commutator(a, b)
        rhs = commutator(b, a)
        total = lhs + rhs
        assert not total.terms  # exact zero, including float identity


@settings(max_examples=120, deadline=None)
@given(op_strings(max_len=4), op_strings(max_len=4))
def test_multiply_matches_dense(t1, t2):
    a = normal_order(t1)
    b = normal_order(t2)
    prod = multiply(a, b)
    assert np.allclose(
        dense_operator(4, prod),
        dense_operator(4, a) @ dense_operator(4, b),
        atol=1e-9,
    )


@settings(max_examples=60, deadline=None)
@given(op_strings(max_len=4), op_strings(max_len=4))
def test_commutator_matches_dense(t1, t2):
    a = normal_order(t1)
    b = normal_order(t2)
    da, db = dense_operator(4, a), dense_operator(4, b)
    assert np.allclose(
        dense_operator(4, commutator(a, b)), da @ db - db @ da, atol=1e-9
    )


def test_drop_tolerance_removes_small_terms():
    tiny = normal_order(LadderTerm(1e-15, (cre(1), ann(0))))
    assert not tiny.terms
    kept = normal_order(LadderTerm(1e-15, (cre(1), ann(0))), drop_tolerance=0.0)
    assert kept.terms


# ---------------------------------------------------------------------------
# Adjoints and Hermiticity.
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(op_strings(max_len=5))
def test_adjoint_matches_dense_transpose(term):
    op = normal_order(term)
    assert np.allclose(
        dense_operator(4, op.adjoint()), dense_operator(4, op).T, atol=1e-10
    )


def test_hermitian_defect():
    herm = normal_order(LadderTerm(0.5, (cre(0), ann(1)))) + normal_order(
        LadderTerm(0.5, (cre(1), ann(0)))
    )
    assert herm.hermitian_defect() == pytest.approx(0.0)
    skew = normal_order(LadderTerm(0.5, (cre(0), ann(1))))
    assert skew.hermitian_defect() == pytest.approx(0.5)


@pytest.mark.parametrize("n_spatial", [1, 2, 3])
def test_grouped_hermitian_defects_are_the_adjoint_differences(n_spatial):
    rng = np.random.default_rng(n_spatial)
    h = random_system(rng, n_spatial).hamiltonian()
    val = h.val * (1.0 + 1e-3 * rng.standard_normal(len(h)))
    group = rng.integers(0, 4, len(h))
    defects = _hermitian_defects(group, h.cre, h.ann, val, 4)
    for g in range(4):
        mine = group == g
        part = NormalOrderedOperator._from_arrays(h.cre[mine], h.ann[mine], val[mine])
        assert defects[g] == _max_difference(part, part.adjoint())
        assert part.hermitian_defect() == defects[g]


# ---------------------------------------------------------------------------
# Traces.
# ---------------------------------------------------------------------------


def test_coefficient_l1_adds_in_term_order():
    # the builtin sum of these values is 1.0000000000000004 from Python 3.12
    values = [1.0] + [2.0**-53] * 4
    op = NormalOrderedOperator(
        {((p,), (p,)): v for p, v in enumerate(values)}, drop_tolerance=0.0
    )
    total = 0.0
    for v in values:
        total += v
    assert op.coefficient_l1() == total == 1.0
    assert repr(NormalOrderedOperator.zero().coefficient_l1()) == "0.0"


def test_trace_adds_in_term_order():
    # the exact trace is 4.0; added one by one in term order the 4 is lost
    values = [1e16, 1.0, -1e16]
    op = NormalOrderedOperator(
        {((p,), (p,)): v for p, v in enumerate(values)}, drop_tolerance=0.0
    )
    total = 0.0
    for v in values:
        total += v * 2.0**2
    assert trace(op, 3) == total == 0.0


def test_trace_number_operator_full_fock():
    n1 = normal_order(LadderTerm(1.0, (cre(1), ann(1))))
    assert trace(n1, 2) == pytest.approx(2.0)
    assert trace(n1, 2) == pytest.approx(np.trace(dense_operator(2, n1)))


def test_trace_identity_scaling():
    op = NormalOrderedOperator.identity(3.0)
    assert trace(op, 5) == pytest.approx(3.0 * 32)


@settings(max_examples=80, deadline=None)
@given(op_strings(max_len=6))
def test_trace_matches_dense(term):
    op = normal_order(term)
    assert trace(op, 4) == pytest.approx(
        float(np.trace(dense_operator(4, op))), abs=1e-9
    )


def test_trace_of_commutator_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_operator(rng)
        b = random_operator(rng)
        scale = max(1.0, a.coefficient_l1() * b.coefficient_l1())
        assert abs(trace(commutator(a, b), 4)) <= 1e-9 * scale


def test_number_operator():
    nop = number_operator(3)
    dense = dense_operator(3, nop)
    for s in range(8):
        assert dense[s, s] == pytest.approx(bin(s).count("1"))


# ---------------------------------------------------------------------------
# The packed arrays against the term-map references.
# ---------------------------------------------------------------------------


def keyed_operator(rng, n_orbitals, n_terms, max_half=3):
    """Random canonical-key operator with small-integer coefficients, so the
    two product paths must agree exactly, not just to rounding."""
    terms = {}
    for _ in range(n_terms):
        half = min(max_half, n_orbitals)
        cre_len = int(rng.integers(0, half + 1))
        ann_len = int(rng.integers(0, half + 1))
        creations = tuple(
            sorted(rng.choice(n_orbitals, size=cre_len, replace=False).tolist(), reverse=True)
        )
        annihilations = tuple(
            sorted(rng.choice(n_orbitals, size=ann_len, replace=False).tolist(), reverse=True)
        )
        terms[(creations, annihilations)] = float(int(rng.integers(-5, 6)) or 1)
    return NormalOrderedOperator(terms, drop_tolerance=0.0)


def test_masked_product_matches_scalar_exactly():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        a = keyed_operator(rng, n, int(rng.integers(1, 13)))
        b = keyed_operator(rng, n, int(rng.integers(1, 13)))
        scalar = {k: v for k, v in scalar_multiply(a, b).items() if v != 0.0}
        product = multiply(a, b, drop_tolerance=0.0).terms
        masked = {k: v for k, v in product.items() if v != 0.0}
        assert scalar == masked


def _bits(terms):
    return [(key, c.hex()) for key, c in terms.items()]


def _assert_same_sums(a, b):
    """Sums and adjoints equal their term-map references in key order and in
    the bits of every coefficient."""
    ta, tb = a.terms, b.terms
    assert _bits((a + b).terms) == _bits(dict_add(ta, tb))
    assert _bits((a - b).terms) == _bits(dict_sub(ta, tb))
    assert _bits(operator_sum([a, b, a]).terms) == _bits(dict_sum([ta, tb, ta]))
    assert _bits(a.adjoint().terms) == _bits(dict_adjoint(ta))


def _assert_same_arithmetic(a, b):
    _assert_same_sums(a, b)
    product = multiply(a, b, drop_tolerance=0.0).terms
    assert list(product) == mask_order(product)
    assert _bits(commutator(a, b).terms) == _bits(dict_commutator(a, b))


def test_term_order_matches_dict_arithmetic_on_random_operators():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        a, b = (
            NormalOrderedOperator(
                {k: float(rng.normal()) for k in keyed_operator(rng, n, 8).terms}
            )
            for _ in range(2)
        )
        _assert_same_arithmetic(a, b)


@pytest.mark.parametrize("name", ["h2_sto6g_local", "h4_sto6g_local"])
def test_term_order_matches_dict_arithmetic_on_fragments(fixture_dir, name):
    # the steps of the error-operator build: running prefix sums, products
    # against them, and their adjoint reflections
    seq = build_trotter_sequence(load_fcidump(fixture_dir / f"{name}.fcidump"))
    frags = seq.fragments
    assert _bits(operator_sum(frags).terms) == _bits(dict_sum(f.terms for f in frags))
    prefix = NormalOrderedOperator.zero()
    for frag in frags:
        _assert_same_arithmetic(frag, prefix)
        m = multiply(frag, prefix, drop_tolerance=0.0)
        _assert_same_sums(m, m.adjoint())
        prefix = prefix + frag


# Orbital ranges that put the grouping on each of its two sort keys: halves
# below orbital 31 pack into one int64 (unless the position tag no longer
# fits beside them), halves above orbital 31 do not and are ranked by a
# lexsort.
KEY_BRANCHES = {"packed": (0, 30), "ranked": (32, 62)}


def _needs_rank(cmasks, amasks):
    """The grouping's one rank rule: the lexsort rank runs iff the packed
    key and the position tag need more than 63 bits together."""
    bits = int(cmasks.max()).bit_length() + int(amasks.max()).bit_length()
    return bits + (len(cmasks) - 1).bit_length() > 63


def _spied_combine():
    """Patch ``_combine`` to record, per call, whether the rank rule picks
    the lexsort rank."""
    calls = []
    combine = fermion._combine

    def spy(cmasks, amasks, coeffs, *args, **kwargs):
        if len(coeffs):
            calls.append(_needs_rank(cmasks, amasks))
        return combine(cmasks, amasks, coeffs, *args, **kwargs)

    return mock.patch.object(fermion, "_combine", spy), calls


# Coefficients whose sums depend on the order they are added in
# (1e16 + 1 - 1e16 is 0, 1 + 1e16 - 1e16 is not), that cancel exactly, or
# that sit below the drop tolerance.
ORDER_SENSITIVE = st.sampled_from(
    [1e16, -1e16, 1.0, -1.0, 0.5, 3.0, 1e-13, -1e-13]
) | st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def operator_lists(draw, lo, hi, values, min_ops=2, max_ops=6):
    """Operators over a small shared pool of keys on orbitals ``lo..hi``, so
    most keys recur across operators.  The first operator leads with a key
    that has both halves set."""
    def group(min_size):
        orbitals = st.sets(st.integers(lo, hi), min_size=min_size, max_size=3)
        return orbitals.map(lambda s: tuple(sorted(s, reverse=True)))

    pool = [
        draw(st.tuples(group(1), group(1))),
        *draw(st.lists(st.tuples(group(0), group(0)), max_size=5)),
    ]
    maps = draw(
        st.lists(
            st.dictionaries(st.sampled_from(pool), values, max_size=len(pool)),
            min_size=min_ops,
            max_size=max_ops,
        )
    )
    maps[0] = {pool[0]: draw(values), **maps[0]}
    return [NormalOrderedOperator(m, drop_tolerance=0.0) for m in maps]


@pytest.mark.parametrize("branch", sorted(KEY_BRANCHES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_grouping_matches_term_maps(branch, data):
    ops = data.draw(operator_lists(*KEY_BRANCHES[branch], ORDER_SENSITIVE))
    maps = [op.terms for op in ops]
    a, b = ops[0], ops[1]
    spy, ranked = _spied_combine()
    with spy, mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
        assert _bits((a + b).terms) == _bits(dict_add(maps[0], maps[1]))
        assert _bits(operator_sum(ops).terms) == _bits(dict_sum(maps))
        assert _bits(commutator(a, b).terms) == _bits(dict_commutator(a, b))
    # a + b holds the lead key, which has both halves set: above orbital 31
    # they never pack
    assert ranked[0] or branch == "packed"
    assert lexsort.call_count == sum(ranked)


@pytest.mark.parametrize("branch", sorted(KEY_BRANCHES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_grouping_matches_scalar_reference(branch, data):
    # small integer coefficients keep every sum exact, whatever order the
    # two references add the product terms in
    a, b = data.draw(
        operator_lists(*KEY_BRANCHES[branch], st.integers(-5, 5).map(float), max_ops=2)
    )
    scalar = scalar_multiply(a, b)
    expected = [(k, scalar[k].hex()) for k in mask_order(scalar) if scalar[k] != 0.0]
    assert _bits(multiply(a, b).terms) == expected


def test_sort_key_orders_like_the_two_halves():
    # both sort keys of the grouping, the packed masks and the dense rank,
    # order the terms as the two halves do
    rng = np.random.default_rng(14)
    for lo, hi in KEY_BRANCHES.values():
        bits = np.int64(1) << rng.integers(lo, hi + 1, size=(2, 500, 2))
        cmasks, amasks = np.bitwise_or.reduce(bits, axis=2)
        cmasks[::7], amasks[::5] = 0, 0
        halves = np.lexsort((amasks, cmasks))
        rank = _rank(cmasks, amasks)
        assert np.array_equal(np.argsort(rank, kind="stable"), halves)
        pairs = sorted(set(zip(cmasks.tolist(), amasks.tolist())))
        assert np.array_equal(np.unique(rank), np.arange(1, len(pairs) + 1))
        assert rank.max() == len(pairs) < len(rank)
        if hi < 31:
            width = int(amasks.max()).bit_length()
            packed = (cmasks << width) | amasks
            assert np.array_equal(np.argsort(packed, kind="stable"), halves)
    none = np.zeros(0, dtype=np.int64)
    assert _rank(none, none).dtype == np.int64 and not len(_rank(none, none))


# Orbital ranges for the three ways the grouping reaches its tagged sort:
# packed keys narrow enough to take the position tag as they are; packed
# keys with orbital 30 in both halves (62 bits), which leave room for the
# tag of at most two terms and are ranked by a lexsort beyond that; and
# halves above orbital 31, always ranked by a lexsort.
COMBINE_BRANCHES = {"packed": (0, 12), "packed-ranked": (0, 30), "lexsorted": (32, 62)}

# 1, 2, 2^k and 2^k + 1 terms: the counts at which the position tag gains a bit.
COMBINE_SIZES = (1, 2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025)

COMBINE_VALUES = np.array([1e16, -1e16, 1.0, -1.0, 0.5, 3.0, 1e-13, -1e-13, 0.0, -0.0])


def _combine_inputs(rng, lo, hi, n, n_keys):
    """``n`` unsummed terms over ``n_keys`` distinct keys on orbitals
    ``lo..hi``, the first key with orbital ``hi`` in both halves."""
    def mask():
        size = int(rng.integers(0, 4))
        return sum(1 << int(p) for p in rng.choice(np.arange(lo, hi + 1), size, replace=False))

    keys = {(1 << hi, 1 << hi): None}
    while len(keys) < n_keys:
        keys[(mask(), mask())] = None
    keys = np.array(list(keys), dtype=np.int64)
    pick = rng.permutation(n) if n_keys == n else rng.integers(0, n_keys, n)
    coeffs = np.where(
        rng.random(n) < 0.5, rng.choice(COMBINE_VALUES, n), rng.normal(size=n)
    )
    return keys[pick, 0], keys[pick, 1], coeffs


def _term_map_reference(cmasks, amasks, coeffs, drop_tolerance, first_seen):
    """``out[key] = out.get(key, 0.0) + c`` over the terms in input order."""
    keys = [(_bits_desc(c), _bits_desc(a)) for c, a in zip(cmasks.tolist(), amasks.tolist())]
    out = dict_sum(({k: c} for k, c in zip(keys, coeffs.tolist())), drop_tolerance)
    return out if first_seen else {k: out[k] for k in mask_order(out)}


@pytest.mark.parametrize("first_seen", [True, False], ids=["first-seen", "ascending"])
@pytest.mark.parametrize("branch", sorted(COMBINE_BRANCHES))
def test_combine_matches_term_map_reference(branch, first_seen):
    lo, hi = COMBINE_BRANCHES[branch]
    rng = np.random.default_rng(15)
    for n in COMBINE_SIZES:
        # all keys equal, a few keys, all keys distinct
        for n_keys in sorted({1, min(n, 5), n}):
            cmasks, amasks, coeffs = _combine_inputs(rng, lo, hi, n, n_keys)
            for tol in (0.0, DEFAULT_DROP_TOLERANCE):
                with (
                    mock.patch("numpy.argsort", wraps=np.argsort) as argsort,
                    mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort,
                    mock.patch("numpy.searchsorted", wraps=np.searchsorted) as searchsorted,
                ):
                    got = _combine(cmasks, amasks, coeffs, tol, first_seen=first_seen)
                want = _term_map_reference(cmasks, amasks, coeffs, tol, first_seen)
                assert _bits(got.terms) == _bits(want), (n, n_keys, tol)
                assert not argsort.called
                assert not searchsorted.called
                assert lexsort.called == _needs_rank(cmasks, amasks)
                assert lexsort.called == (
                    branch == "lexsorted" or (branch == "packed-ranked" and n > 2)
                )


def test_orbital_beyond_mask_width_raises():
    assert NormalOrderedOperator({((62,), (0,)): 1.0}).max_orbital() == 62
    with pytest.raises(ResourceLimitError):
        NormalOrderedOperator({((63,), (0,)): 1.0})
    with pytest.raises(ResourceLimitError):
        normal_order(LadderTerm(1.0, (cre(63), ann(0))))


def test_high_orbital_product_matches_shifted():
    # the algebra is shift-invariant, so a product up to the top of the
    # 63-orbital mask width must equal the shifted low-orbital product
    def shift(op, offset):
        return NormalOrderedOperator(
            {
                (
                    tuple(p + offset for p in c),
                    tuple(p + offset for p in a),
                ): v
                for (c, a), v in op.terms.items()
            },
            drop_tolerance=0.0,
        )

    rng = np.random.default_rng(12)
    for _ in range(25):
        a = keyed_operator(rng, 4, 5)
        b = keyed_operator(rng, 4, 5)
        low = multiply(a, b, drop_tolerance=0.0)
        for offset in (40, 59):
            high = multiply(shift(a, offset), shift(b, offset), drop_tolerance=0.0)
            assert shift(low, offset).terms == high.terms


def test_running_sum_is_the_operator_sum_at_any_orbital_count():
    # RunningSum finds or places a key by its packed key up to 31 orbitals
    # and by ranking its key set beyond; at both, each step must read back
    # the sum built with ``+``, bit for bit, in key order, and the same
    # steps shifted by 40 orbitals the shifted sums.  Keys enter only
    # through ``add``: most steps bring keys first seen after earlier adds,
    # and some keys return after an exact cancellation.
    rng = np.random.default_rng(16)
    ops = []
    for _ in range(10):
        op = keyed_operator(rng, 6, 8)
        scale = 10.0 ** rng.integers(-14, 17, len(op))  # some below tolerance
        ops.append(NormalOrderedOperator._from_arrays(op.cre, op.ann, rng.normal(size=len(op)) * scale))
    ops[4], ops[7] = -ops[1], -ops[5]  # exact cancellations, then the keys return
    ops[8] = ops[1]
    read = {}
    for offset in (0, 40):
        shifted = [
            NormalOrderedOperator._from_arrays(op.cre << offset, op.ann << offset, op.val)
            for op in ops
        ]
        running = RunningSum(6 + offset)
        want = NormalOrderedOperator.zero()
        read[offset] = []
        sizes = []
        with mock.patch("numpy.searchsorted", wraps=np.searchsorted) as searchsorted:
            for op in shifted:
                slots = running.add(op.cre, op.ann, op.val)
                sizes.append(len(running.val))
                got = [running.operator(), running.operator(slots, op.val * -0.5)]
                want = want + op
                for g, w in zip(got, [want, want + op.scaled(-0.5)]):
                    order = np.lexsort((w.ann, w.cre))
                    assert [a.tobytes() for a in (g.cre, g.ann, g.val)] == [
                        a[order].tobytes() for a in (w.cre, w.ann, w.val)
                    ]
                read[offset] += [(g.cre >> offset, g.ann >> offset, g.val) for g in got]
        assert searchsorted.called == (offset == 0)
        # the set grows at later adds too, and a cancelled key keeps its slot
        assert sizes[0] < sizes[5] and sizes[4] == sizes[3]
    assert any(len(val) for _, _, val in read[0])
    for low, high in zip(read[0], read[40], strict=True):
        assert [a.tobytes() for a in low] == [a.tobytes() for a in high]


@pytest.mark.parametrize("offset", [0, 40], ids=["packed", "ranked"])
def test_running_sum_gives_a_new_key_its_own_slot(offset):
    # a key between two keys of the set must not land on a neighbour
    running = RunningSum(6 + offset)
    masks = np.array([1, 4], dtype=np.int64) << offset
    running.add(masks, masks, np.array([1.0, 2.0]))
    new = np.array([2], dtype=np.int64) << offset
    slots = running.add(new, new, np.array([5.0]))
    got = running.operator()
    assert running.cre[slots].tolist() == new.tolist()
    assert (got.cre >> offset).tolist() == [1, 2, 4] == (got.ann >> offset).tolist()
    assert got.val.tolist() == [1.0, 5.0, 2.0]


# ---------------------------------------------------------------------------
# The broadcast product kernel against its per-pair loop.
# ---------------------------------------------------------------------------


def _assert_same_arrays(got, want):
    """The same three arrays, in the same order, to the byte."""
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@st.composite
def kernel_operands(draw, lo, hi):
    """Two operators on a few orbitals of ``lo..hi``, always including
    ``hi``, so that creation and annihilation sets often overlap; either
    may be empty, and the empty groups give the identity key."""
    orbitals = sorted(draw(st.sets(st.integers(lo, hi), max_size=5)) | {hi})
    group = st.sets(st.sampled_from(orbitals), max_size=3).map(
        lambda s: tuple(sorted(s, reverse=True))
    )
    values = ORDER_SENSITIVE | st.just(0.0)
    return [
        NormalOrderedOperator(
            draw(st.dictionaries(st.tuples(group, group), values, max_size=8)),
            drop_tolerance=0.0,
        )
        for _ in range(2)
    ]


@pytest.mark.parametrize("cells", [None, 3], ids=["one-slice", "sliced"])
@pytest.mark.parametrize("branch", sorted(KEY_BRANCHES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_kernel_matches_loop(branch, cells, data):
    # orbital 62 puts a bit next to the sign bit, where the prefix-parity
    # shift must drop it; a tiny cell budget cuts the pair axis into slices
    a, b = data.draw(kernel_operands(*KEY_BRANCHES[branch]))
    with mock.patch.object(fermion, "_CELL_BUDGET", cells or fermion._CELL_BUDGET):
        _assert_same_arrays(_product_terms(a, b), loop_product_terms(a, b))


@pytest.mark.parametrize("branch", sorted(COMBINE_BRANCHES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hermitian_product_is_the_sum_with_the_adjoint(branch, data):
    # one entry per adjoint pair, expanded, is m + m.adjoint() (sign +1) or
    # m - m.adjoint() (sign -1) to the byte: the same keys in the same order
    # with the same coefficients
    a, b = data.draw(kernel_operands(*COMBINE_BRANCHES[branch]))
    m = multiply(a, b, drop_tolerance=0.0)
    for sign, want in ((1, m + m.adjoint()), (-1, m - m.adjoint())):
        pairs = hermitian_product(a, b, 0, sign)
        assert (pairs.cre <= pairs.ann).all()
        assert len(pairs.val) == np.count_nonzero(want.cre <= want.ann)
        assert pairs.n_terms() == len(want)
        got = expand_pairs(pairs, sign)
        _assert_same_arrays((got.cre, got.ann, got.val), (want.cre, want.ann, want.val))


@pytest.mark.parametrize("branch", sorted(KEY_BRANCHES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_products_do_not_depend_on_the_row_order_of_b(branch, data):
    # inside one (term of a, contraction subset) block no two rows of b give
    # the same key, so each key's values reach the sum in block order
    # whatever order b's rows come in
    a, b = data.draw(kernel_operands(*KEY_BRANCHES[branch]))
    order = np.array(data.draw(st.permutations(range(len(b)))), dtype=np.intp)
    shuffled = NormalOrderedOperator._from_arrays(b.cre[order], b.ann[order], b.val[order])
    got, want = multiply(a, shuffled), multiply(a, b)
    _assert_same_arrays((got.cre, got.ann, got.val), (want.cre, want.ann, want.val))
    for sign in (1, -1):
        _assert_same_arrays(hermitian_product(a, shuffled, 0, sign), hermitian_product(a, b, 0, sign))


def test_product_kernel_matches_loop_on_empty_and_identity():
    zero = NormalOrderedOperator.zero()
    one = NormalOrderedOperator.identity(-2.5)
    mixed = NormalOrderedOperator(
        {((3, 1), (3, 0)): 1.5, ((), ()): 0.25, ((2,), (2,)): -1.0, ((0,), ()): 2.0}
    )
    # the identity contracts nothing, so it passes the other factor through
    cases = [(zero, zero, 0), (zero, mixed, 0), (mixed, zero, 0), (one, one, 1),
             (one, mixed, 4), (mixed, one, 4), (mixed, mixed, None)]
    for a, b, count in cases:
        got = _product_terms(a, b)
        _assert_same_arrays(got, loop_product_terms(a, b))
        assert count is None or len(got[0]) == count


@pytest.mark.parametrize("name", ["h2_sto6g_local", "h4_sto6g_local"])
def test_product_kernel_matches_loop_on_error_operator_build(fixture_dir, name):
    seq = build_trotter_sequence(load_fcidump(fixture_dir / f"{name}.fcidump"))
    products = []

    def checked(a, b):
        got = _product_terms(a, b)
        _assert_same_arrays(got, loop_product_terms(a, b))
        products.append(len(got[0]))
        return got

    with mock.patch.object(fermion, "_product_terms", checked):
        build_error_operator(seq, 1.0)
    assert len(products) == 2 * len(seq.fragments) and sum(products) > 0
