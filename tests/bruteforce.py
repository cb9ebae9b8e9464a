"""Reference implementations used only by the test suite.

The dense references work on explicit 2^N x 2^N matrices built from first
principles (occupation bitmasks and per-orbital parity counting) so the
package's sparse algebra can be checked against an independent code path.
The per-term and term-map references below are the straightforward loops
the package's vectorized kernels replace.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

import numpy as np

from trotterr.fermion import (
    DEFAULT_DROP_TOLERANCE,
    Key,
    LadderOp,
    LadderTerm,
    NormalOrderedOperator,
    _as_ops,
    _bits_desc,
    _check_orbital,
    _submasks,
    ann,
    cre,
    multiply,
    operator_sum,
)
from trotterr.hamiltonian import TERM_DROP_THRESHOLD, _chemist_orbit


def dense_ladder(n_orbitals: int, orbital: int, creation: bool) -> np.ndarray:
    """Dense matrix of one ladder operator on the full Fock space.

    Basis kets are |s> = prod over occupied p ascending of a_p^+ |0>, so the
    fermionic sign for acting on orbital p is (-1)^(occupied bits below p).
    """
    dim = 1 << n_orbitals
    mat = np.zeros((dim, dim))
    bit = 1 << orbital
    for s in range(dim):
        sign = -1.0 if bin(s & (bit - 1)).count("1") & 1 else 1.0
        if creation:
            if not s & bit:
                mat[s | bit, s] = sign
        else:
            if s & bit:
                mat[s & ~bit, s] = sign
    return mat


def dense_term(n_orbitals: int, coeff: float, ops: tuple[LadderOp, ...]) -> np.ndarray:
    dim = 1 << n_orbitals
    mat = coeff * np.eye(dim)
    for op in ops:
        mat = mat @ dense_ladder(n_orbitals, op.orbital, op.creation)
    return mat


def dense_operator(n_orbitals: int, op: NormalOrderedOperator) -> np.ndarray:
    dim = 1 << n_orbitals
    mat = np.zeros((dim, dim))
    for (creations, annihilations), coeff in op.terms.items():
        ladder_ops = tuple(LadderOp(p, True) for p in creations) + tuple(
            LadderOp(p, False) for p in annihilations
        )
        mat += dense_term(n_orbitals, coeff, ladder_ops)
    return mat


# ---------------------------------------------------------------------------
# Per-term reference for the occupation-basis action.
#
# One term at a time, one ladder operator at a time: the loop the vectorized
# term-action table in ``trotterr.fock`` replaces.  Images are accumulated
# term by term in ``op.terms`` order, so the package must agree bit for bit.
# ---------------------------------------------------------------------------


def _term_action(key, states: np.ndarray):
    """(source positions, image bitmasks, signs) of one canonical key; sources
    whose image vanishes are dropped."""
    creations, annihilations = key
    amask = sum(1 << p for p in annihilations)
    cmask = sum(1 << p for p in creations)
    occupied = (states & amask) == amask
    stripped = states[occupied] & ~np.int64(amask)
    creatable = (stripped & cmask) == 0
    src = np.flatnonzero(occupied)[creatable]
    cur = stripped[creatable]
    sign = np.ones(len(cur), dtype=np.int64)
    # annihilations act smallest orbital first (rightmost in the string)
    for p in reversed(annihilations):
        parity = np.bitwise_count(cur & np.int64((1 << p) - 1)) & 1
        sign = np.where(parity, -sign, sign)
        cur = cur & ~np.int64(1 << p)
    for p in reversed(creations):
        parity = np.bitwise_count(cur & np.int64((1 << p) - 1)) & 1
        sign = np.where(parity, -sign, sign)
        cur = cur | np.int64(1 << p)
    return src, cur, sign


def _per_term(op: NormalOrderedOperator, states: np.ndarray):
    """Yield (image positions, source positions, coeff * sign) per term, with
    images outside ``states`` projected away."""
    dim = len(states)
    for key, coeff in op.terms.items():
        src, images, sign = _term_action(key, states)
        if not len(src):
            continue
        pos = np.searchsorted(states, images)
        pos[pos >= dim] = dim - 1
        found = states[pos] == images
        yield pos[found], src[found], coeff * sign[found]


def per_term_apply(op: NormalOrderedOperator, basis, v: np.ndarray) -> np.ndarray:
    out = np.zeros(basis.dim)
    for rows, cols, vals in _per_term(op, basis.states):
        out[rows] += vals * v[cols]
    return out


def per_term_dense(op: NormalOrderedOperator, basis) -> np.ndarray:
    mat = np.zeros((basis.dim, basis.dim))
    for rows, cols, vals in _per_term(op, basis.states):
        mat[rows, cols] += vals
    return mat


def concatenated_table(op: NormalOrderedOperator, basis):
    """The per-term entries as one unsliced table with int64 indices, and
    the ``apply`` and ``dense`` that one ``np.add.at`` over it gives: the
    term-action table before it was preallocated and sliced."""
    parts = [
        (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)),
        *_per_term(op, basis.states),
    ]
    rows, cols, vals = (np.concatenate(col) for col in zip(*parts))

    def table_apply(v: np.ndarray) -> np.ndarray:
        out = np.zeros(basis.dim)
        np.add.at(out, rows, vals * v[cols])
        return out

    def table_dense() -> np.ndarray:
        mat = np.zeros((basis.dim, basis.dim))
        np.add.at(mat, (rows, cols), vals)
        return mat

    return (rows, cols, vals), table_apply, table_dense


def source_count_formula(op: NormalOrderedOperator, basis) -> int:
    """Sources of all terms on the complete basis of ``basis``'s kind: a
    term with masks C, A acts on comb(N - |A u C|, n - |A|) states of the
    n-electron sector and on 2^(N - |A u C|) of the full space."""
    total = 0
    for c, a in zip(op.cre.tolist(), op.ann.tolist()):
        free = basis.n_orbitals - (c | a).bit_count()
        if basis.n_electrons is None:
            total += 2**free
        elif basis.n_electrons >= a.bit_count():
            total += math.comb(free, basis.n_electrons - a.bit_count())
    return total


# ---------------------------------------------------------------------------
# Enumeration references for the bases: the combination loops the vectorized
# sector enumerator and the sector filter of ``excitation_basis`` replace.
# ---------------------------------------------------------------------------


def combinations_sector(n_orbitals: int, n_electrons: int) -> np.ndarray:
    """The ``n_electrons``-electron states, one combination of occupied
    orbitals at a time, sorted ascending."""
    states = [
        sum(1 << p for p in occ) for occ in combinations(range(n_orbitals), n_electrons)
    ]
    return np.sort(np.array(states, dtype=np.int64))


def loop_excitation_states(reference: int, level: int, n_orbitals: int) -> np.ndarray:
    """The states within ``level`` excitations of ``reference``: j holes
    among its occupied orbitals and j particles among its virtual ones, for
    every j up to ``level``, sorted ascending."""
    occupied = [p for p in range(n_orbitals) if reference >> p & 1]
    virtual = [p for p in range(n_orbitals) if not reference >> p & 1]
    states = set()
    for j in range(min(level, len(occupied)) + 1):
        for holes in combinations(occupied, j):
            removed = reference
            for p in holes:
                removed ^= 1 << p
            for parts in combinations(virtual, j):
                state = removed
                for p in parts:
                    state |= 1 << p
                states.add(state)
    return np.array(sorted(states), dtype=np.int64)


# ---------------------------------------------------------------------------
# String-rewriting reference for ``normal_order``.
#
# Iterated anticommutation: ``a_p a_q^+ = delta_pq - a_q^+ a_p`` swaps a
# defect (an annihilator directly left of a creator), and sorting within a
# group flips the sign once per transposition.  It terminates because every
# swap either shortens the string by two or strictly lowers the number of
# misordered pairs.  An op is encoded as (orbital << 1) | flag with flag 1
# for creation.  This is the engine the package's fold over the product
# kernel replaced; keys come out in the order the rewriting reaches them.
# ---------------------------------------------------------------------------


def _sort_desc(vals: Iterable[int]) -> tuple[tuple[int, ...] | None, int]:
    """Sort descending, counting transpositions; None signals a repeat."""
    lst = list(vals)
    swaps = 0
    for i in range(1, len(lst)):
        j = i
        while j and lst[j - 1] < lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            swaps += 1
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return None, swaps
    return tuple(lst), swaps


def _normal_order_codes(codes: tuple[int, ...], start: int = 0) -> dict[Key, int]:
    """Reduce an encoded operator string to canonical keys with integer signs.

    ``start`` is a scan hint: positions left of it are known defect-free.
    """
    out: dict[Key, int] = {}
    stack: list[tuple[int, tuple[int, ...], int]] = [(1, codes, start)]
    while stack:
        sign, s, lo = stack.pop()
        n = len(s)
        i = lo
        defect = -1
        while i < n - 1:
            if not s[i] & 1 and s[i + 1] & 1:
                defect = i
                break
            i += 1
        if defect >= 0:
            i = defect
            nxt = i - 1 if i else 0
            swapped = s[:i] + (s[i + 1], s[i]) + s[i + 2:]
            stack.append((-sign, swapped, nxt))
            if s[i] >> 1 == s[i + 1] >> 1:
                stack.append((sign, s[:i] + s[i + 2:], nxt))
            continue
        # No defect left: creations all precede annihilations.
        k = 0
        while k < n and s[k] & 1:
            k += 1
        cre_sorted, sw1 = _sort_desc(c >> 1 for c in s[:k])
        if cre_sorted is None:
            continue
        ann_sorted, sw2 = _sort_desc(c >> 1 for c in s[k:])
        if ann_sorted is None:
            continue
        key = (cre_sorted, ann_sorted)
        val = -sign if (sw1 + sw2) & 1 else sign
        out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v}


def loop_normal_order(term, *, drop_tolerance: float = DEFAULT_DROP_TOLERANCE) -> NormalOrderedOperator:
    """``normal_order`` by string rewriting, independent of the product
    kernel."""
    coeff, ops = _as_ops(term)
    codes = []
    for op in ops:
        _check_orbital(op.orbital)
        codes.append(op.orbital << 1 | (1 if op.creation else 0))
    out: dict[Key, float] = {}
    for key, sign in _normal_order_codes(tuple(codes)).items():
        out[key] = coeff * sign
    return NormalOrderedOperator(out, drop_tolerance=drop_tolerance)


# ---------------------------------------------------------------------------
# Term-map references for the packed operator arithmetic.
#
# The dict arithmetic the array core replaces.  Key order and the order in
# which each key's values are added decide the bits of every later sum over
# terms, so the package must match these in order and value, not just as
# sets.
# ---------------------------------------------------------------------------


def scalar_multiply(a: NormalOrderedOperator, b: NormalOrderedOperator) -> dict:
    """Product term map of ``a b``: every pair of terms is written out as a
    ladder string and reduced by ``loop_normal_order``."""
    out: dict = {}
    for (c1, a1), v1 in a.terms.items():
        for (c2, a2), v2 in b.terms.items():
            ops = (
                tuple(LadderOp(p, True) for p in c1)
                + tuple(LadderOp(p, False) for p in a1)
                + tuple(LadderOp(p, True) for p in c2)
                + tuple(LadderOp(p, False) for p in a2)
            )
            reduced = loop_normal_order(LadderTerm(v1 * v2, ops), drop_tolerance=0.0)
            for key, c in reduced.terms.items():
                out[key] = out.get(key, 0.0) + c
    return out


def _pruned(terms: dict, tol: float) -> dict:
    return {k: c for k, c in terms.items() if abs(c) >= tol}


def dict_add(a: dict, b: dict, tol: float = DEFAULT_DROP_TOLERANCE) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) + c
    return _pruned(out, tol)


def dict_sub(a: dict, b: dict, tol: float = DEFAULT_DROP_TOLERANCE) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) - c
    return _pruned(out, tol)


def dict_sum(ops, tol: float = DEFAULT_DROP_TOLERANCE) -> dict:
    out: dict = {}
    for terms in ops:
        for key, c in terms.items():
            out[key] = out.get(key, 0.0) + c
    return _pruned(out, tol)


def dict_adjoint(a: dict) -> dict:
    out: dict = {}
    for (creations, annihilations), c in a.items():
        k, l = len(creations), len(annihilations)
        sign = -1 if (k * (k - 1) // 2 + l * (l - 1) // 2) & 1 else 1
        key = (annihilations, creations)
        out[key] = out.get(key, 0.0) + sign * c
    return out


def dict_commutator(
    a: NormalOrderedOperator, b: NormalOrderedOperator, tol: float = DEFAULT_DROP_TOLERANCE
) -> dict:
    """``ab - ba`` as a term-map subtraction of the package's two products
    (which ``scalar_multiply`` checks separately)."""
    ab = multiply(a, b, drop_tolerance=0.0).terms
    ba = multiply(b, a, drop_tolerance=0.0).terms
    return dict_sub(ab, ba, tol)


def mask_order(terms: dict) -> list:
    """Keys ascending by (creation mask, annihilation mask): product order."""
    return sorted(
        terms, key=lambda k: (sum(1 << p for p in k[0]), sum(1 << p for p in k[1]))
    )


# ---------------------------------------------------------------------------
# Per-pair reference for the bitmask product kernel.
#
# One (term of ``a``, contraction subset T) pair at a time over all of ``b``,
# with one popcount per set bit for the sign: the loop the broadcast pass in
# ``trotterr.fermion._product_terms`` replaces.  The parities (a)-(e) are the
# ones in the kernel comment there.  The package must emit the same three
# arrays, in the same order and to the bit.
# ---------------------------------------------------------------------------

_ABOVE = tuple(
    np.int64(((1 << 63) - 1) & ~((1 << (p + 1)) - 1)) for p in range(63)
)


def loop_product_terms(a: NormalOrderedOperator, b: NormalOrderedOperator):
    """Unsummed ``(cre, ann, val)`` of every term of ``a b``."""
    b_cre, b_ann, b_val = b.cre, b.ann, b.val
    cre_chunks = [np.empty(0, dtype=np.int64)]
    ann_chunks = [np.empty(0, dtype=np.int64)]
    val_chunks = [np.empty(0)]
    for c1m, a1m, ca in zip(a.cre.tolist(), a.ann.tolist(), a.val.tolist()):
        k = a1m.bit_count()
        for t in _submasks(a1m):
            rest_ann = a1m ^ t  # A1 \ T, row-independent
            ok = (b_cre & t) == t
            rem = b_cre & np.int64(~t)  # C2 \ T
            ok &= (rem & c1m) == 0
            ok &= (b_ann & rest_ann) == 0
            if not np.any(ok):
                continue
            cre_rows = b_cre[ok]
            rem_rows = rem[ok]
            ann_rows = b_ann[ok]
            par = np.zeros(cre_rows.shape, dtype=np.int64)
            for x in _bits_desc(t):  # (a) hops before each contraction
                par += np.bitwise_count(cre_rows & _ABOVE[x])
            if (k - t.bit_count()) & 1:  # (b) odd pass-through count
                par += np.bitwise_count(cre_rows)
            for u in _bits_desc(c1m):  # (d) creation merge
                par += np.bitwise_count(rem_rows & _ABOVE[u])
            for x in _bits_desc(rest_ann):  # (e) annihilation merge
                par += np.bitwise_count(ann_rows & _ABOVE[x])
            const = 0
            for x in _bits_desc(t):  # (c) contracted partners below A1\T
                const += (rest_ann >> (x + 1)).bit_count()
            sign = 1.0 - 2.0 * ((par + const) & 1)
            cre_chunks.append(c1m | rem_rows)
            ann_chunks.append(rest_ann | ann_rows)
            val_chunks.append(ca * sign * b_val[ok])
    return np.concatenate(cre_chunks), np.concatenate(ann_chunks), np.concatenate(val_chunks)


# ---------------------------------------------------------------------------
# Spin expansion reference.
# ---------------------------------------------------------------------------


def loop_spin_expand(system):
    """Spin-orbital integrals of ``system`` by a scan over every (2 norb)^4
    index quadruple: the spin-orbital ``h1`` array and the physicist ``h2``
    dict, entries above ``TERM_DROP_THRESHOLD``, ``h2`` keys in scan order,
    ascending by (p, q, r, s)."""
    norb = len(system.h1)
    n = 2 * norb
    h1 = np.zeros((n, n))
    for i in range(norb):
        for j in range(norb):
            v = system.h1[i, j]
            if abs(v) > TERM_DROP_THRESHOLD:
                h1[2 * i, 2 * j] = v
                h1[2 * i + 1, 2 * j + 1] = v
    h2: dict = {}
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if q % 2 != r % 2:
                    continue
                for s in range(n):
                    if p % 2 != s % 2:
                        continue
                    v = system.eri[p // 2, s // 2, q // 2, r // 2]
                    if abs(v) > TERM_DROP_THRESHOLD:
                        h2[(p, q, r, s)] = float(v)
    return h1, h2


def loop_integral_terms(system):
    """The ``(cre, ann, val, label)`` term arrays read term by term off
    :func:`loop_spin_expand`: the construction
    ``trotterr.hamiltonian._integral_terms`` replaces.  One-body pairs row by
    row, each followed by its mirror, then ``h2`` in key order; the label is
    the spatial pair ``i * norb + j``, or ``norb**2`` plus the base-``norb``
    digits of the least chemist representative of the term's integral."""
    norb = len(system.h1)
    h1, h2 = loop_spin_expand(system)
    rows = []
    for p in range(2 * norb):
        for q in range(p, 2 * norb):
            v = h1[p, q]
            if abs(v) > TERM_DROP_THRESHOLD:
                label = p // 2 * norb + q // 2
                rows.append((1 << p, 1 << q, v, label))
                if p != q:
                    rows.append((1 << q, 1 << p, v, label))
    for (p, q, r, s), v in h2.items():
        if p == q or r == s:
            continue
        sign = -1.0 if (p < q) != (r < s) else 1.0
        i, j, k, l = min(_chemist_orbit(p // 2, s // 2, q // 2, r // 2))
        label = norb * norb + ((i * norb + j) * norb + k) * norb + l
        rows.append(((1 << p) | (1 << q), (1 << r) | (1 << s), (0.5 * v) * sign, label))
    rows = [row for row in rows if abs(row[2]) >= DEFAULT_DROP_TOLERANCE]
    cre, ann, val, label = (list(column) for column in zip(*rows)) if rows else ([],) * 4
    return (
        np.array(cre, dtype=np.int64),
        np.array(ann, dtype=np.int64),
        np.array(val, dtype=np.float64),
        np.array(label, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Per-integral references for the Hamiltonian and its fragments.
#
# Every integral is reduced by ``loop_normal_order`` and the pieces are
# summed with ``+`` or ``operator_sum``: the construction that
# ``trotterr.hamiltonian._integral_terms`` replaces.  Fragments are returned
# as ``(key, fragment)`` pairs, the key being the fragment's index tuple, and
# ``ordered_fragments`` puts them in sequence order by sorting those tuples:
# the construction that ``build_trotter_sequence``'s label sort replaces.
# ---------------------------------------------------------------------------


def per_integral_hamiltonian(system) -> NormalOrderedOperator:
    pieces = []
    n = system.n_spin_orbitals
    h1, h2 = loop_spin_expand(system)
    for p in range(n):
        for q in range(n):
            v = float(h1[p, q])
            if abs(v) > TERM_DROP_THRESHOLD:
                pieces.append(loop_normal_order(LadderTerm(v, (cre(p), ann(q)))))
    for (p, q, r, s), v in h2.items():
        pieces.append(loop_normal_order(LadderTerm(0.5 * v, (cre(p), cre(q), ann(r), ann(s)))))
    return operator_sum(pieces)


def per_integral_fragments_by_integral(system):
    n = system.n_spin_orbitals
    norb = n // 2
    h1, h2 = loop_spin_expand(system)
    out = []
    for i in range(norb):
        for j in range(i, norb):
            frag = NormalOrderedOperator.zero()
            for (p, q) in ((2 * i, 2 * j), (2 * i + 1, 2 * j + 1)):
                vv = float(h1[p, q])
                if abs(vv) <= TERM_DROP_THRESHOLD:
                    continue
                frag = frag + loop_normal_order(LadderTerm(vv, (cre(p), ann(q))))
                if p != q:
                    frag = frag + loop_normal_order(LadderTerm(vv, (cre(q), ann(p))))
            out.append(((0, i, j, 0, 0), frag))
    buckets: dict = {}
    for (p, q, r, s), v in h2.items():
        rep = min(_chemist_orbit(p // 2, s // 2, q // 2, r // 2))
        term = loop_normal_order(LadderTerm(0.5 * v, (cre(p), cre(q), ann(r), ann(s))))
        buckets[rep] = buckets.get(rep, NormalOrderedOperator.zero()) + term
    for rep, frag in buckets.items():
        out.append(((1,) + rep, frag))
    return out


def per_integral_fragments_by_term(system):
    n = system.n_spin_orbitals
    h1, h2 = loop_spin_expand(system)
    out = []
    for p in range(n):
        for q in range(p, n):
            v = float(h1[p, q])
            if abs(v) <= TERM_DROP_THRESHOLD:
                continue
            frag = loop_normal_order(LadderTerm(v, (cre(p), ann(q))))
            if p != q:
                frag = frag + loop_normal_order(LadderTerm(v, (cre(q), ann(p))))
            out.append(((0, p, q, 0, 0), frag))
    acc = operator_sum(
        loop_normal_order(LadderTerm(0.5 * v, (cre(p), cre(q), ann(r), ann(s))))
        for (p, q, r, s), v in h2.items()
    )
    terms = acc.terms
    seen = set()
    for key in terms:
        if key in seen:
            continue
        creations, annihilations = key
        adj_key = (annihilations, creations)
        # a term first, its adjoint second: first-seen order
        group = [key]
        if adj_key != key and adj_key in terms:
            group.append(adj_key)
        seen.update(group)
        frag = NormalOrderedOperator({k: terms[k] for k in group}, drop_tolerance=0.0)
        rep = min(k[0] + k[1] for k in group)
        out.append(((1,) + rep, frag))
    return out


def ordered_fragments(keyed, ordering):
    """The nonzero fragments of ``keyed`` in sequence order: by key tuple
    (``flat-lexicographic``), or the diagonal ones by key followed by the
    rest by key (``lexicographic``) or by descending coefficient one-norm,
    key as tie-break (``magnitude-descending``)."""
    keyed = sorted((t for t in keyed if t[1]), key=lambda t: t[0])
    if ordering != "flat-lexicographic":
        diagonal = [t for t in keyed if np.all(t[1].cre == t[1].ann)]
        off = [t for t in keyed if not np.all(t[1].cre == t[1].ann)]
        if ordering == "magnitude-descending":
            off.sort(key=lambda t: (-t[1].coefficient_l1(), t[0]))
        keyed = diagonal + off
    return [frag for _, frag in keyed]


# ---------------------------------------------------------------------------
# Orbital marginals reference.
# ---------------------------------------------------------------------------


def loop_orbital_marginals(op: NormalOrderedOperator, n_orbitals: int) -> np.ndarray:
    """Per-orbital-pair magnitudes by a walk over the term map, counting
    each orbital's ladder multiplicity: the loop
    ``trotterr.analysis.orbital_marginals`` replaces."""
    mat = np.zeros((n_orbitals, n_orbitals))
    for (creations, annihilations), coeff in op.terms.items():
        counts: dict[int, int] = {}
        for p in creations + annihilations:
            counts[p] = counts.get(p, 0) + 1
        orbitals = sorted(counts)
        weight = abs(coeff)
        for a_idx, i in enumerate(orbitals):
            if counts[i] >= 2:
                mat[i, i] += weight
            for j in orbitals[a_idx + 1 :]:
                mat[i, j] += weight
                mat[j, i] += weight
    return mat


# ---------------------------------------------------------------------------
# Haar sampler references.
# ---------------------------------------------------------------------------


def sample_haar_vector(dim: int, rng: np.random.Generator, *, ensemble: str = "complex"):
    """One Haar-random unit vector of length ``dim``: normalized i.i.d.
    standard Gaussians, two real ones per component for the complex
    ensemble.  Its distribution is invariant under every fixed rotation from
    the matching group, the premise ``trotterr.haar._sample_quadratic_form``
    rests on when it draws overlap weights directly."""
    v = rng.standard_normal(dim)
    if ensemble == "complex":
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def loop_sample_quadratic_form(lam, n_samples, seed, ensemble, block_size):
    """Fresh ``(count, dim)`` Gaussian arrays per block: the loop
    ``trotterr.haar._sample_quadratic_form`` replaces with reused buffers."""
    out = np.empty(n_samples)
    n_blocks = -(-n_samples // block_size)
    start = 0
    for child in np.random.SeedSequence(seed).spawn(n_blocks):
        rng = np.random.default_rng(child)
        count = min(block_size, n_samples - start)
        g = rng.standard_normal((count, lam.size))
        w = g * g
        if ensemble == "complex":
            g = rng.standard_normal((count, lam.size))
            w += g * g
        out[start : start + count] = (w @ lam) / w.sum(axis=1)
        start += count
    return out
