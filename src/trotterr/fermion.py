"""Sparse normal-ordered algebra for fermionic ladder operators.

Operators are finite real linear combinations of products of creation and
annihilation operators obeying

    {a_p, a_q^+} = delta_pq,   {a_p, a_q} = {a_p^+, a_q^+} = 0.

Every operator is kept in canonical normal-ordered form: each term is a
string of creation operators followed by annihilation operators, with the
orbital indices inside each group strictly descending.  A term with a
repeated index inside a group is identically zero and is never stored.  The
canonical key for ``a_3^+ a_1^+ a_2 a_1`` is ``((3, 1), (2, 1))``.

An operator is stored as three parallel arrays, one entry per term:
``cre`` and ``ann`` hold the creation and annihilation orbitals as int64
bitmasks (bit p is spin orbital p, so orbitals stop at 62) and ``val`` the
coefficient.  Every operation works on these arrays; the dict ``terms`` is
built only on request, for inspection (the package itself never reads it).

Term order fixes the floating-point order of every later sum over terms
(Fock-space matrices, orbital marginals, the coefficient one-norm), so
reports are reproducible to the byte only while it is.  Two rules define it:
a product (``multiply``, each product inside ``commutator``) lists its keys
ascending by ``(cre, ann)``; a sum (``+``, ``-``, ``operator_sum``, the
``ab - ba`` of ``commutator``) lists them in order of first appearance over
its inputs and adds each key's values in input order, starting from 0.0.

Both rules rest on one accumulation routine that groups terms by a single
int64 sort key.  With ``w`` the bit length of the largest annihilation mask,
the key is ``cre << w | ann``; since every ``ann < 2**w``, ascending key
order is exactly ascending ``(cre, ann)`` order.  The routine shifts each
key left by the bit length of the largest input position and writes the
term's position into the freed bits.  When the packed key and the position
tag would need more than 63 bits together (at 21 spin orbitals beyond 2**21
terms, at 31 from three terms), the key is instead the dense rank of the
term's ``(cre, ann)`` pair, found by one lexsort.  A plain ``np.sort`` of
the tagged keys orders the terms by key and, within a key, by input
position, so no two entries tie and the order is fully fixed.  Each key's values then
reach ``np.bincount`` in input order, which adds them from 0.0 exactly as
the term-map loop does, and each key's first sorted entry is its first
appearance.  ``RunningSum``, a sum held as one float per key of a sorted
key set, finds or places a key by the same rule: its packed key while the
two masks fit side by side, else its rank among the set's keys.

A Hermitian sum ``m + m.adjoint()`` of a product, or the anti-Hermitian
``m - m.adjoint()``, can also be built as one entry per adjoint pair
(``hermitian_product``, ``PairTerms``), with the coefficients of the full
sum bit for bit.  ``sum_pairs`` adds such pieces pair by pair, and
``expand_pairs`` restores both keys of every pair and the term order of
the sum over the full pieces.

Ladder strings are reduced by the same product kernel: ``normal_order``
multiplies the identity by one single-operator term per ladder operator,
left to right, so its keys follow the product rule.  The classic small case

    a_2 a_1 a_1^+ a_3^+  =  a_1^+ a_3^+ a_2 a_1  -  a_3^+ a_2

reduces to the keys ``((3,), (2,))`` (coefficient -1) and
``((3, 1), (2, 1))`` (coefficient -1), in that order.

Coefficients with magnitude below a drop tolerance (default ``1e-12``) are
removed after every accumulation pass.  All operations return new objects;
instances are treated as immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ResourceLimitError, ValidationError

DEFAULT_DROP_TOLERANCE = 1e-12

# the Hermitian defect an operator may carry, relative to max(1, its
# coefficient one-norm)
HERMITIAN_REL_TOL = 1e-8

# The one bound on the transient arrays of every chunked array pass: the
# product kernel's pair slices, the term chunks of ``fock``'s action table
# and the slices its ``apply`` and ``dense`` add up.  2^18 int64 cells are
# 2 MiB.  A smaller budget is not free: glibc sets its mmap and trim
# thresholds from the largest block freed, so smaller blocks let the heap
# be trimmed and regrown more often, at a page fault per regrown page.
_CELL_BUDGET = 1 << 18

# A canonical term key: (creation orbitals desc, annihilation orbitals desc).
Key = tuple[tuple[int, ...], tuple[int, ...]]

IDENTITY_KEY: Key = ((), ())

# Orbital masks are non-negative int64, so bits 0..62 are usable.
_MASK_ORBITALS = 63
_ORBITAL_BITS = (1 << _MASK_ORBITALS) - 1


class LadderOp(NamedTuple):
    """A single ladder operator acting on one spin orbital."""

    orbital: int
    creation: bool

    def __repr__(self) -> str:
        return f"a{self.orbital}^+" if self.creation else f"a{self.orbital}"


def cre(orbital: int) -> LadderOp:
    """Creation operator on ``orbital``."""
    return LadderOp(orbital, True)


def ann(orbital: int) -> LadderOp:
    """Annihilation operator on ``orbital``."""
    return LadderOp(orbital, False)


class LadderTerm(NamedTuple):
    """A scalar coefficient times an ordered product of ladder operators.

    ``ops`` is written left to right in operator order: ``ops[-1]`` acts
    first on a ket.
    """

    coeff: float
    ops: tuple[LadderOp, ...]


def _as_ops(term) -> tuple[float, tuple[LadderOp, ...]]:
    if isinstance(term, LadderTerm):
        return float(term.coeff), tuple(term.ops)
    coeff, ops = term
    return float(coeff), tuple(LadderOp(o.orbital, o.creation) for o in ops)


def _check_orbital(o) -> None:
    if not isinstance(o, int) or o < 0:
        raise ValidationError(f"orbital index {o!r} is not a non-negative int")
    if o >= _MASK_ORBITALS:
        raise ResourceLimitError(
            f"orbital index {o} exceeds the {_MASK_ORBITALS}-orbital mask width"
        )


def _check_key(key: Key) -> None:
    creations, annihilations = key
    for group in (creations, annihilations):
        for i, o in enumerate(group):
            _check_orbital(o)
            if i and group[i - 1] <= o:
                raise ValidationError(
                    f"key group {group} is not strictly descending"
                )


def _mask_of(orbitals: tuple[int, ...]) -> int:
    m = 0
    for p in orbitals:
        m |= 1 << p
    return m


@lru_cache(maxsize=None)
def _bits_desc(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        p = mask.bit_length() - 1
        out.append(p)
        mask ^= 1 << p
    return tuple(out)


# ---------------------------------------------------------------------------
# Public operator type.
# ---------------------------------------------------------------------------


class NormalOrderedOperator:
    """A real linear combination of canonical normal-ordered terms.

    Term i is ``val[i]`` times the creations in bitmask ``cre[i]`` followed
    by the annihilations in bitmask ``ann[i]``, each group in descending
    orbital order; keys are unique and ordered by the module's two rules.
    The constructor validates a ``{(creations, annihilations): coeff}`` map
    and keeps its order.  Treat instances and their arrays as read-only.
    """

    __slots__ = ("cre", "ann", "val")

    def __init__(
        self,
        terms: Mapping[Key, float] | None = None,
        *,
        drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
    ):
        cmasks, amasks, coeffs = [], [], []
        for key, coeff in (terms or {}).items():
            _check_key(key)
            c = float(coeff)
            if abs(c) >= drop_tolerance:
                cmasks.append(_mask_of(key[0]))
                amasks.append(_mask_of(key[1]))
                coeffs.append(c)
        self.cre = np.array(cmasks, dtype=np.int64)
        self.ann = np.array(amasks, dtype=np.int64)
        self.val = np.array(coeffs, dtype=np.float64)

    @classmethod
    def _from_arrays(cls, cmasks, amasks, coeffs) -> "NormalOrderedOperator":
        op = cls.__new__(cls)
        op.cre, op.ann, op.val = cmasks, amasks, coeffs
        return op

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "NormalOrderedOperator":
        return cls()

    @classmethod
    def identity(cls, coeff: float = 1.0) -> "NormalOrderedOperator":
        return cls({IDENTITY_KEY: coeff}, drop_tolerance=0.0)

    @classmethod
    def from_key(cls, key: Key, coeff: float = 1.0) -> "NormalOrderedOperator":
        return cls({key: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Key, float]:
        """The canonical term map, built on each access in term order."""
        return {
            (_bits_desc(c), _bits_desc(a)): v
            for c, a, v in zip(self.cre.tolist(), self.ann.tolist(), self.val.tolist())
        }

    def __len__(self) -> int:
        return len(self.val)

    def __bool__(self) -> bool:
        return len(self.val) > 0

    def coefficient_l1(self) -> float:
        """Sum of absolute coefficients, added one by one in term order
        from 0.0 (see :func:`_term_order_sum`)."""
        return _term_order_sum(np.abs(self.val))

    def max_abs_coefficient(self) -> float:
        return float(np.abs(self.val).max(initial=0.0))

    def max_orbital(self) -> int:
        """Largest orbital index touched, or -1 for a scalar operator."""
        return int(np.bitwise_or.reduce(self.cre | self.ann)).bit_length() - 1

    def conserves_particle_number(self) -> bool:
        return np.array_equal(np.bitwise_count(self.cre), np.bitwise_count(self.ann))

    def __repr__(self) -> str:
        return f"NormalOrderedOperator({len(self)} terms)"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "NormalOrderedOperator") -> "NormalOrderedOperator":
        return _sum((self, other), DEFAULT_DROP_TOLERANCE)

    def __sub__(self, other: "NormalOrderedOperator") -> "NormalOrderedOperator":
        return _sum((self, -other), DEFAULT_DROP_TOLERANCE)

    def __neg__(self) -> "NormalOrderedOperator":
        return NormalOrderedOperator._from_arrays(self.cre, self.ann, -self.val)

    def scaled(self, factor: float) -> "NormalOrderedOperator":
        factor = float(factor)
        if factor == 0.0:
            return NormalOrderedOperator.zero()
        return NormalOrderedOperator._from_arrays(self.cre, self.ann, self.val * factor)

    def __mul__(self, other):
        if isinstance(other, NormalOrderedOperator):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, factor: float) -> "NormalOrderedOperator":
        return self.scaled(factor)

    # -- structure ---------------------------------------------------------

    def adjoint(self) -> "NormalOrderedOperator":
        """Hermitian adjoint (real coefficients, so no conjugation)."""
        return NormalOrderedOperator._from_arrays(
            self.ann, self.cre, self.val * adjoint_sign(self.cre, self.ann)
        )

    def hermitian_defect(self) -> float:
        """Max coefficient deviation between the operator and its adjoint."""
        group = np.zeros(len(self), dtype=np.int64)
        return float(_hermitian_defects(group, self.cre, self.ann, self.val, 1)[0])

    def require_hermitian(self, message: str) -> None:
        """Raise ``ValidationError(message)`` unless the Hermitian defect is
        within ``HERMITIAN_REL_TOL``."""
        _require_hermitian(
            np.array([self.hermitian_defect()]), self.coefficient_l1(), message
        )

    def pruned(self, drop_tolerance: float = DEFAULT_DROP_TOLERANCE) -> "NormalOrderedOperator":
        keep = np.abs(self.val) >= drop_tolerance
        return NormalOrderedOperator._from_arrays(
            self.cre[keep], self.ann[keep], self.val[keep]
        )

    def allclose(self, other: "NormalOrderedOperator", atol: float = 1e-12) -> bool:
        return _max_difference(self, other) <= atol


# ---------------------------------------------------------------------------
# Accumulation on the term arrays.
# ---------------------------------------------------------------------------


def _combine(
    cmasks: np.ndarray,
    amasks: np.ndarray,
    coeffs: np.ndarray,
    drop_tolerance: float,
    *,
    first_seen: bool,
) -> NormalOrderedOperator:
    """Add up the coefficients of equal keys and drop the small sums (see
    :func:`_accumulate`)."""
    if not len(coeffs):
        return NormalOrderedOperator.zero()
    rows, sums = _accumulate((cmasks, amasks), coeffs, first_seen=first_seen)
    keep = np.abs(sums) >= drop_tolerance
    rows = rows[keep]
    return NormalOrderedOperator._from_arrays(cmasks[rows], amasks[rows], sums[keep])


def _accumulate(
    columns: tuple[np.ndarray, ...], coeffs: np.ndarray, *, first_seen: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key's first input position and its summed coefficient.

    A key is a row across the non-negative integer (or bool) ``columns``;
    keys order lexicographically over them, first column first.  Each term
    gets one int64 sort key in that order (``_sort_key``), with the term's
    input position as a last column in the low bits: the columns side by
    side while they fit in 63 bits beside it, else the dense rank of the
    term's key, counted from 1 in lexsort order.  So one plain ``np.sort``
    orders the terms by key and, within a key, by input position.
    ``np.bincount`` over the sorted labels then adds each key's coefficients
    in input order starting from 0.0, bit for bit what
    ``out[key] = out.get(key, 0.0) + c`` over the same input gives.
    Keys come out ascending, or with ``first_seen`` in order of first
    appearance.  ``coeffs`` must not be empty.
    """
    n = len(coeffs)
    # inputs can be millions of unsummed product terms, so the key buffer is
    # sorted, shifted and relabelled in place, and every n-sized temporary is
    # dropped before returning, to keep the peak and the retained heap down
    tag = (n - 1).bit_length()
    widths = [int(col.max()).bit_length() for col in columns]
    key = _sort_key((*columns, np.arange(n)), (*widths, tag))
    if key is None:  # ranks run to at most n, so they take tag + 1 bits
        key = _sort_key((_rank(*columns), np.arange(n)), (tag + 1, tag))
    key.sort()
    order = key & ((1 << tag) - 1)
    key >>= tag
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    group = np.cumsum(head, out=key)  # labels from 1: sums[0] stays unused
    sums = np.bincount(group, weights=coeffs[order])
    rows = order[head]  # each key's first input position, ascending by key
    del order, head
    if not first_seen:
        return rows, sums[1:]
    # mark each key's first position and give it the key's label (the sorted
    # labels are spent); reading the marks in input order lists the keys in
    # order of first appearance
    mark = np.zeros(n, dtype=bool)
    mark[rows] = True
    group[rows] = np.arange(1, len(rows) + 1)
    rows = np.flatnonzero(mark)
    return rows, sums[group[rows]]


def _term_order_sum(weights: np.ndarray) -> float:
    """``weights`` added one by one in input order from 0.0, as a
    term-by-term loop would: ``np.sum`` adds pairwise, and the builtin
    ``sum`` of floats compensates its rounding since Python 3.12."""
    return float(np.bincount(np.zeros(len(weights), dtype=np.intp), weights, 1)[0])


def _sort_key(columns: tuple[np.ndarray, ...], widths) -> np.ndarray | None:
    """One int64 per row of the non-negative integer (or bool) ``columns``,
    ascending in their lexicographic order: the columns side by side, the
    first in the highest bits, each column ``i`` below ``2**widths[i]``.
    None when the widths add up to more than 63 bits; the rows are then
    ordered by their ``_rank``."""
    if sum(widths) > _MASK_ORBITALS:
        return None
    key = columns[0].astype(np.int64)
    for col, width in zip(columns[1:], widths[1:]):
        key <<= width
        key |= col
    return key


def _rank(*columns: np.ndarray) -> np.ndarray:
    """Dense rank from 1 of each term's key across ``columns``, ascending
    in their lexicographic order."""
    order = np.lexsort(columns[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True  # no terms, no ranks
    for col in columns:
        c = col[order]
        new[1:] |= c[1:] != c[:-1]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.cumsum(new)
    return rank


def _stacked(ops: Iterable[NormalOrderedOperator]) -> tuple[np.ndarray, ...]:
    ops = [NormalOrderedOperator.zero(), *ops]  # typed arrays even for no ops
    return (
        np.concatenate([op.cre for op in ops]),
        np.concatenate([op.ann for op in ops]),
        np.concatenate([op.val for op in ops]),
    )


def _sum(ops: Iterable[NormalOrderedOperator], drop_tolerance: float) -> NormalOrderedOperator:
    return _combine(*_stacked(ops), drop_tolerance, first_seen=True)


def _max_difference(a: NormalOrderedOperator, b: NormalOrderedOperator) -> float:
    return _combine(*_stacked((a, -b)), 0.0, first_seen=False).max_abs_coefficient()


def _hermitian_defects(group, cre, ann, val, n_groups: int) -> np.ndarray:
    """The Hermitian defect of each of ``n_groups`` operators held in one
    term array: term i has key ``(cre[i], ann[i])``, coefficient ``val[i]``
    and belongs to operator ``group[i]``, in that operator's term order.

    The terms and their negated adjoints are summed per
    ``(group, cre, ann)``, each key's own term first, and an operator's
    defect is its largest absolute sum: for one operator, the largest
    coefficient deviation between it and its adjoint.  A NaN sum is passed
    over, as ``allclose`` passes it over.
    """
    defect = np.zeros(n_groups)
    if len(val):
        owner = np.concatenate([group, group])
        rows, diff = _accumulate(
            (owner, np.concatenate([cre, ann]), np.concatenate([ann, cre])),
            np.concatenate([val, -(val * adjoint_sign(cre, ann))]),
            first_seen=False,
        )
        np.fmax.at(defect, owner[rows], np.abs(diff))
    return defect


def _require_hermitian(defect: np.ndarray, l1, message: str) -> None:
    """Raise ``ValidationError(message)`` naming the first defect above
    ``HERMITIAN_REL_TOL * max(1, l1)``, with ``l1`` each operator's
    coefficient one-norm."""
    bad = defect > HERMITIAN_REL_TOL * np.maximum(1.0, l1)
    if bad.any():
        raise ValidationError(f"{message} (defect {defect[np.argmax(bad)]:.3e})")


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------


def normal_order(
    term: LadderTerm | tuple[float, Iterable[LadderOp]],
    *,
    drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
) -> NormalOrderedOperator:
    """Reduce an arbitrary ladder-operator product to canonical form, with
    keys ascending by ``(cre, ann)`` like any product's.

    The string is multiplied out from the identity, one ladder operator at
    a time, and scaled by the coefficient at the end.  Every intermediate
    value is an integer, so each sum is exact and each final value is the
    coefficient times an integer sign count; a tolerance of 0.5 between
    steps drops exactly the keys that cancel.
    """
    coeff, ops = _as_ops(term)
    out = NormalOrderedOperator.identity()
    none, one = np.zeros(1, dtype=np.int64), np.ones(1)
    for op in ops:
        _check_orbital(op.orbital)
        bit = np.array([1 << op.orbital], dtype=np.int64)
        halves = (bit, none) if op.creation else (none, bit)
        out = multiply(out, NormalOrderedOperator._from_arrays(*halves, one), drop_tolerance=0.5)
    return NormalOrderedOperator._from_arrays(out.cre, out.ann, out.val * coeff).pruned(
        drop_tolerance
    )


def multiply(
    a: NormalOrderedOperator,
    b: NormalOrderedOperator,
    *,
    drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
) -> NormalOrderedOperator:
    """Operator product, re-reduced to canonical normal-ordered form, with
    keys ascending by ``(cre, ann)``."""
    return _combine(*_product_terms(a, b), drop_tolerance, first_seen=False)


def adjoint_sign(cmasks: np.ndarray, amasks: np.ndarray) -> np.ndarray:
    """The factor, 1.0 or -1.0, that the adjoint puts on each key.

    ``(C^+ A)^+ = A^+ C`` with both groups reversed to ascending order;
    restoring descending order costs k(k-1)/2 + l(l-1)/2 transpositions
    for |C| = k and |A| = l, so a key and its adjoint share the factor.
    """
    k = np.bitwise_count(cmasks).astype(np.int64)
    l = np.bitwise_count(amasks).astype(np.int64)
    return 1.0 - 2.0 * ((k * (k - 1) // 2 + l * (l - 1) // 2) & 1)


class PairTerms(NamedTuple):
    """A sum of Hermitian pieces ``m + m.adjoint()``, or anti-Hermitian ones
    ``m - m.adjoint()`` (``sign`` +1 or -1), held as one entry per adjoint
    pair.

    Entry i is the key ``k = (cre[i], ann[i])`` with ``cre[i] <= ann[i]``
    and its coefficient ``val[i]``.  Unless ``cre[i] == ann[i]`` it also
    stands for ``k^+ = (ann[i], cre[i])``, whose coefficient is
    ``sign * adjoint_sign(k) * val[i]`` to the bit.  ``piece[i]`` is the
    index of the first piece that holds the pair, and ``own[i]`` and
    ``mirror[i]`` say whether ``k`` and ``k^+`` are keys of that piece's
    ``m``; together they fix where each key first appears in the sum (see
    :func:`expand_pairs`).
    """

    cre: np.ndarray
    ann: np.ndarray
    val: np.ndarray
    own: np.ndarray
    mirror: np.ndarray
    piece: np.ndarray

    @classmethod
    def empty(cls) -> "PairTerms":
        none = np.zeros(0, dtype=np.int64)
        no = np.zeros(0, dtype=bool)
        return cls(none, none, np.zeros(0), no, no, none)

    def n_terms(self) -> int:
        """The number of keys the entries stand for: two per pair, one per
        self-adjoint key."""
        return len(self.val) + int(np.count_nonzero(self.cre != self.ann))

    def expanded(self, sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cre, ann, val)`` of every key the entries stand for, in
        ``m + sign * m.adjoint()`` pieces: each entry's own key, then the
        partner of each entry that has one, in entry order."""
        two = self.cre != self.ann  # self-adjoint keys are their own partner
        cre, ann = self.cre[two], self.ann[two]
        return (
            np.concatenate([self.cre, ann]),
            np.concatenate([self.ann, cre]),
            np.concatenate([self.val, self.val[two] * (sign * adjoint_sign(cre, ann))]),
        )


def hermitian_product(
    a: NormalOrderedOperator, b: NormalOrderedOperator, piece: int, sign: int = 1
) -> PairTerms:
    """``m + sign * m.adjoint()`` for ``m = multiply(a, b, drop_tolerance=0.0)``
    and ``sign`` +1 or -1 (then the sum is ``m - m.adjoint()``), one entry
    per adjoint pair, with that sum's coefficients bit for bit, as piece
    number ``piece`` of a sum.

    The unsummed product terms are grouped once, by canonical key and by
    whether the term's own key is the canonical key or its adjoint, which
    gives ``m[k]`` and ``m[k^+]`` each added from 0.0 in input order as
    ``multiply`` adds them.  The pair's coefficient is then
    ``(0.0 + m[k]) + sign s m[k^+]``, the two values the sum adds for ``k``
    in that order (``2 m[k]`` or 0 for a self-adjoint key).  The sum for
    ``k^+`` adds ``sign s`` times those two values, in the other order;
    addition commutes and negation is exact, so it is ``sign s`` times the
    pair's coefficient to the bit.  Pairs below ``DEFAULT_DROP_TOLERANCE``
    are dropped, as that sum drops both of their keys.
    """
    cre, ann, val = _product_terms(a, b)
    if not len(val):
        return PairTerms.empty()
    mirrored = cre > ann
    hi = np.maximum(cre, ann)
    lo = np.minimum(cre, ann, out=cre)  # the terms' masks are spent
    del ann
    rows, m = _accumulate((lo, hi, mirrored), val, first_seen=False)
    lo, hi, mirrored = lo[rows], hi[rows], mirrored[rows]
    del rows, val
    # a pair's one or two groups are adjacent, its own key's first
    head = np.empty(len(m), dtype=bool)
    head[0] = True
    head[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    pair = np.cumsum(head) - 1
    first = np.flatnonzero(head)
    last = np.append(first[1:] - 1, len(m) - 1)
    lo, hi = lo[first], hi[first]
    m *= np.where(mirrored, sign * adjoint_sign(lo, hi)[pair], 1.0)
    val = np.bincount(pair, weights=m)
    val[lo == hi] *= 1.0 + sign  # the sum adds m[k] and sign * m[k] there
    keep = ~(np.abs(val) < DEFAULT_DROP_TOLERANCE)  # a NaN from overflow stays
    own, mirror = ~mirrored[first], mirrored[last]
    # one index for the whole piece: a read-only view, until sum_pairs
    # concatenates it
    return PairTerms(
        lo[keep], hi[keep], val[keep], own[keep], mirror[keep],
        np.broadcast_to(np.int64(piece), (np.count_nonzero(keep),)),
    )


def sum_pairs(parts: list[PairTerms]) -> PairTerms:
    """One accumulation pass over the entries of ``parts`` (at least one):
    each pair's coefficients are added in input order from 0.0, with no
    drop tolerance, and its first entry's ``own``, ``mirror`` and
    ``piece`` are kept."""
    total = PairTerms(*(np.concatenate(col) for col in zip(*parts)))
    if not len(total.val):
        return total
    rows, sums = _accumulate((total.cre, total.ann), total.val, first_seen=False)
    return PairTerms(*(col[rows] for col in total))._replace(val=sums)


def expand_pairs(pairs: PairTerms, sign: int = 1) -> NormalOrderedOperator:
    """The sum ``P_0 + P_1 + ...`` of the ``m + sign * m.adjoint()`` pieces
    that ``pairs`` has summed, in the sum's order of first appearance.

    A key first appears in its pair's first piece: pruning drops both keys
    of a pair or neither, since their coefficients differ only in sign.
    Inside a piece, the sum lists the keys of ``m`` ascending by
    ``(cre, ann)``, then the keys only in ``m.adjoint()`` ascending by their
    partner's ``(cre, ann)``, each partner being a key of ``m``.  One
    lexsort on (piece, only in the adjoint, the ``(cre, ann)`` it is listed
    by) restores that order; no key is packed, so it holds at any orbital
    count.
    """
    c, a, v = pairs.expanded(sign)
    two = pairs.cre != pairs.ann
    in_m = np.concatenate([pairs.own, pairs.mirror[two]])
    order = np.lexsort(
        (
            np.where(in_m, a, c),
            np.where(in_m, c, a),
            ~in_m,
            np.concatenate([pairs.piece, pairs.piece[two]]),
        )
    )
    return NormalOrderedOperator._from_arrays(c[order], a[order], v[order])


class RunningSum:
    """A running sum of operators on orbitals below ``n_orbitals``, held as
    one float per key of a key set ascending by ``(cre, ann)``, 0.0 for an
    absent key, so that a step touches only its own keys.

    ``add`` adds an operator's values at its keys, a key new to the set
    placed at 0.0 first, and resets a touched sum below
    ``DEFAULT_DROP_TOLERANCE`` to 0.0; ``operator`` reads the sum back in
    key order.  The values are those of ``+`` on the sums as operators, bit
    for bit: a live sum is never -0.0, so ``0.0 + s`` is ``s``, and a new or
    pruned key restarts from 0.0 as a key new to ``+`` does.  Only the order
    of the terms differs.

    Up to 31 orbitals, while both masks fit side by side in 63 bits, the
    slots are found by ``np.searchsorted`` on the keys packed by
    ``_sort_key`` and the new keys are put in place by ``np.insert``, so the
    set is never re-sorted.  Beyond, the set and the keys sought are ranked
    together, one ``_rank`` lexsort per ``add``, and a key's rank is its slot.
    """

    __slots__ = ("cre", "ann", "val", "_width", "_key")

    def __init__(self, n_orbitals: int):
        none = np.zeros(0, dtype=np.int64)
        self.cre, self.ann, self.val = none, none, np.zeros(0)
        self._width = n_orbitals
        self._key = _sort_key((none, none), (n_orbitals, n_orbitals))

    def _slots(self, cre: np.ndarray, ann: np.ndarray) -> np.ndarray:
        n = len(self.val)
        if self._key is None:
            # the set's keys are distinct and sorted, so their ranks among
            # the set and the keys sought are ascending: scattered by rank,
            # they and the new keys make the grown set in key order
            cre, ann = np.concatenate([self.cre, cre]), np.concatenate([self.ann, ann])
            rank = _rank(cre, ann) - 1
            size = int(rank.max(initial=-1)) + 1
            if size > n:
                self.cre, self.ann = np.empty(size, np.int64), np.empty(size, np.int64)
                self.cre[rank], self.ann[rank] = cre, ann
                self.val, val = np.zeros(size), self.val
                self.val[rank[:n]] = val
            return rank[n:]
        key = _sort_key((cre, ann), (self._width,) * 2)
        slots = np.searchsorted(self._key, key)
        found = slots < n
        found[found] = self._key[slots[found]] == key[found]
        if not found.all():
            # in key order, so new keys sharing a gap go in in key order
            new = np.flatnonzero(~found)[np.argsort(key[~found])]
            at = slots[new]
            self._key = np.insert(self._key, at, key[new])
            self.cre, self.ann = np.insert(self.cre, at, cre[new]), np.insert(self.ann, at, ann[new])
            self.val = np.insert(self.val, at, 0.0)
            slots = np.searchsorted(self._key, key)
        return slots

    def add(self, cre: np.ndarray, ann: np.ndarray, val: np.ndarray) -> np.ndarray:
        """Add ``val`` at the distinct keys ``(cre, ann)``, a key new to the
        set placed at 0.0 first, and return their slots."""
        slots = self._slots(cre, ann)
        self.val[slots] += val
        self.val[slots[np.abs(self.val[slots]) < DEFAULT_DROP_TOLERANCE]] = 0.0
        return slots

    def operator(self, slots=None, val=None) -> NormalOrderedOperator:
        """The sum, plus ``val`` at ``slots`` (from ``add``) when given, as
        an operator in key order, without the keys below
        ``DEFAULT_DROP_TOLERANCE``."""
        total = self.val
        if slots is not None:
            total = total.copy()
            total[slots] += val
        live = ~(np.abs(total) < DEFAULT_DROP_TOLERANCE)
        return NormalOrderedOperator._from_arrays(self.cre[live], self.ann[live], total[live])


# -- bitmask product kernel --------------------------------------------------
#
# Each key half is one machine-word bitmask, so a whole product A.B
# vectorizes over the term arrays.  Writing a term of A as C1^+ A1 and one of
# B as C2^+ A2, normal ordering only has to push the string A1 through C2.
# Processing A1's orbitals in ascending order, each one either contracts on
# a partner in C2 (one delta branch per shared orbital) or anticommutes
# through all of C2, which gives one product term per contraction subset T
# of A1 n C2:
#
#     C1^+ A1 C2^+ A2 = sum_T sign(T) (C1 u (C2\T))^+ ((A1\T) u A2)
#
# with the parity of sign(T) = sum_{x in T} |C2 above x|                  (a)
#                            + |A1\T| * |C2|                              (b)
#                            + #{(x in A1\T, t in T) : t < x}             (c)
#                            + #{(u in C1, v in C2\T) : v > u}            (d)
#                            + #{(x in A1\T, y in A2) : y > x}.          (e)
#
# (a) counts the hops before each contraction, (b) the full pass-throughs,
# (c) corrects (b) for partners already contracted, and (d)/(e) re-sort the
# concatenated creation/annihilation strings into descending order.  Terms
# vanish when the merged halves would repeat an orbital.
#
# Every count but (b) has the form #{(u in M, v in X) : v > u}.  With
# below(M) the mask whose bit v is set when an odd number of M's bits lie
# below v (``_prefix_parity``), its parity is popcount(X & below(M)) & 1,
# and parities add under XOR.  So (a), (b), (d) and (e) are one popcount of
#
#     (C2 & below(T)) ^ ((C2\T) & below(C1)) ^ (A2 & below(A1\T))
#         ^ (C2 if |A1\T| is odd else 0),
#
# where the three C2 parts fold into one mask per (term of A, T) pair since
# C2\T = C2 & ~T, and (c) = popcount((A1\T) & below(T)) is a constant of
# the pair.
#
# The kernel lays every (term of A, T) pair out as arrays, the subsets of
# each term in ``_submasks`` order, and tests all pairs against all rows of
# B at once: a row is admissible when T is inside C2, C2\T misses C1 and A2
# misses A1\T.  ``np.flatnonzero`` lists the admissible (pair, row) cells
# in row-major order, so terms come out by term of A, then T, then row of
# B.  The order of the blocks is fixed; rows inside a block may come in any
# order.  ``_combine`` adds each key's values in input order, so another
# block order could move the last bits of a sum, and with them every
# report.  Inside one (term of A, T) block the output key is the row's
# (C2, A2) XORed with constants of the block, so no two rows of a block
# share a key, and each key's values reach the sum in block order whatever
# the order of B's rows.  The pair axis is cut into slices of at most
# ``_CELL_BUDGET`` cells, so the temporaries beyond the product's own output
# stay a fixed size however large the operands are.


def _prefix_parity(masks: np.ndarray) -> np.ndarray:
    """Bit p of the result is the parity of the set bits below p, for
    p = 0..62 (an exclusive prefix XOR)."""
    q = masks.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        q ^= q << shift
    return (q << 1) & _ORBITAL_BITS


@lru_cache(maxsize=None)
def _submasks(mask: int) -> tuple[int, ...]:
    subs = []
    s = mask
    while True:
        subs.append(s)
        if not s:
            return tuple(subs)
        s = (s - 1) & mask


def _product_terms(
    a: NormalOrderedOperator, b: NormalOrderedOperator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsummed ``(cre, ann, val)`` of every term of ``a b``, by term of
    ``a``, then contraction subset, then term of ``b``."""
    subsets = [_submasks(m) for m in a.ann.tolist()]
    # one entry per (term of a, T) pair from here on
    term = np.repeat(np.arange(len(a)), np.array([len(s) for s in subsets], dtype=np.int64))
    t = np.fromiter(chain.from_iterable(subsets), dtype=np.int64, count=len(term))
    c1, rest = a.cre[term], a.ann[term] ^ t  # C1 and A1\T
    coeff = a.val[term]
    allowed = t | c1  # C2 & (T u C1) must be exactly T
    odd = -(np.bitwise_count(rest).astype(np.int64) & 1)  # all bits when |A1\T| is odd
    # one prefix-parity pass for T, C1 and A1\T; the last is (e)
    below_t, below_c1, ann_parity = _prefix_parity(np.stack([t, c1, rest]))
    cre_parity = below_t ^ (below_c1 & ~t) ^ odd  # (a), (b), (d)
    const = np.bitwise_count(rest & below_t)  # (c)
    cre_flip = t ^ c1  # C2 ^ T ^ C1 = C1 u (C2\T)
    b_cre, b_ann, b_val = b.cre, b.ann, b.val
    n_rows = len(b)
    step = max(1, _CELL_BUDGET // max(1, n_rows))
    cre_chunks, ann_chunks, val_chunks = [], [], []
    for lo in range(0, len(t), step):
        cut = slice(lo, lo + step)
        ok = (b_cre & allowed[cut, None]) == t[cut, None]
        ok &= (b_ann & rest[cut, None]) == 0
        cell = np.flatnonzero(ok)  # row-major: by pair, then by row of b
        starts = np.arange(len(ok)) * n_rows
        # cells per pair, from where each pair's block of cells begins
        count = np.diff(np.searchsorted(cell, starts), append=len(cell))
        j = cell - np.repeat(starts, count)
        cre_rows, ann_rows = b_cre[j], b_ann[j]

        def spread(per_pair):
            return np.repeat(per_pair[cut], count)

        flips = np.bitwise_count(
            (cre_rows & spread(cre_parity)) ^ (ann_rows & spread(ann_parity))
        )
        flips ^= spread(const)
        # popcount is uint8: take the sign in float64, never in the popcount type
        sign = 1.0 - 2.0 * (flips & 1)
        cre_chunks.append(cre_rows ^ spread(cre_flip))
        ann_chunks.append(ann_rows ^ spread(rest))
        val_chunks.append(spread(coeff) * sign * b_val[j])
    return _joined(cre_chunks, np.int64), _joined(ann_chunks, np.int64), _joined(val_chunks, float)


def _joined(chunks: list[np.ndarray], dtype) -> np.ndarray:
    # a single chunk is returned as is: copying it would double the peak
    # memory of a large product
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate([np.empty(0, dtype=dtype), *chunks])


def commutator(
    a: NormalOrderedOperator,
    b: NormalOrderedOperator,
    *,
    drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
) -> NormalOrderedOperator:
    """``a b - b a``.

    The two products are accumulated independently and subtracted term by
    term, which makes ``commutator(a, b)`` the exact floating-point negation
    of ``commutator(b, a)``.
    """
    ab = multiply(a, b, drop_tolerance=0.0)
    ba = multiply(b, a, drop_tolerance=0.0)
    return _sum((ab, -ba), drop_tolerance)


def operator_sum(
    ops: Iterable[NormalOrderedOperator],
    *,
    drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
) -> NormalOrderedOperator:
    """Sum many operators with a single accumulation pass."""
    return _sum(ops, drop_tolerance)


def trace(op: NormalOrderedOperator, n_orbitals: int) -> float:
    """Trace over the full Fock space of ``n_orbitals`` spin orbitals.

    Only keys whose creation and annihilation groups coincide have diagonal
    matrix elements.  Such a key with k orbitals equals
    ``(-1)^(k(k-1)/2) * prod n_p``, so it contributes its coefficient times
    that sign once per basis configuration containing all k orbitals,
    ``2^(N-k)`` of them.  The contributions are added in term order.
    """
    if n_orbitals <= op.max_orbital():
        raise ValidationError(
            f"operator touches orbital {op.max_orbital()} but n_orbitals={n_orbitals}"
        )
    diagonal = op.cre == op.ann
    k = np.bitwise_count(op.cre[diagonal]).astype(np.int64)
    sign = 1.0 - 2.0 * ((k * (k - 1) // 2) & 1)
    # ldexp scales by 2^(N-k) exactly, so no contribution is rounded
    return _term_order_sum(np.ldexp(op.val[diagonal] * sign, n_orbitals - k))


def number_operator(n_orbitals: int) -> NormalOrderedOperator:
    """Total particle-number operator on ``n_orbitals`` spin orbitals."""
    return NormalOrderedOperator({((p,), (p,)): 1.0 for p in range(n_orbitals)})
