"""Occupation-number representation on full Fock space and number sectors.

Basis states are integer bitmasks: bit p set means spin orbital p occupied,
and the reference ket orders creation operators by ascending orbital, so
acting with a ladder operator on orbital p contributes the fermionic sign
(-1)^(number of occupied orbitals below p).  A canonical normal-ordered term
acts annihilations first, each group applied from its smallest orbital
upward.

Every operator action goes through one term-action table: the operator's
terms are packed into creation and annihilation bitmask arrays and acted on
all basis states at once, giving ``(rows, cols, vals)`` for every nonzero
matrix element of every term.  The entries stay unsummed and in term order,
so applying the operator or building its matrix accumulates them in exactly
the order a term-by-term loop would, and the results are bit-identical to
it.  A :class:`RestrictedOperator` builds the table once and evaluates
everything from it; each public function builds one and calls it once.

The table's size is known before it is built: a term with masks C and A
acts on comb(N - |A | C|, n - |A|) states of the n-electron sector and on
2^(N - |A | C|) of the full space, and on at most that many of a subset.
So it is allocated once, with int32 row and column indices, and filled
in chunks of terms; the chunks, like the slices ``apply`` and ``dense``
accumulate over, stay within ``fermion._CELL_BUDGET`` cells.

``DENSE_LIMIT`` is read here only, at call time: a basis of at most that
many states is diagonalized densely, a larger one by Lanczos (the only
code that imports scipy), and ``to_dense`` refuses it.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import fermion
from .errors import NumericalError, ResourceLimitError, ValidationError
from .fermion import NormalOrderedOperator, _prefix_parity

log = logging.getLogger(__name__)

# at least 1, so a one-state basis, on which Lanczos cannot run, is dense
DENSE_LIMIT = 16384

# the budget of an eigenpair residual ||H v - E v|| relative to max(1, |E|),
# and the Lanczos tolerance of the spectral norm
SOLVER_REL_TOL = 1e-8

# how far an expectation input's squared norm may stray from 1 before the
# input is reported as not normalized
UNIT_NORM_TOL = 1e-8


class SectorBasis:
    """An ordered list of occupation bitmasks spanning a working subspace.

    ``n_electrons`` is None for the full Fock space.  ``states`` may be a
    strict subset of the sector (used by truncated CI), always sorted
    ascending so membership is a binary search.
    """

    __slots__ = ("n_orbitals", "n_electrons", "states")

    def __init__(self, n_orbitals: int, n_electrons: int | None, states: np.ndarray):
        self.n_orbitals = int(n_orbitals)
        self.n_electrons = None if n_electrons is None else int(n_electrons)
        self.states = np.asarray(states, dtype=np.int64)
        if self.n_electrons is not None:
            _check_electrons(self.n_orbitals, self.n_electrons)
        if self.states.ndim != 1:
            raise ValidationError("states must be one-dimensional")
        if len(self.states) == 0:
            raise ValidationError("empty basis")
        if np.any(self.states[1:] <= self.states[:-1]):
            raise ValidationError("states must be sorted strictly ascending")
        if self.states[0] < 0 or self.states[-1] >= (1 << self.n_orbitals):
            raise ValidationError("state outside the orbital range")
        if self.n_electrons is not None and np.any(
            np.bitwise_count(self.states) != self.n_electrons
        ):
            raise ValidationError("state occupation does not match the sector")

    @classmethod
    def full(cls, n_orbitals: int) -> "SectorBasis":
        return cls(n_orbitals, None, np.arange(1 << n_orbitals, dtype=np.int64))

    @classmethod
    def sector(cls, n_orbitals: int, n_electrons: int) -> "SectorBasis":
        """The ``n_electrons``-electron states, ascending (see
        :func:`sector_states`)."""
        _check_electrons(n_orbitals, n_electrons)
        return cls(n_orbitals, n_electrons, sector_states(n_orbitals, n_electrons))

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: int) -> int:
        idx = int(np.searchsorted(self.states, state))
        if idx >= self.dim or self.states[idx] != state:
            raise ValidationError(f"state {state:b} not in basis")
        return idx

    def __repr__(self) -> str:
        sector = "full" if self.n_electrons is None else f"n={self.n_electrons}"
        return f"SectorBasis(N={self.n_orbitals}, {sector}, dim={self.dim})"


def sector_states(
    n_orbitals: int, n_electrons: int, reference: int = 0, max_distance: int | None = None
) -> np.ndarray:
    """The ``n_electrons``-electron states, ascending, or with
    ``max_distance`` only those that differ from ``reference`` in at most
    that many orbitals.

    The states are built orbital by orbital: ``by_count[k]`` holds the
    ascending states with k electrons among the orbitals seen so far, and
    orbital p appends ``by_count[k - 1] | 1 << p``, all above them, to each.
    A count too small to reach ``n_electrons`` on the orbitals left is
    dropped, and so is a partial state that already differs from
    ``reference`` in more than ``max_distance`` of the orbitals seen, since
    later orbitals only add differences.
    """
    empty = np.zeros(0, dtype=np.int64)
    by_count = [np.zeros(1, dtype=np.int64)] + [empty] * n_electrons
    for p in range(n_orbitals):
        least = max(0, n_electrons - (n_orbitals - 1 - p))
        for k in range(n_electrons, max(least, 1) - 1, -1):
            by_count[k] = np.concatenate([by_count[k], by_count[k - 1] | (1 << p)])
        by_count[:least] = [empty] * least
        if max_distance is not None:
            seen = reference & ((2 << p) - 1)
            by_count = [s[np.bitwise_count(s ^ seen) <= max_distance] for s in by_count]
    return by_count[n_electrons]


def _check_electrons(n_orbitals: int, n_electrons: int) -> None:
    if not 0 <= n_electrons <= n_orbitals:
        raise ValidationError(f"n_electrons {n_electrons} outside [0, {n_orbitals}]")


class CIVector:
    """Real amplitudes over a :class:`SectorBasis`."""

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: SectorBasis, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.shape != (basis.dim,):
            raise ValidationError(
                f"amplitude shape {amplitudes.shape} != ({basis.dim},)"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    @classmethod
    def unit(cls, basis: SectorBasis, state: int) -> "CIVector":
        amp = np.zeros(basis.dim)
        amp[basis.index_of(state)] = 1.0
        return cls(basis, amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "CIVector":
        n = self.norm()
        if n == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return CIVector(self.basis, self.amplitudes / n)

    def dot(self, other: "CIVector") -> float:
        return float(self.amplitudes @ other.amplitudes)


def _check_operator(op: NormalOrderedOperator, basis: SectorBasis) -> None:
    if op.max_orbital() >= basis.n_orbitals:
        raise ValidationError(
            f"operator touches orbital {op.max_orbital()}, basis has "
            f"{basis.n_orbitals}"
        )
    if basis.n_electrons is not None and not op.conserves_particle_number():
        raise ValidationError(
            "operator does not conserve particle number; use a full Fock basis"
        )


def _source_counts(op: NormalOrderedOperator, basis: SectorBasis) -> np.ndarray:
    """How many states of ``basis`` each term of ``op`` can act on, exact on
    a full space or a whole sector and an upper bound on a subset of one.

    A term with masks C and A acts on the states that hold all of A and
    none of C & ~A, whatever they hold on the other N - |A | C| orbitals:
    all 2^(N - |A | C|) of them on the full space, and the
    comb(N - |A | C|, n - |A|) of them that hold n electrons on the
    n-electron sector.  No term acts on more states than the basis has.
    """
    n_orbitals, n_electrons = basis.n_orbitals, basis.n_electrons
    free = n_orbitals - np.bitwise_count(op.cre | op.ann).astype(np.int64)
    if n_electrons is None:
        counts = np.left_shift(1, free)
    else:
        need = n_electrons - np.bitwise_count(op.ann).astype(np.int64)
        pascal = np.array(
            [
                [math.comb(f, e) for e in range(n_electrons + 1)]
                for f in range(n_orbitals + 1)
            ],
            dtype=np.int64,
        )
        counts = np.where(need >= 0, pascal[free, np.maximum(need, 0)], 0)
    return np.minimum(counts, basis.dim)


def _action_table(
    op: NormalOrderedOperator, basis: SectorBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero matrix element of every term of ``op`` on ``basis``.

    Returns ``(rows, cols, vals)``, unsummed, in the order of the term
    arrays ``op.cre``/``op.ann``/``op.val`` (the order of ``op.terms``) and
    by ascending source state within a term; images outside the basis
    are dropped.  A term maps distinct sources to distinct images, so within
    one term no row repeats, and accumulating the entries in table order
    reproduces term-by-term accumulation exactly.

    With C and A the term's creation and annihilation masks, the term acts
    on |s> when s & (A|C) == A and gives (s & ~A) | C.  Annihilating from the
    smallest orbital up, then creating from the smallest up, the sign parity
    is

        sum_{p in A} |s below p| + sum_{q in C} |(s & ~A) below q|
            + l(l-1)/2 + k(k-1)/2

    for |C| = k and |A| = l.  Since A is inside s, |(s & ~A) below q| =
    |s below q| - |A below q|; with P(s) the prefix-parity mask of s the
    state-dependent part reduces to popcount(P(s) & (A ^ C)), and the rest
    is one constant per term, whose pair count sum_{q in C} |A below q| has
    the parity of popcount(C & P(A)).

    The arrays are allocated once, at the size :func:`_source_counts` gives,
    and filled chunk by chunk, each chunk's (term, state) cells within
    ``fermion._CELL_BUDGET``; on a subset basis they are then cut to the
    entries found.  ``rows`` and ``cols`` are int32.
    """
    cre, ann, coeff = op.cre, op.ann, op.val
    k = np.bitwise_count(cre).astype(np.int64)
    l = np.bitwise_count(ann).astype(np.int64)
    const = k * (k - 1) // 2 + l * (l - 1) // 2 + np.bitwise_count(cre & _prefix_parity(ann))
    states = basis.states
    parity = _prefix_parity(states)
    size = int(_source_counts(op, basis).sum())
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    vals = np.empty(size)
    end = 0
    step = max(1, fermion._CELL_BUDGET // basis.dim)
    for lo in range(0, len(op), step):
        c, a = cre[lo : lo + step], ann[lo : lo + step]
        term, src = np.nonzero((states & (a | c)[:, None]) == a[:, None])
        image = (states[src] & ~a[term]) | c[term]
        pos = np.searchsorted(states, image)
        pos[pos == basis.dim] = 0
        found = states[pos] == image
        term, src = term[found] + lo, src[found]
        flips = np.bitwise_count(parity[src] & (ann[term] ^ cre[term])) + const[term]
        cut = slice(end, end + len(src))
        rows[cut] = pos[found]
        cols[cut] = src
        # popcount is uint8: take the sign in float64, never in the popcount type
        vals[cut] = coeff[term] * (1.0 - 2.0 * (flips & 1))
        end += len(src)
    if end < size:  # a subset basis; shrinking in place copies nothing
        for column in (rows, cols, vals):
            column.resize(end, refcheck=False)
    return rows, cols, vals


class RestrictedOperator:
    """``op`` restricted to ``basis``: the operator-basis check and the
    action table are done once, and every evaluation reuses the table.

    ``lowest`` and ``spectral_norm`` require a Hermitian ``op``; they
    diagonalize densely up to ``DENSE_LIMIT`` states and by Lanczos beyond.
    """

    __slots__ = ("op", "basis", "_table")

    def __init__(self, op: NormalOrderedOperator, basis: SectorBasis):
        _check_operator(op, basis)
        self.op = op
        self.basis = basis
        self._table = _action_table(op, basis)

    def _slices(self):
        """Consecutive slices ``cut`` of at most ``fermion._CELL_BUDGET``
        table entries, each with ``index``, an intp scratch array of the
        slice's length; accumulating slice by slice adds every row in table
        order.  Indices are copied into ``index`` since numpy gathers
        through int32 indices about twice as slowly as through intp, and
        every slice reuses its memory, since a fresh 2 MiB block per slice
        can cost a page fault per page."""
        n = len(self._table[2])
        step = fermion._CELL_BUDGET
        scratch = np.empty(min(step, n), dtype=np.intp)
        for lo in range(0, n, step):
            cut = slice(lo, min(lo + step, n))
            yield cut, scratch[: cut.stop - lo]

    def apply(self, v: np.ndarray) -> np.ndarray:
        rows, cols, vals = self._table
        v = np.asarray(v, dtype=float)  # take writes into float64 scratch
        out = np.zeros(len(v))
        work = np.empty(min(fermion._CELL_BUDGET, len(vals)))
        for cut, index in self._slices():
            index[...] = cols[cut]
            # every index is in range; "clip" spares take's buffered check
            products = np.take(v, index, out=work[: len(index)], mode="clip")
            products *= vals[cut]
            index[...] = rows[cut]
            np.add.at(out, index, products)
        return out

    def dense(self) -> np.ndarray:
        rows, cols, vals = self._table
        dim = self.basis.dim
        mat = np.zeros((dim, dim))
        flat = mat.reshape(-1)  # np.add.at is fastest on one axis
        for cut, index in self._slices():
            index[...] = rows[cut]
            index *= dim
            index += cols[cut]
            np.add.at(flat, index, vals[cut])
        return mat

    def expectation(self, vector: CIVector) -> float:
        if not np.array_equal(vector.basis.states, self.basis.states):
            raise ValidationError("vector and operator are on different bases")
        v = vector.amplitudes
        nrm2 = float(v @ v)
        if nrm2 == 0.0:
            raise ValidationError("expectation of the zero vector")
        if abs(nrm2 - 1.0) > UNIT_NORM_TOL:
            log.warning("expectation input norm %.6f != 1; normalizing", math.sqrt(nrm2))
        return float(v @ self.apply(v)) / nrm2

    def lowest(self) -> tuple[float, CIVector]:
        self.op.require_hermitian("operator is not Hermitian")
        basis = self.basis
        if basis.dim <= DENSE_LIMIT:
            vals, vecs = np.linalg.eigh(self.dense())
        else:
            vals, vecs = self._lanczos("SA", SOLVER_REL_TOL / 10, vectors=True)
        energy = float(vals[0])
        state = CIVector(basis, vecs[:, 0])
        residual = self.apply(state.amplitudes) - energy * state.amplitudes
        rnorm = float(np.linalg.norm(residual))
        if rnorm > SOLVER_REL_TOL * max(1.0, abs(energy)):
            raise NumericalError(f"eigenpair residual {rnorm:.3e} too large")
        return energy, state

    def spectral_norm(self) -> float:
        self.op.require_hermitian("operator is not Hermitian")
        if self.basis.dim <= DENSE_LIMIT:
            vals = np.linalg.eigvalsh(self.dense())
            return float(np.max(np.abs(vals))) if len(vals) else 0.0
        hi = self._lanczos("LA", SOLVER_REL_TOL, vectors=False)
        lo = self._lanczos("SA", SOLVER_REL_TOL, vectors=False)
        return float(max(abs(hi[0]), abs(lo[0])))

    def _lanczos(self, which: str, tol: float, *, vectors: bool):
        """One ARPACK eigenpair (or eigenvalue) at the ``which`` end.

        ARPACK's own start vector is random per call, so every call starts
        from the same seeded noise and reruns give the same bits; a
        constant start could be orthogonal to a symmetric eigenvector.
        """
        import scipy.sparse.linalg

        dim = self.basis.dim
        linop = scipy.sparse.linalg.LinearOperator(
            (dim, dim), matvec=self.apply, dtype=float
        )
        try:
            return scipy.sparse.linalg.eigsh(
                linop,
                k=1,
                which=which,
                tol=tol,
                v0=np.random.default_rng(0).standard_normal(dim),
                return_eigenvectors=vectors,
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NumericalError(f"Lanczos did not converge: {exc}") from exc


def apply(op: NormalOrderedOperator, vector: CIVector) -> CIVector:
    """Matrix-free ``op @ vector``; components leaving a subset basis are
    projected away (that is exactly the subspace-restricted operator)."""
    restricted = RestrictedOperator(op, vector.basis)
    return CIVector(vector.basis, restricted.apply(vector.amplitudes))


def to_dense(op: NormalOrderedOperator, basis: SectorBasis) -> np.ndarray:
    """Dense matrix of ``op`` restricted to ``basis`` (column = source)."""
    _check_dense_size(basis.dim)  # before any table is built
    return RestrictedOperator(op, basis).dense()


def _check_dense_size(dim: int) -> None:
    """Refuse a dense matrix on a basis of ``dim`` states above
    ``DENSE_LIMIT``; callers that can count the states check before listing
    them."""
    if dim > DENSE_LIMIT:
        raise ResourceLimitError(f"dense matrix of dim {dim} exceeds limit {DENSE_LIMIT}")


def expectation(op: NormalOrderedOperator, vector: CIVector) -> float:
    """<v|op|v> / <v|v>; warns when the input was not normalized."""
    return RestrictedOperator(op, vector.basis).expectation(vector)


def ground_state(
    op: NormalOrderedOperator, basis: SectorBasis
) -> tuple[float, CIVector]:
    """Minimal eigenpair of a Hermitian operator on ``basis``.

    Dense diagonalization up to ``DENSE_LIMIT`` states, Lanczos beyond; the
    residual norm ||H v - E v|| is verified against ``SOLVER_REL_TOL``
    either way.
    """
    return RestrictedOperator(op, basis).lowest()


def spectral_norm(op: NormalOrderedOperator, basis: SectorBasis) -> float:
    """Largest |eigenvalue| of a Hermitian operator on ``basis``."""
    return RestrictedOperator(op, basis).spectral_norm()


def full_spectrum(op: NormalOrderedOperator, basis: SectorBasis) -> np.ndarray:
    """All eigenvalues ascending (dense path only)."""
    matrix = to_dense(op, basis)
    op.require_hermitian("operator is not Hermitian")
    return np.linalg.eigvalsh(matrix)
