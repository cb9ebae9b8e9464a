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
so ``apply`` and ``to_dense`` accumulate them in exactly the order a
term-by-term loop would, and their results are bit-identical to it.  The
eigensolvers build the table once per call and reuse it for the dense
matrix, the Lanczos matrix-vector product and the residual check; a caller
that evaluates one operator several times on one basis builds it once
(``_operator_table``) and uses the ``_table_*`` evaluators, which are the
public functions' arithmetic, so the bits do not change.  scipy
is imported only by the Lanczos branches (above ``dense_limit``), so the
dense path never loads it.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations

import numpy as np

from .errors import NumericalError, ResourceLimitError, ValidationError
from .fermion import NormalOrderedOperator, _prefix_parity

log = logging.getLogger(__name__)

DENSE_LIMIT = 16384

HERMITIAN_REL_TOL = 1e-8


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
        if self.states.ndim != 1:
            raise ValidationError("states must be one-dimensional")
        if len(self.states) == 0:
            raise ValidationError("empty basis")
        if np.any(self.states[1:] <= self.states[:-1]):
            raise ValidationError("states must be sorted strictly ascending")
        if self.states[0] < 0 or self.states[-1] >= (1 << self.n_orbitals):
            raise ValidationError("state outside the orbital range")
        if self.n_electrons is not None:
            if not 0 <= self.n_electrons <= self.n_orbitals:
                raise ValidationError(
                    f"n_electrons {self.n_electrons} outside [0, {self.n_orbitals}]"
                )
            if np.any(np.bitwise_count(self.states) != self.n_electrons):
                raise ValidationError("state occupation does not match the sector")

    @classmethod
    def full(cls, n_orbitals: int) -> "SectorBasis":
        return cls(n_orbitals, None, np.arange(1 << n_orbitals, dtype=np.int64))

    @classmethod
    def sector(cls, n_orbitals: int, n_electrons: int) -> "SectorBasis":
        states = [
            sum(1 << p for p in occ)
            for occ in combinations(range(n_orbitals), n_electrons)
        ]
        return cls(n_orbitals, n_electrons, np.sort(np.array(states, dtype=np.int64)))

    @classmethod
    def subset(cls, n_orbitals: int, n_electrons: int, states) -> "SectorBasis":
        return cls(n_orbitals, n_electrons, np.sort(np.asarray(states, dtype=np.int64)))

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


# Term actions are computed in chunks of about this many (term, state)
# pairs, which bounds the temporaries whatever the operator or basis size.
_CHUNK_ELEMENTS = 1 << 20


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
    """
    n_terms = len(op)
    cre, ann, coeff = op.cre, op.ann, op.val
    k = np.bitwise_count(cre).astype(np.int64)
    l = np.bitwise_count(ann).astype(np.int64)
    const = k * (k - 1) // 2 + l * (l - 1) // 2 + np.bitwise_count(cre & _prefix_parity(ann))
    states = basis.states
    parity = _prefix_parity(states)
    step = max(1, _CHUNK_ELEMENTS // basis.dim)
    rows, cols, vals = [], [], []
    for lo in range(0, n_terms, step):
        c, a = cre[lo : lo + step], ann[lo : lo + step]
        term, src = np.nonzero((states & (a | c)[:, None]) == a[:, None])
        image = (states[src] & ~a[term]) | c[term]
        pos = np.searchsorted(states, image)
        pos[pos == basis.dim] = 0
        found = states[pos] == image
        term, src = term[found] + lo, src[found]
        flips = np.bitwise_count(parity[src] & (ann[term] ^ cre[term])) + const[term]
        rows.append(pos[found])
        cols.append(src)
        # popcount is uint8: take the sign in float64, never in the popcount type
        vals.append(coeff[term] * (1.0 - 2.0 * (flips & 1)))
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _table_apply(table, v: np.ndarray) -> np.ndarray:
    rows, cols, vals = table
    out = np.zeros(len(v))
    np.add.at(out, rows, vals * v[cols])
    return out


def _table_dense(table, dim: int) -> np.ndarray:
    rows, cols, vals = table
    mat = np.zeros((dim, dim))
    np.add.at(mat, (rows, cols), vals)
    return mat


def _operator_table(op: NormalOrderedOperator, basis: SectorBasis):
    """The action table of ``op`` on ``basis`` after the operator-basis
    check of the public entry points."""
    _check_operator(op, basis)
    return _action_table(op, basis)


def apply(op: NormalOrderedOperator, vector: CIVector) -> CIVector:
    """Matrix-free ``op @ vector``; components leaving a subset basis are
    projected away (that is exactly the subspace-restricted operator)."""
    table = _operator_table(op, vector.basis)
    return CIVector(vector.basis, _table_apply(table, vector.amplitudes))


def to_dense(
    op: NormalOrderedOperator,
    basis: SectorBasis,
    *,
    dense_limit: int = DENSE_LIMIT,
) -> np.ndarray:
    """Dense matrix of ``op`` restricted to ``basis`` (column = source)."""
    _check_operator(op, basis)
    if basis.dim > dense_limit:
        raise ResourceLimitError(
            f"dense matrix of dim {basis.dim} exceeds limit {dense_limit}"
        )
    return _table_dense(_action_table(op, basis), basis.dim)


def expectation(op: NormalOrderedOperator, vector: CIVector) -> float:
    """<v|op|v> / <v|v>; warns when the input was not normalized."""
    return _table_expectation(_operator_table(op, vector.basis), vector)


def _table_expectation(table, vector: CIVector) -> float:
    v = vector.amplitudes
    nrm2 = float(v @ v)
    if nrm2 == 0.0:
        raise ValidationError("expectation of the zero vector")
    if abs(nrm2 - 1.0) > 1e-8:
        log.warning("expectation input norm %.6f != 1; normalizing", math.sqrt(nrm2))
    return float(v @ _table_apply(table, v)) / nrm2


def _require_hermitian(op: NormalOrderedOperator) -> None:
    defect = op.hermitian_defect()
    if defect > HERMITIAN_REL_TOL * max(1.0, op.coefficient_l1()):
        raise ValidationError(f"operator is not Hermitian (defect {defect:.3e})")


def _linear_operator(table, dim: int):
    import scipy.sparse.linalg

    return scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=lambda x: _table_apply(table, x), dtype=float
    )


def _start_vector(dim: int) -> np.ndarray:
    """Fixed Lanczos start vector, so reruns give the same bits.

    ARPACK's own start is random per call.  A constant vector can be
    orthogonal to a symmetric eigenvector, so this one is seeded noise.
    """
    return np.random.default_rng(0).standard_normal(dim)


def ground_state(
    op: NormalOrderedOperator,
    basis: SectorBasis,
    *,
    dense_limit: int = DENSE_LIMIT,
    residual_tol: float = 1e-8,
) -> tuple[float, CIVector]:
    """Minimal eigenpair of a Hermitian operator on ``basis``.

    Dense diagonalization up to ``dense_limit`` states (and always for a
    single state), Lanczos beyond; the residual norm ||H v - E v|| is
    verified against ``residual_tol`` either way.
    """
    _check_operator(op, basis)
    _require_hermitian(op)
    table = _action_table(op, basis)
    if basis.dim <= max(dense_limit, 1):  # Lanczos needs dim >= 2
        vals, vecs = np.linalg.eigh(_table_dense(table, basis.dim))
        energy, vec = float(vals[0]), vecs[:, 0]
    else:
        import scipy.sparse.linalg

        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                _linear_operator(table, basis.dim),
                k=1,
                which="SA",
                tol=residual_tol / 10,
                v0=_start_vector(basis.dim),
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NumericalError(f"Lanczos did not converge: {exc}") from exc
        energy, vec = float(vals[0]), vecs[:, 0]
    state = CIVector(basis, vec)
    residual = _table_apply(table, state.amplitudes) - energy * state.amplitudes
    rnorm = float(np.linalg.norm(residual))
    if rnorm > residual_tol * max(1.0, abs(energy)):
        raise NumericalError(f"eigenpair residual {rnorm:.3e} too large")
    return energy, state


def spectral_norm(
    op: NormalOrderedOperator,
    basis: SectorBasis,
    *,
    dense_limit: int = DENSE_LIMIT,
    rel_tol: float = 1e-8,
) -> float:
    """Largest |eigenvalue| of a Hermitian operator on ``basis``."""
    _check_operator(op, basis)
    _require_hermitian(op)
    table = _action_table(op, basis)
    return _table_spectral_norm(
        table, basis.dim, dense_limit=dense_limit, rel_tol=rel_tol
    )


def _table_spectral_norm(
    table, dim: int, *, dense_limit: int, rel_tol: float = 1e-8
) -> float:
    if dim <= max(dense_limit, 1):  # Lanczos needs dim >= 2
        vals = np.linalg.eigvalsh(_table_dense(table, dim))
        return float(np.max(np.abs(vals))) if len(vals) else 0.0
    import scipy.sparse.linalg

    linop = _linear_operator(table, dim)
    v0 = _start_vector(dim)
    try:
        hi = scipy.sparse.linalg.eigsh(
            linop, k=1, which="LA", tol=rel_tol, v0=v0, return_eigenvectors=False
        )
        lo = scipy.sparse.linalg.eigsh(
            linop, k=1, which="SA", tol=rel_tol, v0=v0, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalError(f"Lanczos did not converge: {exc}") from exc
    return float(max(abs(hi[0]), abs(lo[0])))


def full_spectrum(
    op: NormalOrderedOperator,
    basis: SectorBasis,
    *,
    dense_limit: int = DENSE_LIMIT,
) -> np.ndarray:
    """All eigenvalues ascending (dense path only)."""
    _check_operator(op, basis)
    _require_hermitian(op)
    return np.linalg.eigvalsh(to_dense(op, basis, dense_limit=dense_limit))
