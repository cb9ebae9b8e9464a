"""Dense brute-force reference implementations used only by the test suite.

Everything here works on explicit 2^N x 2^N matrices built from first
principles (occupation bitmasks and per-orbital parity counting) so the
package's sparse algebra can be checked against an independent code path.
"""

from __future__ import annotations

import numpy as np

from trotterr.fermion import LadderOp, NormalOrderedOperator


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
