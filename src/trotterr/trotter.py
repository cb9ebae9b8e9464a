"""Leading error operator of the second-order Trotter-Suzuki formula.

For a fragment sequence H = sum_alpha H_alpha advanced by the symmetric
product formula (all fragments at half step in descending index order, then
ascending), the effective Hamiltonian picks up a leading perturbation

    V = (dt^2 / 12) * sum_beta sum_{gamma < beta} sum_{alpha <= beta}
            (1 - delta_{alpha beta} / 2) [H_alpha, [H_beta, H_gamma]]

which is quadratic in the step size: the remaining corrections enter at
fourth order.  Eigenstate energy shifts are then <psi|V|psi> + O(dt^4).
The prefactor sign is fixed by expanding the product formula itself; see
the fourth-order residual checks in the oracle tests.

Both inner sums are linear in their fragment argument, so the triple sum
collapses against running sums.  With S_beta = H_0 + ... + H_beta,

    sum_{gamma < beta} [H_beta, H_gamma]  =  [H_beta, S_{beta-1}] =: C_beta

and swapping the remaining alpha/beta double sum groups every term by its
small factor:

    V = (dt^2/12) sum_alpha [H_alpha, D_alpha - C_alpha/2],
    D_alpha = sum_{beta >= alpha} C_beta  (suffix sums).

Every commutator then has one small operand (a fragment), which is the
cheap shape for the term-map product.  Since fragments are Hermitian and
the C/D accumulations anti-Hermitian, each commutator needs only a single
product m and its adjoint: C_beta = m - m^+ with m = H_beta S_{beta-1},
and the piece P_alpha = m + m^+ with m = H_alpha (D_alpha - C_alpha/2).
Results differ from the fully expanded triple loop only by floating-point
reassociation and rounding of that reflection, both far below every
validation tolerance used here.

Each is Hermitian or anti-Hermitian to the bit: P[k^+] = s P[k] and
C[k^+] = -s C[k], where s = +-1 is the sign the adjoint puts on the key k
(``fermion.hermitian_product``).  So both are built as one entry per
adjoint pair, on the canonical key (cre <= ann), from one grouping of the
product's terms.  Each C_beta is held as pairs, about half the memory of
its full keys, until the backward loop reaches it; it is then expanded to
both keys, since it feeds the running sums D, and dropped after that step.
The pieces are summed as pairs, and so is V, their sum; the other key of
each pair is restored only once, at the end.

The running sums S_beta and D_alpha are dense (``fermion.RunningSum``):
one float per key of a sorted key set, 0.0 for an absent key.  A step
adds the fragment, or C_alpha, at its keys' slots, putting a key the sum
has not held yet in its place first, and resets a touched sum below the
drop tolerance to 0.0; the product kernel gets S_{beta-1}, or
W_alpha = D_alpha - C_alpha/2, as the live slots in key order.  No step
re-sorts a whole running sum.  The values are those of ``+`` on the sums
as operators, bit for bit: a live sum is never -0.0, so ``0.0 + S[k]`` is
``S[k]``, and a pruned key restarts from 0.0 as a key new to ``+`` does.
Only the row order of the operand differs (key order against first
appearance), and the product is blind to it: inside one (term of H,
contraction subset) block of the kernel no two rows give the same key, so
each key's values still reach the sum in block order, and the product
lists its keys sorted.

The products hold far more unsummed terms than V (1.45M against 21k at 10
spin orbitals), so the pieces are folded into a running sum as they come
rather than summed once at the end: whenever the pieces pending since the
last fold hold at least max(FOLD_TERMS, |sum|) terms, one accumulation pass
(``fermion.sum_pairs``) replaces them and the sum by their total.  Terms
are the keys the pair entries stand for, two per pair and one per
self-adjoint key, so the folds fall where they would for the full pieces.
The memory held is then a few times the larger of the budget and V
itself, and each entry is re-sorted O(1) times on average.

The result is byte-identical to summing the full pieces in order, m + m^+
included.  Values: each pair's entries are added one by one in piece order
from +0.0, the running value first; a sum started from +0.0 is never -0.0,
so the next fold adds the same value, and the partner's running sum adds
the same values negated when s = -1, so it is s times the pair's value to
the bit.  Order: that sum lists its keys in order of first appearance.  A
pair first appears in its first piece, for both keys, since pruning drops
both keys of a pair or neither; the fold keeps each pair's first entry, and
with it the piece's index and where inside the piece each key is listed.
One lexsort on those tags restores the order after the last fold
(``fermion.expand_pairs``).  Without a drop tolerance in the folds an
exact zero keeps its place, so only the final pruning removes keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .fermion import (
    DEFAULT_DROP_TOLERANCE,
    NormalOrderedOperator,
    PairTerms,
    RunningSum,
    commutator,  # noqa: F401  looked up here by bench/tracing.py
    expand_pairs,
    hermitian_product,
    multiply,  # noqa: F401  looked up here by bench/tracing.py
    operator_sum,  # noqa: F401  looked up here by bench/tracing.py
    sum_pairs,
    trace,
)
from .hamiltonian import TrotterSequence

# budget of each ErrorOperator.validate check, relative to the coefficient
# one-norm (the trace's to its weighted diagonal terms)
VALIDATE_REL_TOL = 1e-8

# terms build_error_operator holds, counted as the keys its pair entries
# stand for, before folding them into its running sum (more once the sum
# itself is larger)
FOLD_TERMS = 1 << 16


@dataclass
class ErrorOperator:
    """The leading Trotter error operator for one fragment sequence.

    ``op`` carries the full +(dt^2)/12 prefactor at step size ``delta_t``;
    rebuilding with a doubled step scales every coefficient by exactly 4.
    """

    op: NormalOrderedOperator
    delta_t: float
    ordering_label: str
    n_fragments: int
    n_spin_orbitals: int

    def coefficient_l1(self) -> float:
        return self.op.coefficient_l1()

    def hermitian_defect(self) -> float:
        return self.op.hermitian_defect()

    def trace_residual(self) -> float:
        """|trace over full Fock space|, exactly 0 for a commutator sum up
        to accumulated rounding."""
        return abs(trace(self.op, self.n_spin_orbitals))

    def number_commutator_residual(self) -> float:
        """Largest coefficient of [N_total, V]; fragments conserve particle
        number, so this is exactly 0 for a well-formed V.

        Each normal-ordered term is an eigenoperator of the commutator,
        [N, a+_C a_A] = (|C| - |A|) a+_C a_A, so the largest coefficient is
        read off term by term without forming the product.
        """
        op = self.op
        excess = np.bitwise_count(op.cre).astype(np.int64) - np.bitwise_count(op.ann)
        return float(np.abs(excess * op.val).max(initial=0.0))

    def validate(self) -> None:
        """Hermiticity and particle number, each within ``VALIDATE_REL_TOL``
        times the coefficient one-norm; the trace within ``VALIDATE_REL_TOL``
        times its terms' magnitudes summed with the same 2^(N-k) weights."""
        scale = self.coefficient_l1()
        if not scale:
            return
        budget = VALIDATE_REL_TOL * scale
        defect = self.hermitian_defect()
        if defect > budget:
            raise ValidationError(f"error operator not Hermitian: defect {defect:.3e}")
        op = self.op
        diagonal = op.cre == op.ann
        k = np.bitwise_count(op.cre[diagonal]).astype(np.int64)
        weighted = np.ldexp(np.abs(op.val[diagonal]), self.n_spin_orbitals - k).sum()
        residual = self.trace_residual()
        if residual > VALIDATE_REL_TOL * weighted:
            raise ValidationError(f"error operator trace {residual:.3e} not ~0")
        number = self.number_commutator_residual()
        if number > budget:
            raise ValidationError(
                f"error operator breaks particle number: residual {number:.3e}"
            )


def build_error_operator(sequence: TrotterSequence, delta_t: float) -> ErrorOperator:
    """Assemble the leading error operator for ``sequence`` at ``delta_t``.

    A single-fragment sequence (or any mutually commuting one) yields the
    zero operator.  The running sums S_beta and D_alpha are dense arrays
    over sorted key sets, handed to the product kernel in key order,
    which gives the same bits as any other row order (see the module
    docstring).  Each C_beta is held as one entry per adjoint pair until
    the backward loop uses it.  Each commutator piece is built as one entry
    per adjoint pair, tagged with its piece index and where in the piece
    each key is listed, and folded into a running sum whenever the pieces
    pending stand for at least ``max(FOLD_TERMS, len(sum))`` terms; this
    bounds the memory held by the larger of the budget and ``V``.  After
    the last fold each pair is expanded to its two keys and one lexsort on
    the tags restores the term order of a single sum over the full pieces,
    so the result is byte-identical to it (see the module docstring).

    Pruning happens once, after the full accumulation, and at the
    ``delta_t = 1`` scale: a term is kept when its unscaled sum times 1/12
    reaches ``DEFAULT_DROP_TOLERANCE`` in magnitude, so every step keeps
    the same terms in the same order.  Each kept coefficient is then
    its sum times ``delta_t**2 / 12``.  A step at which a kept coefficient
    overflows, or underflows to zero or a subnormal value, raises
    ``NumericalError``, and so does a running sum or product that
    overflows on the way; the result is then checked by
    :meth:`ErrorOperator.validate`.
    """
    if not math.isfinite(delta_t) or delta_t <= 0:
        raise ValidationError(f"delta_t must be positive and finite, got {delta_t}")
    fragments = sequence.fragments
    width = 1 + max((frag.max_orbital() for frag in fragments), default=-1)
    # an overflow leaves inf, and inf - inf or inf * 0 leaves NaN; no prune
    # below drops either, and a running sum that holds one keeps it, so
    # both are refused once, after the build
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = RunningSum(width)  # S_beta
        # C_beta = [H_beta, S_{beta-1}] = m - m^+ for m = H_beta S_{beta-1},
        # held as pairs until the backward loop uses it; the pair build
        # prunes, so keys that commuting fragments cancel to exact 0.0 never
        # reach a later product
        cross: list[PairTerms] = []
        for frag in fragments:
            cross.append(hermitian_product(frag, prefix.operator(), 0, -1))
            prefix.add(frag.cre, frag.ann, frag.val)
        suffix = RunningSum(width)  # D_alpha
        total = PairTerms.empty()
        total_terms = 0
        pending: list[PairTerms] = []  # pieces since the last fold
        pending_terms = 0
        for piece, frag in enumerate(reversed(fragments)):
            # C_alpha, freed after this step
            cre, ann, val = cross.pop().expanded(-1)
            slots = suffix.add(cre, ann, val)
            weight = suffix.operator(slots, val * -0.5)  # D_alpha - C_alpha/2
            if weight:
                pending.append(hermitian_product(frag, weight, piece))
                pending_terms += pending[-1].n_terms()
                if pending_terms >= max(FOLD_TERMS, total_terms):
                    total = sum_pairs([total, *pending])
                    total_terms = total.n_terms()
                    pending, pending_terms = [], 0
        total = expand_pairs(sum_pairs([total, *pending]))
        keep = ~(np.abs(total.val * (1.0 / 12.0)) < DEFAULT_DROP_TOLERANCE)
        val = total.val[keep] * ((delta_t * delta_t) / 12.0)
    if not all(np.isfinite(a).all() for a in (prefix.val, suffix.val, val)):
        raise NumericalError(
            f"error operator coefficients overflow at delta_t={delta_t!r}"
        )
    if (np.abs(val) < np.finfo(np.float64).tiny).any():
        raise NumericalError(
            f"error operator coefficients underflow at delta_t={delta_t!r}"
        )
    op = NormalOrderedOperator._from_arrays(total.cre[keep], total.ann[keep], val)
    error_op = ErrorOperator(
        op=op,
        delta_t=delta_t,
        ordering_label=sequence.ordering_label,
        n_fragments=len(fragments),
        n_spin_orbitals=sequence.n_spin_orbitals,
    )
    error_op.validate()
    return error_op


def check_time_and_delta(time: float, delta: float) -> None:
    """Reject an evolution time or target shift that is not positive and
    finite."""
    if not (0 < time < math.inf and 0 < delta < math.inf):
        raise ValidationError(
            f"time and delta must be positive and finite, got {time}, {delta}"
        )


def estimate_trotter_number(
    error_expectation: float, time: float, delta: float
) -> int:
    """Trotter number needed to keep the accumulated eigenstate shift at or
    below ``delta`` over evolution time ``time``.

    The per-step shift scales as (t/mu)^2 <V at dt=1>, and mu steps
    accumulate it linearly, so mu = ceil(t * sqrt(<V>/delta)), at least 1.
    """
    check_time_and_delta(time, delta)
    if error_expectation < 0:
        raise ValidationError(f"error_expectation must be >= 0, got {error_expectation}")
    steps = time * math.sqrt(error_expectation / delta)
    if not math.isfinite(steps):
        raise NumericalError(f"Trotter number overflows: {steps} steps")
    return max(math.ceil(steps), 1)
