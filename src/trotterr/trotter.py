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
product's terms.  One backward loop builds V.  Step alpha groups the terms
of H_0 .. H_{alpha-1}, stacked once, by key (``fermion._accumulate``) into
S_{alpha-1}, pruned once, keys ascending; it builds C_alpha, adds it into D
and drops it.  D is a dense running sum (``fermion.RunningSum``): one float
per key of a sorted key set, 0.0 for an absent key; a step adds C_alpha at
its keys' slots, placing new keys first, and resets a touched sum below the
drop tolerance to 0.0.  Both are the sums ``+`` builds step by step, bit
for bit: each key's values are added in order from 0.0, a live sum is never
-0.0, so ``0.0 + D[k]`` is ``D[k]``, and a pruned key restarts from 0.0 as
a key new to ``+`` does.  S is pruned only once, but no sequence
``build_trotter_sequence`` makes lets a key's partial sum fall below the
tolerance before a later fragment adds to it: a key lies in at most two
fragments (the Coulomb and exchange classes of a same-spin key; one at term
granularity) and every fragment coefficient reaches the tolerance.  The
product kernel gets S_{alpha-1}, then W_alpha = D_alpha - C_alpha/2, in key
order, not ``+``'s order of first appearance, and is blind to it: inside
one (term of H, contraction subset) block of the kernel no two rows give
the same key, so each key's values still reach the sum in block order, and
the product lists its keys sorted.

V's sum runs over the canonical pair keys, with no drop tolerance, and
holds one float per pair of V (10,755 pairs for 21,125 terms at 10 spin
orbitals, against 1.45M unsummed product terms).  It is byte-identical to
summing the full pieces in order, m + m^+ included.  Values: each pair's
entries are added one by one in piece order from +0.0, and the partner's
sum adds the same values negated when s = -1, so it is s times the pair's
value to the bit.  Order: that sum lists its keys in order of first
appearance.  A pair first appears in its first piece, for both keys, since
pruning drops both keys of a pair or neither; the key keeps the tags of
the piece that placed it, its index and where inside the piece each key
is listed.  One lexsort on those tags restores the order at the end
(``fermion.expand_pairs``).  With no drop tolerance an exact zero keeps
its place, so only the final pruning removes keys.
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
    _accumulate,
    _stacked,
    commutator,  # noqa: F401  looked up here by bench/tracing.py
    expand_pairs,
    hermitian_product,
    multiply,  # noqa: F401  looked up here by bench/tracing.py
    operator_sum,  # noqa: F401  looked up here by bench/tracing.py
    trace,
)
from .hamiltonian import TrotterSequence

# budget of each ErrorOperator.validate check, relative to the coefficient
# one-norm (the trace's to its weighted diagonal terms)
VALIDATE_REL_TOL = 1e-8


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
    zero operator.  One backward loop over the fragments sums S_{alpha-1},
    builds C_alpha from it, adds C_alpha into D and the piece
    [H_alpha, D_alpha - C_alpha/2] into V's running sum over adjoint pairs,
    a pair keeping the tags of the piece that placed it.  At the end each
    pair is expanded to its two keys and one lexsort on the tags restores
    the term order of a single sum over the full pieces; every sum has the
    bits of the same sum built with ``+`` (see the module docstring).

    Pruning happens once, after the full accumulation, and at the
    ``delta_t = 1`` scale: a term is kept when its unscaled sum times 1/12
    reaches ``DEFAULT_DROP_TOLERANCE`` in magnitude, so every step keeps
    the same terms in the same order.  Each kept coefficient is then
    its sum times ``delta_t**2 / 12``.  A step at which a kept coefficient
    overflows, or underflows to zero or a subnormal value, raises
    ``NumericalError``, and so does an overflow on the way that reaches D
    or V; the result is then checked by :meth:`ErrorOperator.validate`.
    """
    if not math.isfinite(delta_t) or delta_t <= 0:
        raise ValidationError(f"delta_t must be positive and finite, got {delta_t}")
    fragments = sequence.fragments
    width = 1 + max((frag.max_orbital() for frag in fragments), default=-1)
    h_cre, h_ann, h_val = _stacked(fragments)
    ends = np.cumsum([0, *map(len, fragments[:-1])])  # terms before each fragment
    # an overflow leaves inf, and inf - inf or inf * 0 leaves NaN; no prune
    # below drops either, and a running sum that holds one keeps it, so
    # both are refused once, after the build
    with np.errstate(over="ignore", invalid="ignore"):
        suffix = RunningSum(width)  # D_alpha
        # V, one entry per adjoint pair with the own, mirror and piece tags
        # of PairTerms
        pairs = RunningSum(width, 0.0, (bool, bool, np.int64))
        for piece, (frag, end) in enumerate(zip(reversed(fragments), reversed(ends))):
            prefix = NormalOrderedOperator.zero()  # S_{alpha-1}, in key order
            if end:
                rows, sums = _accumulate((h_cre[:end], h_ann[:end]), h_val[:end], first_seen=False)
                live = ~(np.abs(sums) < DEFAULT_DROP_TOLERANCE)
                rows = rows[live]
                prefix = NormalOrderedOperator._from_arrays(h_cre[rows], h_ann[rows], sums[live])
            # C_alpha = [H_alpha, S_{alpha-1}] = m - m^+ for m = H_alpha S_{alpha-1},
            # freed after this step; the pair build prunes, so keys that
            # commuting fragments cancel to exact 0.0 never reach a later product
            cre, ann, val = hermitian_product(frag, prefix, 0, -1).expanded(-1)
            slots = suffix.add(cre, ann, val)
            weight = suffix.operator(slots, val * -0.5)  # D_alpha - C_alpha/2
            if weight:
                pairs.add(*hermitian_product(frag, weight, piece))
        total = expand_pairs(PairTerms(pairs.cre, pairs.ann, pairs.val, *pairs.tags))
        del pairs  # not held through the validation
        keep = ~(np.abs(total.val * (1.0 / 12.0)) < DEFAULT_DROP_TOLERANCE)
        val = total.val[keep] * ((delta_t * delta_t) / 12.0)
    if not all(np.isfinite(a).all() for a in (suffix.val, val)):
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
