"""Clifford+T resource model for preparing truncated-CI states.

The preparation circuit loads a D-dimensional amplitude vector into N
qubits (one per spin orbital) using a sequence of two-level reductions,
each synthesized over the ring Z[1/sqrt(2), i] at least-denominator
exponent k.  Everything here is exact integer/float arithmetic on the
closed-form cost model; no gate synthesis happens.

The approximation error of the synthesized unitary obeys

    ||(U - U~)|0>|| <= 2(D+2)/2^(4k) + 2*sqrt(2(D+2))/2^(2k),

and ``select_k`` returns the smallest k whose bound clears a target delta,
found by counting k up from 1 (the bound never increases with k).  The D+2
(rather than D) accounts for up to two extra basis states the reduction
may touch; one ancilla-like spare qubit is likewise always budgeted, so
``qubit_count`` is N+4 unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

from .errors import NumericalError, ValidationError
from .fock import CIVector

# amplitudes at or below this magnitude count as structural zeros when
# sizing D from a numerically computed vector
SUPPORT_THRESHOLD = 1e-10

# the synthesis construction needs at least five data qubits; smaller
# systems are padded up to this width for costing purposes
MIN_CONSTRUCTION_WIDTH = 5

# audit constant: t_count <= ENVELOPE_CONSTANT * (D log2(D/delta) + N D)
# for delta <= 1, from bounding 22k by 11 log2(D/delta) + 51 and D+1 by 2D
ENVELOPE_CONSTANT = 160.0


def cisd_support_dimension(n_spin_orbitals: int, n_electrons: int) -> int:
    """Count of determinants in a singles-and-doubles expansion.

    Reference plus C(n,1)C(N-n,1) singles plus C(n,2)C(N-n,2) doubles; an
    upper bound on the nonzero amplitudes of a CISD vector.
    """
    if not 0 <= n_electrons <= n_spin_orbitals:
        raise ValidationError(
            f"n_electrons {n_electrons} outside [0, {n_spin_orbitals}]"
        )
    n, virtual = n_electrons, n_spin_orbitals - n_electrons
    return 1 + comb(n, 1) * comb(virtual, 1) + comb(n, 2) * comb(virtual, 2)


def select_k(support_dim: int, delta: float) -> int:
    """Least denominator exponent meeting the synthesis error bound.

    Smallest integer k with 2(D+2)/2^(4k) + 2*sqrt(2(D+2))/2^(2k) <= delta,
    never below 1.  Monotone non-decreasing in D and non-increasing in
    delta; doubling delta lowers the result by at most one.
    """
    if support_dim < 1:
        raise ValidationError(f"support dimension must be >= 1, got {support_dim}")
    if not delta > 0 or not math.isfinite(delta):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    # both terms of the bound scale by exact powers of two, so it never
    # increases with k: the first k that clears delta is the smallest
    k = 1
    while synthesis_error_bound(support_dim, k) > delta:
        k += 1
    return k


def synthesis_error_bound(support_dim: int, k: int) -> float:
    """The preparation-error bound evaluated at exponent ``k``."""
    if support_dim < 1 or k < 1:
        raise ValidationError("need support_dim >= 1 and k >= 1")
    quartic = 2.0 * (support_dim + 2) * 2.0 ** (-4 * k)
    quadratic = 2.0 * math.sqrt(2.0 * (support_dim + 2)) * 2.0 ** (-2 * k)
    return quartic + quadratic


def t_count_cisd(n_spin_orbitals: int, support_dim: int, k: int) -> int:
    """T gates for the full preparation: (22k + 64(N-3)) per two-level
    reduction, D+1 reductions.

    The 64(N-3) covers the pair of N-controlled iX gates framing each
    reduction at 32(N-3) apiece; the construction is only defined for
    N >= 5.
    """
    if n_spin_orbitals < MIN_CONSTRUCTION_WIDTH:
        raise ValidationError(
            f"construction needs N >= {MIN_CONSTRUCTION_WIDTH} spin orbitals, "
            f"got {n_spin_orbitals}"
        )
    if support_dim < 1:
        raise ValidationError(f"support dimension must be >= 1, got {support_dim}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return (22 * k + 64 * (n_spin_orbitals - 3)) * (support_dim + 1)


def qubit_count(n_spin_orbitals: int) -> int:
    """N + 4: N data qubits, three workspace, one spare for the possible
    extra dimension.  Narrow systems are padded to the minimum width."""
    if n_spin_orbitals < 1:
        raise ValidationError(f"need at least one spin orbital, got {n_spin_orbitals}")
    return max(n_spin_orbitals, MIN_CONSTRUCTION_WIDTH) + 4


@dataclass(frozen=True)
class StatePrepCost:
    """Resource estimate for loading one CI vector."""

    support_dim: int
    n_spin_orbitals: int
    delta: float
    k: int
    t_count: int
    qubit_count: int
    spare_zero_components: bool


def prep_cost_report(
    system,
    delta: float,
    amplitudes: CIVector | None = None,
) -> StatePrepCost:
    """Cost a CISD-style preparation for ``system`` at target error ``delta``.

    With an explicit vector, the support dimension counts amplitudes above
    ``SUPPORT_THRESHOLD``; otherwise the combinatorial singles-and-doubles
    count stands in.  ``spare_zero_components`` records whether the full
    2^N embedding already holds at least two zeros, in which case the
    budgeted spare qubit is known to be unnecessary.
    """
    n_orb = system.n_spin_orbitals
    if amplitudes is None:
        support = cisd_support_dimension(n_orb, system.n_electrons)
    else:
        support = int(
            sum(abs(a) > SUPPORT_THRESHOLD for a in amplitudes.amplitudes)
        )
        if support < 1:
            raise ValidationError("amplitude vector has no support")
    k = select_k(support, delta)
    effective = max(n_orb, MIN_CONSTRUCTION_WIDTH)
    t_count = t_count_cisd(effective, support, k)
    if delta <= 1.0:
        envelope = ENVELOPE_CONSTANT * (
            support * math.log2(max(support / delta, 2.0)) + effective * support
        )
        if t_count > envelope:
            raise NumericalError(
                f"t_count {t_count} escaped its asymptotic envelope {envelope:.0f}"
            )
    return StatePrepCost(
        support_dim=support,
        n_spin_orbitals=n_orb,
        delta=delta,
        k=k,
        t_count=t_count,
        qubit_count=qubit_count(n_orb),
        spare_zero_components=(1 << n_orb) - support >= 2,
    )
