"""Dense brute-force verification of the product formula.

This is the only module that touches complex arithmetic: it exponentiates
the fragment matrices explicitly, measures eigenphase shifts of the
resulting unitary, and extrapolates them to the leading-order prediction.
Everything here is meant for small bases, at most ``fock.DENSE_LIMIT``
states (``to_dense`` refuses larger ones), where it serves as the ground
truth that the perturbative machinery is checked against.
scipy (``expm``, ``schur``) is imported by the functions that call it, so
importing this module does not load it.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError
from .fock import SectorBasis, _check_dense_size, to_dense
from .hamiltonian import TrotterSequence

UNITARITY_TOL = 1e-10
# the Frobenius norm a unitary's Schur form may carry off its diagonal
SCHUR_OFF_DIAGONAL_TOL = 1e-8
# step sizes of the Richardson table, each half the one before: the table
# assumes the ratio 2 between neighbouring steps
RICHARDSON_STEPS = (0.1, 0.05, 0.025)


def trotter_propagator(
    seq: TrotterSequence, delta_t: float, basis: SectorBasis
) -> np.ndarray:
    """One second-order step: half-step exponentials of every fragment in
    reverse order, then the same exponentials in forward order."""
    if not delta_t > 0:
        raise ValidationError(f"delta_t must be positive, got {delta_t}")
    # to_dense's refusal, up front: a sequence with no fragments (a system
    # with only a core energy has none) would never reach to_dense, and the
    # identity below alone is dim^2 complex entries
    _check_dense_size(basis.dim)
    import scipy.linalg

    halves = [
        scipy.linalg.expm(-0.5j * delta_t * to_dense(f, basis)) for f in seq.fragments
    ]
    u = np.eye(basis.dim, dtype=complex)
    for h in reversed(halves):
        u = u @ h
    for h in halves:
        u = u @ h
    defect = np.linalg.norm(u.conj().T @ u - np.eye(basis.dim), ord=2)
    if defect > UNITARITY_TOL:
        raise NumericalError(f"propagator not unitary (defect {defect:.3e})")
    return u


def _unitary_eigensystem(u: np.ndarray):
    """Eigenphases and orthonormal eigenvectors of a unitary matrix.

    A complex Schur decomposition of a normal matrix is already an
    eigendecomposition with orthonormal vectors, which is far better
    conditioned than a generic eigensolver.
    """
    import scipy.linalg

    t, z = scipy.linalg.schur(u, output="complex")
    off = np.linalg.norm(t - np.diag(np.diag(t)))
    if off > SCHUR_OFF_DIAGONAL_TOL:
        raise NumericalError(f"Schur form not diagonal (off-norm {off:.3e})")
    return np.angle(np.diag(t)), z


def measured_trotter_shift(
    seq: TrotterSequence, delta_t: float, basis: SectorBasis, state_index: int
) -> float:
    """Empirical eigenvalue shift of one Hamiltonian level under Trotterization.

    Diagonalizes both H and the step unitary, matches the target level to a
    unitary eigenvector by maximum overlap, and returns
    (eigenphase / (-delta_t)) - E_i.  This is the quantity the error
    operator expectation predicts to leading order.
    """
    h = to_dense(seq.total(), basis)
    energies, vectors = np.linalg.eigh(h)
    if not 0 <= state_index < basis.dim:
        raise ValidationError(f"state_index {state_index} outside basis")
    e_true = float(energies[state_index])
    if abs(e_true * delta_t) >= np.pi:
        raise ValidationError(
            f"|E delta_t| = {abs(e_true * delta_t):.3f} >= pi: eigenphase wraps; "
            "reduce delta_t"
        )
    u = trotter_propagator(seq, delta_t, basis)
    phases, z = _unitary_eigensystem(u)
    target = vectors[:, state_index].astype(complex)
    overlaps = np.abs(z.conj().T @ target) ** 2
    best = int(np.argmax(overlaps))
    if overlaps[best] < 0.5:
        raise NumericalError(
            f"ambiguous eigenvector match (best overlap {overlaps[best]:.3f}); "
            "level may be degenerate"
        )
    measured = -float(phases[best]) / delta_t
    return measured - e_true


def richardson_shift_coefficient(
    seq: TrotterSequence, basis: SectorBasis, state_index: int
) -> float:
    """Extrapolated delta_t**2 coefficient of the measured shift.

    Divides each measured shift by delta_t**2 and removes the remaining
    even-order corrections with a Richardson table over the halved steps
    ``RICHARDSON_STEPS``, so the result approximates the prediction at
    delta_t = 1.
    """
    rows = [
        measured_trotter_shift(seq, dt, basis, state_index) / (dt * dt)
        for dt in RICHARDSON_STEPS
    ]
    order = 2
    while len(rows) > 1:
        factor = 4.0 ** (order // 2)
        rows = [
            (factor * lower - upper) / (factor - 1.0)
            for upper, lower in zip(rows, rows[1:])
        ]
        order += 2
    return float(rows[0])
