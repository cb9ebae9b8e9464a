"""Hartree-Fock reference and truncated configuration interaction.

Truncation level k keeps all configurations within k particle-hole
excitations of the reference determinant: k=0 is the bare reference, k=1
adds singles (CIS), k=2 doubles (CISD), and k = N - n recovers full CI.
The variational problem is the Hamiltonian projected onto that subspace,
which the Fock-space machinery solves directly on a subset basis.
``ci_ground_state`` takes its reference from ``hartree_fock_state``; no
caller chooses another.
"""

from __future__ import annotations

from .errors import ValidationError
from .fermion import NormalOrderedOperator
from .fock import CIVector, SectorBasis, ground_state, sector_states
from .hamiltonian import MolecularSystem, _electron_count_problem


def hartree_fock_state(system: MolecularSystem) -> int:
    """Reference determinant: the lowest orbitals of each spin occupied.

    ``n_alpha = (N + MS2) / 2`` electrons fill the lowest alpha (even) spin
    orbitals and ``n_beta = (N - MS2) / 2`` the lowest beta (odd) ones, so
    the determinant has the system's MS2; when MS2 = N mod 2 that is the N
    lowest spin orbitals, ``(1 << N) - 1``.  Orbitals are assumed
    energy-ordered in the integral file; that is the fixture's
    responsibility and is documented there.
    """
    n, ms2 = system.n_electrons, system.ms2
    problem = _electron_count_problem(n, ms2, system.n_spin_orbitals // 2)
    if problem:
        raise ValidationError(problem)
    n_alpha, n_beta = (n + ms2) // 2, (n - ms2) // 2
    state = 0
    for i in range(n_alpha):
        state |= 1 << (2 * i)
    for i in range(n_beta):
        state |= 1 << (2 * i + 1)
    return state


def _check_excitation_level(reference: int, level: int, n_orbitals: int) -> None:
    """Reject a reference outside ``n_orbitals`` orbitals, or a level outside
    [0, N - n] for the n electrons of ``reference``."""
    if not 0 <= reference < 1 << n_orbitals:
        raise ValidationError(f"reference {reference} outside {n_orbitals} orbitals")
    if level < 0:
        raise ValidationError(f"truncation level must be >= 0, got {level}")
    virtual = n_orbitals - reference.bit_count()
    if level > virtual:
        raise ValidationError(f"level {level} exceeds N - n = {virtual}")


def excitation_basis(reference: int, level: int, n_orbitals: int) -> SectorBasis:
    """All configurations within ``level`` excitations of ``reference``: the
    states of its sector that differ from it in at most 2 * level orbitals,
    since a state with j holes in the reference differs from it in 2j."""
    _check_excitation_level(reference, level, n_orbitals)
    n = reference.bit_count()
    return SectorBasis(n_orbitals, n, sector_states(n_orbitals, n, reference, 2 * level))


def ci_ground_state(
    system: MolecularSystem,
    level: int,
    *,
    hamiltonian: NormalOrderedOperator | None = None,
) -> tuple[float, CIVector]:
    """Minimal eigenpair of H restricted to the configurations within
    ``level`` excitations of the system's Hartree-Fock determinant.

    Restriction happens naturally: applying H on a subset basis projects
    away every component that leaves the space.  ``hamiltonian`` is
    ``system.hamiltonian()`` when the caller has already built it.
    """
    if hamiltonian is None:
        hamiltonian = system.hamiltonian()
    basis = excitation_basis(hartree_fock_state(system), level, system.n_spin_orbitals)
    return ground_state(hamiltonian, basis)
