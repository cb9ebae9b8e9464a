"""Random molecular-style systems for tests and scaling studies.

Integrals are drawn in the spatial-orbital chemist convention and stored
in the same arrays a parsed integral file fills, each two-body draw over its
whole eightfold symmetry orbit, so every generated system satisfies the
symmetry contract by construction.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import MolecularSystem, _chemist_orbit

ONE_BODY_SCALE = 1.0
TWO_BODY_SCALE = 0.5


def random_system(
    rng: np.random.Generator,
    n_spatial: int,
    *,
    n_electrons: int | None = None,
    density: float = 1.0,
) -> MolecularSystem:
    """Draw a particle-conserving Hermitian system on 2*n_spatial spin orbitals.

    Integrals are normal draws of scale ``ONE_BODY_SCALE`` (symmetrized)
    and ``TWO_BODY_SCALE``.  ``density`` < 1 zeroes a random fraction of
    the distinct two-body classes, which keeps big instances affordable.
    """
    if n_spatial < 1:
        raise ValueError("need at least one spatial orbital")
    if n_electrons is None:
        n_electrons = max(2, n_spatial - n_spatial % 2)
    h1 = rng.normal(scale=ONE_BODY_SCALE, size=(n_spatial, n_spatial))
    h1 = (h1 + h1.T) / 2.0

    eri = np.zeros((n_spatial,) * 4)
    for i in range(n_spatial):
        for j in range(i + 1):
            for k in range(n_spatial):
                for l in range(k + 1):
                    if (i, j) < (k, l):
                        continue
                    if density < 1.0 and rng.random() > density:
                        continue
                    v = rng.normal(scale=TWO_BODY_SCALE)
                    for perm in _chemist_orbit(i, j, k, l):
                        eri[perm] = v

    system = MolecularSystem(
        n_electrons=n_electrons,
        h1=h1,
        eri=eri,
        core_energy=0.0,
        basis_label=f"synthetic-{n_spatial}",
        orbital_kind="synthetic",
    )
    system.validate()
    return system
