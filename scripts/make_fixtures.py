#!/usr/bin/env python3
"""Regenerate the shipped FCIDUMP fixtures from first principles.

A tiny s-type Gaussian integral engine (overlap, kinetic, nuclear
attraction, electron repulsion via the Boys function) drives three
orthogonal orbital constructions for each molecule:

  local      symmetric (Lowdin) orthogonalization of the atomic orbitals,
  canonical  restricted Hartree-Fock molecular orbitals,
  natural    eigenvectors of the exact one-particle density matrix,
             ordered by descending occupation.

Usage: python3 scripts/make_fixtures.py [outdir]   (default: fixtures/)

Everything is deterministic; rerunning reproduces byte-identical files.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import erf

# STO-6G expansion of the hydrogen 1s orbital (exponents already carry the
# zeta = 1.24 scaling).  Contraction coefficients refer to normalized
# primitives.
STO6G_H_EXPONENTS = np.array(
    [35.52322122, 6.513143725, 1.822142904, 0.625955266, 0.243076747, 0.100112428]
)
STO6G_H_COEFFS = np.array(
    [0.00916359628, 0.04936149294, 0.16853830490, 0.37056279970, 0.41649152980, 0.13033408410]
)

H2_BOND_BOHR = 1.4011  # equilibrium separation


def boys0(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    small = t < 1e-12
    safe = np.where(small, 1.0, t)
    val = 0.5 * np.sqrt(np.pi / safe) * erf(np.sqrt(safe))
    return np.where(small, 1.0 - t / 3.0, val)


class ContractedS:
    """A normalized contracted s-type Gaussian on one center."""

    def __init__(self, center, exponents, coeffs):
        self.center = np.asarray(center, dtype=float)
        self.exponents = np.asarray(exponents, dtype=float)
        # fold primitive norms into the coefficients, then renormalize the
        # contraction so <chi|chi> = 1 exactly
        prim_norm = (2.0 * self.exponents / np.pi) ** 0.75
        c = np.asarray(coeffs, dtype=float) * prim_norm
        self.coeffs = c
        self.coeffs = c / math.sqrt(_contract2(_overlap_pp, self, self))


def _gauss_product(a, A, b, B):
    p = a + b
    diff = A - B
    k = np.exp(-a * b / p * float(diff @ diff))
    P = (a * A + b * B) / p
    return p, P, k


def _overlap_pp(a, A, b, B):
    p, _, k = _gauss_product(a, A, b, B)
    return (np.pi / p) ** 1.5 * k


def _kinetic_pp(a, A, b, B):
    p, _, k = _gauss_product(a, A, b, B)
    mu = a * b / p
    diff = A - B
    return mu * (3.0 - 2.0 * mu * float(diff @ diff)) * (np.pi / p) ** 1.5 * k


def _nuclear_pp(a, A, b, B, C):
    p, P, k = _gauss_product(a, A, b, B)
    d = P - C
    return -2.0 * np.pi / p * k * float(boys0(p * float(d @ d)))


def _eri_pppp(a, A, b, B, c, C, d, D):
    p, P, kab = _gauss_product(a, A, b, B)
    q, Q, kcd = _gauss_product(c, C, d, D)
    diff = P - Q
    t = p * q / (p + q) * float(diff @ diff)
    return (
        2.0 * np.pi**2.5 / (p * q * math.sqrt(p + q)) * kab * kcd * float(boys0(t))
    )


def _contract2(f, x: ContractedS, y: ContractedS):
    total = 0.0
    for a, ca in zip(x.exponents, x.coeffs):
        for b, cb in zip(y.exponents, y.coeffs):
            total += ca * cb * f(a, x.center, b, y.center)
    return total


def ao_integrals(shells, charges, centers):
    """One- and two-electron AO integrals plus the nuclear repulsion."""
    n = len(shells)
    S = np.empty((n, n))
    T = np.empty((n, n))
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            S[i, j] = _contract2(_overlap_pp, shells[i], shells[j])
            T[i, j] = _contract2(_kinetic_pp, shells[i], shells[j])
            for Z, C in zip(charges, centers):
                V[i, j] += Z * _contract2(
                    lambda a, A, b, B: _nuclear_pp(a, A, b, B, np.asarray(C, float)),
                    shells[i],
                    shells[j],
                )
    eri = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = 0.0
                    for a, ca in zip(shells[i].exponents, shells[i].coeffs):
                        for b, cb in zip(shells[j].exponents, shells[j].coeffs):
                            for c, cc in zip(shells[k].exponents, shells[k].coeffs):
                                for d, cd in zip(shells[l].exponents, shells[l].coeffs):
                                    total += ca * cb * cc * cd * _eri_pppp(
                                        a, shells[i].center, b, shells[j].center,
                                        c, shells[k].center, d, shells[l].center,
                                    )
                    eri[i, j, k, l] = total
    enuc = 0.0
    for i in range(len(charges)):
        for j in range(i):
            enuc += charges[i] * charges[j] / float(
                np.linalg.norm(np.asarray(centers[i], float) - np.asarray(centers[j], float))
            )
    return S, T, V, eri, enuc


def lowdin(S):
    vals, vecs = np.linalg.eigh(S)
    if vals.min() < 1e-10:
        raise RuntimeError("near-singular overlap")
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def rhf(S, Hcore, eri, n_electrons, enuc, max_iter=200, tol=1e-12):
    """Closed-shell SCF; returns (orbital matrix, total energy)."""
    nocc = n_electrons // 2
    X = lowdin(S)
    F = Hcore
    energy = 0.0
    D = np.zeros_like(S)
    for _ in range(max_iter):
        Fp = X.T @ F @ X
        _, Cp = np.linalg.eigh(Fp)
        C = X @ Cp
        Cocc = C[:, :nocc]
        D = 2.0 * Cocc @ Cocc.T
        J = np.einsum("ijkl,kl->ij", eri, D)
        K = np.einsum("ikjl,kl->ij", eri, D)
        F = Hcore + J - 0.5 * K
        new_energy = 0.5 * np.sum(D * (Hcore + F)) + enuc
        if abs(new_energy - energy) < tol:
            energy = new_energy
            break
        energy = new_energy
    # canonical orbitals of the converged Fock matrix
    Fp = X.T @ F @ X
    eps, Cp = np.linalg.eigh(Fp)
    C = X @ Cp
    # fix arbitrary signs so the fixtures are reproducible
    for col in range(C.shape[1]):
        pivot = np.argmax(np.abs(C[:, col]))
        if C[pivot, col] < 0:
            C[:, col] *= -1.0
    return C, float(energy), eps


def transform(C, Hcore, eri):
    h1 = C.T @ Hcore @ C
    g = np.einsum("pi,qj,pqrs,rk,sl->ijkl", C, C, eri, C, C, optimize=True)
    return h1, g


def natural_orbitals(h1_mo, g_mo, n_electrons):
    """Exact one-particle density in the MO basis -> natural orbital rotation.

    Diagonalizes the full Hamiltonian in the particle-number sector using the
    package itself, folds the spin density to spatial orbitals, and returns
    the rotation ordered by descending occupation (degenerate occupations
    keep the incoming order).
    """
    from trotterr.fock import SectorBasis, apply, ground_state
    from trotterr.hamiltonian import MolecularSystem
    from trotterr.fermion import NormalOrderedOperator

    norb = h1_mo.shape[0]
    system = MolecularSystem(n_electrons, h1_mo, g_mo)
    basis = SectorBasis.sector(2 * norb, n_electrons)
    energy, psi = ground_state(system.hamiltonian(), basis)
    dens = np.zeros((norb, norb))
    for i in range(norb):
        for j in range(norb):
            for spin in (0, 1):
                opkey = ((2 * i + spin,), (2 * j + spin,))
                op = NormalOrderedOperator({opkey: 1.0})
                dens[i, j] += psi.dot(apply(op, psi))
    occ, U = np.linalg.eigh(dens)
    order = np.argsort(-occ, kind="stable")
    U = U[:, order]
    for col in range(U.shape[1]):
        pivot = np.argmax(np.abs(U[:, col]))
        if U[pivot, col] < 0:
            U[:, col] *= -1.0
    return U, occ[order], float(energy)


def write_fcidump(path: Path, h1, g, enuc, n_electrons, ms2=0, threshold=1e-12):
    """Write integrals with the conventional eightfold-unique record set."""
    norb = h1.shape[0]
    lines = [
        f"&FCI NORB={norb},NELEC={n_electrons},MS2={ms2},",
        "  ORBSYM=" + "1," * norb,
        "  ISYM=1,",
        " &END",
    ]

    def rec(v, i, j, k, l):
        lines.append(f"{v: .16E} {i:4d} {j:4d} {k:4d} {l:4d}")

    for i in range(norb):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    v = g[i, j, k, l]
                    if abs(v) > threshold:
                        rec(v, i + 1, j + 1, k + 1, l + 1)
    for i in range(norb):
        for j in range(i + 1):
            if abs(h1[i, j]) > threshold:
                rec(h1[i, j], i + 1, j + 1, 0, 0)
    rec(enuc, 0, 0, 0, 0)
    path.write_text("\n".join(lines) + "\n")


def h_shell(center):
    return ContractedS(center, STO6G_H_EXPONENTS, STO6G_H_COEFFS)


def build_h2(outdir: Path):
    centers = [np.zeros(3), np.array([0.0, 0.0, H2_BOND_BOHR])]
    shells = [h_shell(c) for c in centers]
    S, T, V, eri, enuc = ao_integrals(shells, charges=[1.0, 1.0], centers=centers)
    Hcore = T + V

    X = lowdin(S)
    h1_loc, g_loc = transform(X, Hcore, eri)
    write_fcidump(outdir / "h2_sto6g_local.fcidump", h1_loc, g_loc, enuc, 2)

    C, e_rhf, eps = rhf(S, Hcore, eri, 2, enuc)
    h1_can, g_can = transform(C, Hcore, eri)
    write_fcidump(outdir / "h2_sto6g_canonical.fcidump", h1_can, g_can, enuc, 2)

    U, occ, e_fci = natural_orbitals(h1_can, g_can, 2)
    Cnat = C @ U
    h1_nat, g_nat = transform(Cnat, Hcore, eri)
    write_fcidump(outdir / "h2_sto6g_natural.fcidump", h1_nat, g_nat, enuc, 2)

    print(f"H2/STO-6G R={H2_BOND_BOHR} bohr:")
    print(f"  RHF energy    {e_rhf:+.10f}")
    print(f"  FCI energy    {e_fci + enuc:+.10f}")
    print(f"  natural occ   {occ}")
    return e_rhf, e_fci + enuc


def build_h4(outdir: Path, spacing=1.4011):
    """Linear H4 chain in the local basis; exercises larger-N paths."""
    centers = [np.array([0.0, 0.0, i * spacing]) for i in range(4)]
    shells = [h_shell(c) for c in centers]
    S, T, V, eri, enuc = ao_integrals(shells, charges=[1.0] * 4, centers=centers)
    Hcore = T + V
    X = lowdin(S)
    h1_loc, g_loc = transform(X, Hcore, eri)
    write_fcidump(outdir / "h4_sto6g_local.fcidump", h1_loc, g_loc, enuc, 4)
    print(f"H4 chain spacing={spacing} bohr: files written")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "fixtures"
    outdir.mkdir(parents=True, exist_ok=True)
    build_h2(outdir)
    build_h4(outdir)
    print(f"fixtures in {outdir}")


if __name__ == "__main__":
    main()
