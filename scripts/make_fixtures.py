#!/usr/bin/env python3
"""Regenerate the shipped FCIDUMP fixtures from first principles.

A tiny s-type Gaussian integral engine (overlap, kinetic, nuclear
attraction, electron repulsion via the Boys function), written as array
expressions over primitive pairs, drives three orthogonal orbital
constructions for a linear hydrogen chain:

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

SPACING_BOHR = 1.4011  # H2's equilibrium bond length, also the chain spacing
RHF_MAX_ITER = 200
RHF_TOL = 1e-12
FCIDUMP_THRESHOLD = 1e-12

# numpy's array power may take a SIMD path that differs from libm's pow in
# the last bit; the fixtures were written through scalar pow
_pow = np.frompyfunc(math.pow, 2, 1)


def boys0(t: np.ndarray) -> np.ndarray:
    small = t < 1e-12
    safe = np.where(small, 1.0, t)
    val = 0.5 * np.sqrt(np.pi / safe) * erf(np.sqrt(safe))
    return np.where(small, 1.0 - t / 3.0, val)


def _contract(terms):
    """Sum over the last axis one term at a time, from the first.

    The fixtures were written by scalar loops; np.sum adds pairwise, which
    moves the last bits.
    """
    return np.cumsum(terms, axis=-1)[..., -1]


class ContractedS:
    """A normalized STO-6G hydrogen 1s function centred at z on the chain axis."""

    exponents = STO6G_H_EXPONENTS

    def __init__(self, z):
        self.z = z
        # fold primitive norms into the coefficients, then renormalize the
        # contraction so <chi|chi> = 1 exactly
        self.coeffs = STO6G_H_COEFFS * (2.0 * self.exponents / np.pi) ** 0.75
        pairs = _Pairs([self])
        self.coeffs = self.coeffs / math.sqrt(_contract(pairs.c * pairs.overlap)[0, 0])


class _Pairs:
    """Gaussian-product quantities of every primitive pair of `shells`.

    Arrays are indexed (shell i, shell j, primitive pair), the pair axis
    running over (primitive a of i, primitive b of j) with a outermost, so
    `_contract` adds in the order of nested loops over a and b.  All centres
    lie on one axis, so squared distances are exact.
    """

    def __init__(self, shells):
        n, m = len(shells), len(shells[0].exponents)
        exps = np.array([s.exponents for s in shells])
        coeffs = np.array([s.coeffs for s in shells])
        z = np.array([s.z for s in shells], dtype=float)
        i, j, a, b = (x.reshape(n, n, m * m) for x in np.indices((n, n, m, m)))
        self.ca, self.cb = coeffs[i, a], coeffs[j, b]
        self.c = self.ca * self.cb
        self.p = exps[i, a] + exps[j, b]
        self.mu = exps[i, a] * exps[j, b] / self.p
        self.r2 = np.square(z[i] - z[j])
        self.k = np.exp(-self.mu * self.r2)
        self.P = (exps[i, a] * z[i] + exps[j, b] * z[j]) / self.p
        self.vol = _pow(np.pi / self.p, 1.5).astype(float)  # (pi/p)^(3/2)
        self.overlap = self.vol * self.k


def ao_integrals(shells):
    """One- and two-electron AO integrals plus the nuclear repulsion.

    Every shell centre carries a unit nuclear charge.
    """
    n = len(shells)
    z = np.array([s.z for s in shells], dtype=float)
    pq = _Pairs(shells)
    S = _contract(pq.c * pq.overlap)
    T = _contract(pq.c * (pq.mu * (3.0 - 2.0 * pq.mu * pq.r2) * pq.vol * pq.k))
    # axes (i, j, nucleus, pair): contract the pairs, then the nuclei in order
    c, p, P, k = (x[:, :, None, :] for x in (pq.c, pq.p, pq.P, pq.k))
    V = _contract(_contract(c * (-2.0 * np.pi / p * k * boys0(p * np.square(P - z[:, None])))))
    # axes (j, k, l, bra pair, ket pair), one first shell i at a time
    eri = np.empty((n, n, n, n))
    cc, cd, q, Q, kcd = (x[None, :, :, None, :] for x in (pq.ca, pq.cb, pq.p, pq.P, pq.k))
    for i in range(n):
        cab, p, P, kab = (x[i][:, None, None, :, None] for x in (pq.c, pq.p, pq.P, pq.k))
        t = p * q / (p + q) * np.square(P - Q)
        prim = 2.0 * np.pi**2.5 / (p * q * np.sqrt(p + q)) * kab * kcd * boys0(t)
        eri[i] = _contract((cab * cc * cd * prim).reshape(n, n, n, -1))
    i, j = np.tril_indices(n, -1)
    enuc = float(_contract(1.0 / (z[i] - z[j])))
    return S, T, V, eri, enuc


def lowdin(S):
    vals, vecs = np.linalg.eigh(S)
    if vals.min() < 1e-10:
        raise RuntimeError("near-singular overlap")
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def rhf(S, Hcore, eri, n_electrons, enuc):
    """Closed-shell SCF; returns (orbital matrix, total energy)."""
    nocc = n_electrons // 2
    X = lowdin(S)
    F = Hcore
    energy = 0.0
    D = np.zeros_like(S)
    for _ in range(RHF_MAX_ITER):
        Fp = X.T @ F @ X
        _, Cp = np.linalg.eigh(Fp)
        C = X @ Cp
        Cocc = C[:, :nocc]
        D = 2.0 * Cocc @ Cocc.T
        J = np.einsum("ijkl,kl->ij", eri, D)
        K = np.einsum("ikjl,kl->ij", eri, D)
        F = Hcore + J - 0.5 * K
        new_energy = 0.5 * np.sum(D * (Hcore + F)) + enuc
        if abs(new_energy - energy) < RHF_TOL:
            energy = new_energy
            break
        energy = new_energy
    # canonical orbitals of the converged Fock matrix
    Fp = X.T @ F @ X
    _, Cp = np.linalg.eigh(Fp)
    C = X @ Cp
    # fix arbitrary signs so the fixtures are reproducible
    for col in range(C.shape[1]):
        pivot = np.argmax(np.abs(C[:, col]))
        if C[pivot, col] < 0:
            C[:, col] *= -1.0
    return C, float(energy)


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


def write_fcidump(path: Path, h1, g, enuc, n_electrons):
    """Write integrals with the conventional eightfold-unique record set."""
    norb = h1.shape[0]
    lines = [
        f"&FCI NORB={norb},NELEC={n_electrons},MS2=0,",
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
                    if abs(v) > FCIDUMP_THRESHOLD:
                        rec(v, i + 1, j + 1, k + 1, l + 1)
    for i in range(norb):
        for j in range(i + 1):
            if abs(h1[i, j]) > FCIDUMP_THRESHOLD:
                rec(h1[i, j], i + 1, j + 1, 0, 0)
    rec(enuc, 0, 0, 0, 0)
    path.write_text("\n".join(lines) + "\n")


def build_chain(outdir: Path, n_atoms: int, kinds):
    """Write h{n_atoms}_sto6g_{kind}.fcidump for each orbital kind in `kinds`.

    The chain is neutral and closed-shell; `kinds` draws from "local",
    "canonical" and "natural".
    """
    shells = [ContractedS(z) for z in np.arange(n_atoms) * SPACING_BOHR]
    S, T, V, eri, enuc = ao_integrals(shells)
    Hcore = T + V
    print(f"H{n_atoms}/STO-6G chain, spacing {SPACING_BOHR} bohr:")
    orbitals = {"local": lowdin(S)}
    if "canonical" in kinds or "natural" in kinds:
        C, e_rhf = rhf(S, Hcore, eri, n_atoms, enuc)
        print(f"  RHF energy    {e_rhf:+.10f}")
        orbitals["canonical"] = C
    if "natural" in kinds:
        U, occ, e_fci = natural_orbitals(*transform(C, Hcore, eri), n_atoms)
        print(f"  FCI energy    {e_fci + enuc:+.10f}")
        print(f"  natural occ   {occ}")
        orbitals["natural"] = C @ U
    for kind in kinds:
        h1, g = transform(orbitals[kind], Hcore, eri)
        write_fcidump(outdir / f"h{n_atoms}_sto6g_{kind}.fcidump", h1, g, enuc, n_atoms)


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "fixtures"
    outdir.mkdir(parents=True, exist_ok=True)
    build_chain(outdir, 2, ("local", "canonical", "natural"))
    build_chain(outdir, 4, ("local",))
    print(f"fixtures in {outdir}")


if __name__ == "__main__":
    main()
