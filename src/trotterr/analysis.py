"""Top-level error-operator analyses with reproducible, serializable output.

The centerpiece is :func:`analyze`, which chains fragment construction, the
step-error operator, exact and truncated-CI ground states, and the Trotter
number estimate into one report.  Everything in the report is a pure
function of (integrals, ordering, step size, options), so serializing it
twice yields byte-identical JSON; no timestamps, no machine identifiers.

Two supporting analyses stand beside it: ``orbital_marginals`` for the
per-orbital-pair magnitude distribution of the error terms, and
``fit_power_law`` for log-log scaling estimates.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._version import __version__
from .ci import _check_excitation_level, ci_ground_state, hartree_fock_state
from .errors import NumericalError, ValidationError
from .fermion import _term_order_sum
from .fock import (
    CIVector,
    RestrictedOperator,
    SectorBasis,
    expectation,  # noqa: F401  looked up here by bench/tracing.py
    ground_state,
    spectral_norm,  # noqa: F401  looked up here by bench/tracing.py
)
from .hamiltonian import MolecularSystem, build_trotter_sequence
from .trotter import (
    ErrorOperator,
    build_error_operator,
    check_time_and_delta,
    estimate_trotter_number,
)

SCHEMA_VERSION = 1

SPACES = ("sector", "full")


# ---------------------------------------------------------------------------
# Power-law fitting.
# ---------------------------------------------------------------------------


class PowerLawFit(NamedTuple):
    exponent: float
    prefactor: float
    r_squared: float


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Least-squares line through (log x, log y).

    Returns the slope as the exponent, exp(intercept) as the prefactor, and
    the coefficient of determination computed in log space, which is where
    the fit lives.
    """
    if len(points) < 3:
        raise ValidationError(f"need at least 3 points, got {len(points)}")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0) or not (
        np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    ):
        raise ValidationError("power-law fit needs finite positive data")
    lx, ly = np.log(xs), np.log(ys)
    if np.ptp(lx) == 0.0:
        raise NumericalError("all x values coincide; the fit is singular")
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(float(slope), float(np.exp(intercept)), r_squared)


# ---------------------------------------------------------------------------
# Orbital-pair magnitude marginals.
# ---------------------------------------------------------------------------


def orbital_marginals(error: ErrorOperator) -> np.ndarray:
    """Per-orbital-pair magnitude distribution of the error terms.

    ``M[i, j]`` sums |coefficient| over every term whose ladder-index
    multiset contains both i and j; the diagonal ``M[i, i]`` requires
    orbital i at least twice (for example a number operator).  A term
    spanning more than two distinct orbitals contributes its full magnitude
    to every unordered pair it touches, so this is a marginal distribution;
    row/column sums intentionally overcount the total norm.  The matrix is
    ``error.n_spin_orbitals`` square.
    """
    op = error.op
    n_orbitals = error.n_spin_orbitals
    if op.max_orbital() >= n_orbitals:
        raise ValidationError(
            f"operator touches orbital {op.max_orbital()}, matrix has {n_orbitals}"
        )
    # cell (i, j) takes a term when both orbitals are in cre | ann, and
    # cell (i, i) when i is in cre & ann; one cell at a time keeps the
    # temporaries at one entry per term
    weight = np.abs(op.val)
    either, both = op.cre | op.ann, op.cre & op.ann
    touched = [either >> i & 1 == 1 for i in range(n_orbitals)]
    out = np.zeros((n_orbitals, n_orbitals))
    for i in range(n_orbitals):
        out[i, i] = _term_order_sum(weight[both >> i & 1 == 1])
        for j in range(i + 1, n_orbitals):
            out[i, j] = out[j, i] = _term_order_sum(weight[touched[i] & touched[j]])
    return out


# ---------------------------------------------------------------------------
# CI vectors in the sector basis.
# ---------------------------------------------------------------------------


def embed_in_sector(vector: CIVector, sector: SectorBasis) -> CIVector:
    """Zero-pad a subset-basis vector onto the enclosing sector basis."""
    states = vector.basis.states
    pos = np.minimum(np.searchsorted(sector.states, states), sector.dim - 1)
    inside = sector.states[pos] == states
    if not inside.all():
        missing = int(states[np.argmin(inside)])
        raise ValidationError(f"state {missing:b} not in basis")
    amplitudes = np.zeros(sector.dim)
    amplitudes[pos] = vector.amplitudes
    return CIVector(sector, amplitudes)


# ---------------------------------------------------------------------------
# The full analysis report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CILevelResult:
    level: int
    subspace_dim: int
    energy: float
    ansatz_error: float
    residual_fraction: float | None


@dataclass(frozen=True)
class ErrorAnalysisReport:
    schema_version: int
    tool_version: str
    molecule: str
    orbital_kind: str
    source_sha256: str
    n_spin_orbitals: int
    n_electrons: int
    z_max: int
    space: str
    ordering_label: str
    n_fragments: int
    delta_t: float
    ground_state_energy: float
    ground_state_error: float
    spectral_norm: float
    ratio: float
    error_term_count: int
    error_l1: float
    ci_results: tuple[CILevelResult, ...]
    evolution_time: float
    target_delta: float
    recommended_trotter_number: int
    seeds: tuple[int, ...]

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, two-space indent, trailing
        newline.  Byte-identical across repeated runs by construction."""
        return (
            json.dumps(asdict(self), sort_keys=True, indent=2, allow_nan=False)
            + "\n"
        )


@contextmanager
def _stage(name: str):
    """Prefix any package error with the pipeline stage that raised it."""
    try:
        yield
    except (ValidationError, NumericalError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _default_ci_levels(system: MolecularSystem) -> tuple[int, ...]:
    cap = min(
        system.n_electrons, system.n_spin_orbitals - system.n_electrons
    )
    return tuple(k for k in (0, 1, 2) if k <= cap)


def analyze(
    system: MolecularSystem,
    *,
    delta_t: float = 1.0,
    ordering: str = "lexicographic",
    granularity: str = "integral",
    space: str = "sector",
    ci_levels: Sequence[int] | None = None,
    evolution_time: float = 1.0,
    target_delta: float = 1e-3,
    seeds: Sequence[int] = (),
    source_sha256: str = "",
) -> ErrorAnalysisReport:
    """Ground-state error, operator norm, CI-ansatz corrections, and the
    resulting Trotter number for one molecular system.

    ``space`` selects where the expectation and norm are taken: the
    physical particle-number sector (default) or the full occupation space
    for comparison.  ``ci_levels`` defaults to reference/singles/doubles
    clamped to what the system supports; explicitly requested levels are
    not clamped, and one outside [0, N - n] is rejected before any work.
    The ground state, the norm and each CI level are solved densely up to
    ``fock.DENSE_LIMIT`` states and by Lanczos above it.

    CI levels need MS2 = N mod 2.  The exact ground state comes from the
    whole N-electron sector, whose lowest state always has a component of
    that MS2; the CI reference has the system's MS2, so for any other MS2
    the residual would compare states of different spin.  Such systems are
    rejected unless ``ci_levels`` is empty.
    """
    if space not in SPACES:
        raise ValidationError(f"unknown space {space!r}; use one of {SPACES}")
    with _stage("Trotter number"):
        check_time_and_delta(evolution_time, target_delta)
    levels = _default_ci_levels(system) if ci_levels is None else tuple(ci_levels)
    if levels and system.ms2 != system.n_electrons % 2:
        raise ValidationError(
            f"CI levels need MS2 = N mod 2, got MS2={system.ms2} with "
            f"N={system.n_electrons}: the exact ground state is taken from the "
            "whole N-electron sector; request no CI levels for this system"
        )
    for level in levels:
        with _stage(f"CI level {level}"):
            _check_excitation_level(
                hartree_fock_state(system), level, system.n_spin_orbitals
            )
    with _stage("fragment sequence"):
        sequence = build_trotter_sequence(system, ordering, granularity=granularity)
    # build_error_operator's messages name the operator themselves
    error = build_error_operator(sequence, delta_t)
    if space == "sector":
        basis = SectorBasis.sector(system.n_spin_orbitals, system.n_electrons)
    else:
        basis = SectorBasis.full(system.n_spin_orbitals)
    with _stage("ground state"):
        # one Hamiltonian for the exact ground state and every CI level
        hamiltonian = system.hamiltonian()
        energy, psi0 = ground_state(hamiltonian, basis)
    with _stage("ground-state error"):
        # one restriction of V to the working basis serves the expectation
        # and the norm
        restricted_error = RestrictedOperator(error.op, basis)
        signed_error = restricted_error.expectation(psi0)
    gs_error = abs(signed_error)
    with _stage("spectral norm"):
        norm = restricted_error.spectral_norm()
    ratio = gs_error / norm if norm > 0.0 else 0.0
    if ratio > 1.0 + 1e-12:
        raise NumericalError(f"Rayleigh bound violated: ratio {ratio}")

    # every CI level is embedded into the basis of this one restriction
    sector_error = restricted_error
    if space == "full" and levels:
        sector = SectorBasis.sector(system.n_spin_orbitals, system.n_electrons)
        sector_error = RestrictedOperator(error.op, sector)
    ci_results = []
    for level in levels:
        with _stage(f"CI level {level}"):
            ci_energy, ci_vec = ci_ground_state(system, level, hamiltonian=hamiltonian)
            level_error = sector_error.expectation(
                embed_in_sector(ci_vec, sector_error.basis)
            )
        # signed difference: an ansatz with the wrong sign must not look good
        residual = (
            abs(signed_error - level_error) / gs_error if gs_error > 0.0 else None
        )
        ci_results.append(
            CILevelResult(
                level=level,
                subspace_dim=ci_vec.basis.dim,
                energy=ci_energy,
                ansatz_error=level_error,
                residual_fraction=residual,
            )
        )

    with _stage("Trotter number"):
        mu = estimate_trotter_number(gs_error, evolution_time, target_delta)

    return ErrorAnalysisReport(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        molecule=system.basis_label,
        orbital_kind=system.orbital_kind,
        source_sha256=source_sha256,
        n_spin_orbitals=system.n_spin_orbitals,
        n_electrons=system.n_electrons,
        z_max=system.z_max,
        space=space,
        ordering_label=error.ordering_label,
        n_fragments=error.n_fragments,
        delta_t=delta_t,
        ground_state_energy=energy,
        ground_state_error=gs_error,
        spectral_norm=norm,
        ratio=ratio,
        error_term_count=len(error.op),
        error_l1=error.coefficient_l1(),
        ci_results=tuple(ci_results),
        evolution_time=evolution_time,
        target_delta=target_delta,
        recommended_trotter_number=mu,
        seeds=tuple(int(s) for s in seeds),
    )


# ---------------------------------------------------------------------------
# CSV renderings for external plotting.
# ---------------------------------------------------------------------------


def marginals_csv(matrix: np.ndarray) -> str:
    """Square magnitude-marginal matrix as CSV: one row per line, with a
    header naming the convention."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    lines = ["# orbital-pair magnitude marginals M[i][j], hartree, row per orbital i"]
    lines.extend(",".join(repr(v) for v in row) for row in mat.tolist())
    return "\n".join(lines) + "\n"


def spectrum_csv(eigenvalues: np.ndarray) -> str:
    """Eigenvalues ascending, one per line."""
    values = sorted(float(v) for v in np.asarray(eigenvalues, dtype=float))
    lines = ["# eigenvalue, hartree, ascending"]
    lines.extend(repr(v) for v in values)
    return "\n".join(lines) + "\n"
