"""Haar-random-vector statistics for error operators.

For a Haar-random unit vector v in dimension d, the squared overlaps
(|<v|1>|^2, ..., |<v|d>|^2) against any fixed orthonormal basis follow a
flat Dirichlet distribution: Dirichlet(1, ..., 1) for the complex-unitary
ensemble, Dirichlet(1/2, ..., 1/2) for the real-orthogonal one.  Every
moment used below follows from that fact:

    E |a_k|^2                      = 1/d            (both ensembles)
    Var |a_k|^2                    = (d-1)/(d^2(d+1))    complex
                                   = 2(d-1)/(d^2(d+2))   real
    Cov(|a_j|^2, |a_k|^2), j != k  = -1/(d^2(d+1))       complex
                                   = -2/(d^2(d+2))       real

A Hermitian operator with eigenvalues lambda_k has <v|V|v> =
sum_k lambda_k |a_k|^2 over its own eigenbasis, so the variance of the
expectation value picks up the cross covariances:

    Var <v|V|v> = (d sum(lambda^2) - (sum lambda)^2) / (d^2 (d+1))

for the complex ensemble (replace d+1 by d+2 and double for the real
one).  Treating the components as uncorrelated would give
sum(lambda^2) * Var|a_k|^2 instead, which for a traceless spectrum
undercounts by exactly d/(d-1); the distinction is measurable at small
dimension (d=2, spectrum {+1, -1}: the true variance is 1/3, since
<v|V|v> is then uniform on [-1, 1]).

Sampling exploits unitary invariance: the overlap weights against the
operator's eigenbasis are distributed identically to those against the
computational basis, so the sampler draws normalized squared Gaussians
directly and never materializes vectors or matrices per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .fock import SectorBasis, full_spectrum
from .trotter import ErrorOperator

ENSEMBLES = ("complex", "real")

# samples per independently seeded block; the streams are fixed by
# (seed, SAMPLE_BLOCK), so changing it would change every output stream
SAMPLE_BLOCK = 8192

# rows of the complex ensemble's second Gaussian drawn at a time, which
# keeps that buffer cache-sized; the stream does not depend on it
_GAUSS_CHUNK = 256


def _check_ensemble(ensemble: str) -> None:
    if ensemble not in ENSEMBLES:
        raise ValidationError(f"unknown ensemble {ensemble!r}; choose from {ENSEMBLES}")


def _check_sampling(n_samples: int, seed: int, ensemble: str) -> None:
    """Reject what ``haar_error_distribution`` cannot sample with."""
    _check_ensemble(ensemble)
    if n_samples < 2:
        raise ValidationError(f"need n_samples >= 2, got {n_samples}")
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")


def squared_overlap_moments(
    dim: int, ensemble: str = "complex"
) -> tuple[float, float, float]:
    """(mean, variance, cross covariance) of a single squared overlap."""
    _check_ensemble(ensemble)
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    d = float(dim)
    if ensemble == "complex":
        denom = d * d * (d + 1.0)
        return 1.0 / d, (d - 1.0) / denom, -1.0 / denom
    denom = d * d * (d + 2.0)
    return 1.0 / d, 2.0 * (d - 1.0) / denom, -2.0 / denom


def haar_projection_variance(n_orbitals: int) -> float:
    """Variance of |<v|k>|^2 for a complex Haar vector on 2^N dimensions.

    Equal to 2/(2^N(2^N+1)) - 1/4^N, evaluated in the cancellation-free
    form (d-1)/(d^2(d+1)).
    """
    if n_orbitals < 1:
        raise ValidationError(f"n_orbitals must be >= 1, got {n_orbitals}")
    return squared_overlap_moments(1 << n_orbitals)[1]


def haar_quadratic_form_stats(
    eigenvalues, *, ensemble: str = "complex"
) -> tuple[float, float]:
    """Closed-form (mean, variance) of sum_k lambda_k |a_k|^2."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValidationError("eigenvalues must be a nonempty 1-d sequence")
    _, var_c, cov = squared_overlap_moments(lam.size, ensemble)
    s1 = float(lam.sum())
    s2 = float(lam @ lam)
    return s1 / lam.size, var_c * s2 + cov * (s1 * s1 - s2)


def _sample_quadratic_form(
    lam: np.ndarray, n_samples: int, seed: int, ensemble: str, block_size: int
) -> np.ndarray:
    """sum_k lambda_k |a_k|^2 for ``n_samples`` independent Haar vectors.

    Blocks of ``block_size`` samples each get their own child seed, so the
    stream is reproducible for a fixed (seed, block_size) no matter how
    blocks are scheduled.  One block buffer is reused for every block, and
    the complex ensemble's second Gaussian goes through a small chunk
    buffer; the draws and the arithmetic are those of drawing whole
    ``(count, dim)`` arrays, so the samples are too.
    """
    out = np.empty(n_samples)
    n_blocks = -(-n_samples // block_size)
    w_block = np.empty((min(block_size, n_samples), lam.size))
    if ensemble == "complex":
        g_chunk = np.empty((min(_GAUSS_CHUNK, len(w_block)), lam.size))
    start = 0
    for child in np.random.SeedSequence(seed).spawn(n_blocks):
        rng = np.random.default_rng(child)
        count = min(block_size, n_samples - start)
        w = w_block[:count]
        rng.standard_normal(out=w)
        np.square(w, out=w)
        if ensemble == "complex":
            for lo in range(0, count, _GAUSS_CHUNK):
                rows = w[lo : lo + _GAUSS_CHUNK]
                g = g_chunk[: len(rows)]
                rng.standard_normal(out=g)
                np.square(g, out=g)
                rows += g
        out[start : start + count] = (w @ lam) / w.sum(axis=1)
        start += count
    return out


@dataclass(frozen=True, eq=False)
class HaarReport:
    """Monte Carlo summary of <v|V|v> over Haar-random vectors.

    ``closed_form_variance`` includes the overlap cross covariances (see
    the module docstring); ``component_variance`` is the single-overlap
    variance for the same ensemble, recorded for reference.
    ``concentration_bound`` is sqrt(sum lambda^2)/d, the scale on which
    the distribution concentrates; ``within_bound_fraction`` counts
    samples with |value| <= 3x that scale.
    """

    n_samples: int
    seed: int
    ensemble: str
    dim: int
    empirical_mean: float
    empirical_variance: float
    closed_form_mean: float
    closed_form_variance: float
    component_variance: float
    concentration_bound: float
    within_bound_fraction: float
    samples: np.ndarray = field(repr=False)

    def mean_standard_error(self) -> float:
        return math.sqrt(self.empirical_variance / self.n_samples)

    def mean_is_unbiased(self, n_sigma: float = 3.0) -> bool:
        """|empirical mean - closed-form mean| within ``n_sigma`` standard
        errors; the zero-variance case demands exact agreement."""
        gap = abs(self.empirical_mean - self.closed_form_mean)
        return gap <= n_sigma * self.mean_standard_error()


def haar_error_distribution(
    error: ErrorOperator,
    basis: SectorBasis,
    n_samples: int,
    seed: int,
    *,
    ensemble: str = "complex",
) -> HaarReport:
    """Sample <v|V|v> over Haar-random unit vectors on ``basis``.

    One dense diagonalization up front, then O(dim) per sample; the
    stream is bit-reproducible given (seed, ensemble), in blocks of
    ``SAMPLE_BLOCK`` samples.
    """
    _check_sampling(n_samples, seed, ensemble)
    lam = full_spectrum(error.op, basis)
    # the squares of eigenvalues above ~1e154 overflow long before V itself
    # does: that is a numerical failure, not a report of inf
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _sample_quadratic_form(lam, n_samples, seed, ensemble, SAMPLE_BLOCK)
        mean, var = haar_quadratic_form_stats(lam, ensemble=ensemble)
        bound = math.sqrt(float(lam @ lam)) / basis.dim
        empirical_mean, empirical_variance = float(samples.mean()), float(samples.var(ddof=1))
    if not np.isfinite([empirical_mean, empirical_variance, mean, var, bound]).all():
        raise NumericalError("Haar statistics overflow: the error operator is too large")
    return HaarReport(
        n_samples=n_samples,
        seed=seed,
        ensemble=ensemble,
        dim=basis.dim,
        empirical_mean=empirical_mean,
        empirical_variance=empirical_variance,
        closed_form_mean=mean,
        closed_form_variance=var,
        component_variance=squared_overlap_moments(basis.dim, ensemble)[1],
        concentration_bound=bound,
        within_bound_fraction=float(np.mean(np.abs(samples) <= 3.0 * bound)),
        samples=samples,
    )
