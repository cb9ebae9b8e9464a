"""Haar-vector statistics against their Dirichlet closed forms."""

import math

import numpy as np
import pytest
from scipy import stats

from bruteforce import loop_sample_quadratic_form, sample_haar_vector
from trotterr.errors import ResourceLimitError, ValidationError
from trotterr.fermion import NormalOrderedOperator, number_operator
from trotterr.fock import SectorBasis, full_spectrum
from trotterr.haar import (
    HaarReport,
    _sample_quadratic_form,
    haar_error_distribution,
    haar_projection_variance,
    haar_quadratic_form_stats,
    squared_overlap_moments,
)
from trotterr.hamiltonian import build_trotter_sequence, load_fcidump
from trotterr.trotter import ErrorOperator, build_error_operator


def synthetic_error(op: NormalOrderedOperator, n_orbitals: int) -> ErrorOperator:
    return ErrorOperator(
        op=op,
        delta_t=1.0,
        ordering_label="synthetic",
        n_fragments=0,
        n_spin_orbitals=n_orbitals,
    )


def number_term(p: int, weight: float = 1.0) -> NormalOrderedOperator:
    return NormalOrderedOperator.from_key(((p,), (p,)), weight)


class TestClosedForms:
    def test_projection_variance_values(self):
        assert haar_projection_variance(1) == 1 / 12
        assert haar_projection_variance(2) == 3 / 80

    def test_projection_variance_matches_difference_form(self):
        for n in range(1, 13):
            d = 1 << n
            expected = 2 / (d * (d + 1)) - 1 / d**2
            assert math.isclose(haar_projection_variance(n), expected, rel_tol=1e-12)

    def test_projection_variance_asymptotics(self):
        # value * d^2 = (d-1)/(d+1) -> 1
        assert abs(haar_projection_variance(16) * 4**16 - 1.0) < 1e-4

    def test_projection_variance_domain(self):
        with pytest.raises(ValidationError):
            haar_projection_variance(0)

    def test_overlap_moments_real(self):
        mean, var, cov = squared_overlap_moments(4, "real")
        assert mean == 0.25
        assert var == 2 * 3 / (16 * 6)
        assert cov == -2 / (16 * 6)

    def test_overlap_moments_validation(self):
        with pytest.raises(ValidationError):
            squared_overlap_moments(0)
        with pytest.raises(ValidationError):
            squared_overlap_moments(4, "quaternion")

    def test_quadratic_form_symmetric_pair(self):
        # complex d=2 with spectrum {+1,-1}: <v|V|v> is uniform on [-1,1]
        mean, var = haar_quadratic_form_stats([1.0, -1.0])
        assert mean == 0.0
        assert var == pytest.approx(1 / 3, rel=1e-15)
        mean, var = haar_quadratic_form_stats([1.0, -1.0], ensemble="real")
        assert var == pytest.approx(1 / 2, rel=1e-15)

    def test_quadratic_form_constant_spectrum(self):
        # a multiple of the identity has no spread at all
        mean, var = haar_quadratic_form_stats([0.7] * 8)
        assert mean == pytest.approx(0.7)
        assert abs(var) < 1e-16  # pure rounding residue

    def test_quadratic_form_cross_terms_matter(self):
        # dropping the covariances would give sum(lam^2) * Var|a_k|^2;
        # for a traceless spectrum the true value is d/(d-1) larger
        lam = [2.0, -1.0, -1.0, 0.0]
        _, var = haar_quadratic_form_stats(lam)
        naive = sum(x * x for x in lam) * squared_overlap_moments(4)[1]
        assert var == pytest.approx(naive * 4 / 3, rel=1e-12)


class TestSampler:
    """The premise of ``_sample_quadratic_form``, checked on explicit
    Haar vectors: the overlap weights are Dirichlet in any fixed basis."""

    @pytest.mark.parametrize("ensemble", ["complex", "real"])
    def test_component_moments(self, ensemble):
        dim, n = 4, 40000
        rng = np.random.default_rng(42)
        w = np.array(
            [abs(sample_haar_vector(dim, rng, ensemble=ensemble)[0]) ** 2 for _ in range(n)]
        )
        mean, var, _ = squared_overlap_moments(dim, ensemble)
        assert abs(w.mean() - mean) < 4 * math.sqrt(var / n)
        centered = (w - w.mean()) ** 2
        se_var = math.sqrt((np.mean(centered**2) - np.var(w) ** 2) / n)
        assert abs(np.var(w, ddof=1) - var) < 4 * se_var

    def test_rotation_invariance(self):
        # overlaps against two very different fixed unit vectors must be
        # indistinguishable (two-sample KS at the 1% level)
        dim, n = 8, 10000
        seeds = np.random.SeedSequence(101).spawn(2)
        rng1, rng2 = (np.random.default_rng(s) for s in seeds)
        k1 = np.zeros(dim)
        k1[0] = 1.0
        k2 = np.full(dim, 1 / math.sqrt(dim))
        a = np.array([abs(sample_haar_vector(dim, rng1) @ k1) ** 2 for _ in range(n)])
        b = np.array([abs(sample_haar_vector(dim, rng2) @ k2) ** 2 for _ in range(n)])
        assert stats.ks_2samp(a, b).pvalue > 0.01


class TestBlockSampler:
    @pytest.mark.parametrize("ensemble", ["complex", "real"])
    @pytest.mark.parametrize("block_size", [1, 7, 8192])
    def test_matches_fresh_array_loop(self, ensemble, block_size):
        # reused buffers and chunked draws must leave the stream unchanged
        lam = np.random.default_rng(3).standard_normal(16)
        for n_samples in (5, 8193, 20000):
            got = _sample_quadratic_form(lam, n_samples, 11, ensemble, block_size)
            ref = loop_sample_quadratic_form(lam, n_samples, 11, ensemble, block_size)
            assert np.array_equal(got, ref), n_samples


class TestHaarDistribution:
    def test_zero_operator(self):
        err = synthetic_error(NormalOrderedOperator.zero(), 2)
        rep = haar_error_distribution(err, SectorBasis.full(2), 100, 3)
        assert np.all(rep.samples == 0.0)
        assert rep.empirical_mean == 0.0
        assert rep.empirical_variance == 0.0
        assert rep.within_bound_fraction == 1.0
        assert rep.mean_is_unbiased()

    def test_symmetric_pair_complex(self):
        # spectrum {+1,-1} on one orbital: uniform on [-1,1], variance 1/3
        op = number_term(0, 2.0) + NormalOrderedOperator.identity(-1.0)
        err = synthetic_error(op, 1)
        rep = haar_error_distribution(err, SectorBasis.full(1), 200000, 7)
        assert rep.closed_form_variance == pytest.approx(1 / 3, rel=1e-15)
        assert rep.empirical_variance == pytest.approx(1 / 3, rel=0.02)
        assert rep.mean_is_unbiased()
        assert rep.component_variance == haar_projection_variance(1)

    def test_symmetric_pair_real(self):
        op = number_term(0, 2.0) + NormalOrderedOperator.identity(-1.0)
        err = synthetic_error(op, 1)
        rep = haar_error_distribution(
            err, SectorBasis.full(1), 200000, 7, ensemble="real"
        )
        assert rep.closed_form_variance == pytest.approx(1 / 2, rel=1e-15)
        assert rep.empirical_variance == pytest.approx(1 / 2, rel=0.02)
        assert rep.mean_is_unbiased()

    def test_determinism(self):
        op = number_term(0, 1.0) + number_term(1, -0.5)
        err = synthetic_error(op, 2)
        basis = SectorBasis.full(2)
        a = haar_error_distribution(err, basis, 5000, 99)
        b = haar_error_distribution(err, basis, 5000, 99)
        assert np.array_equal(a.samples, b.samples)
        assert a.empirical_mean == b.empirical_mean
        assert a.empirical_variance == b.empirical_variance
        c = haar_error_distribution(err, basis, 5000, 100)
        assert not np.array_equal(a.samples, c.samples)

    def test_tiny_sample_count(self):
        err = synthetic_error(number_term(0), 1)
        rep = haar_error_distribution(err, SectorBasis.full(1), 3, 0)
        assert rep.n_samples == 3
        assert rep.samples.shape == (3,)

    def test_validation(self):
        err = synthetic_error(number_term(0), 1)
        basis = SectorBasis.full(1)
        with pytest.raises(ValidationError):
            haar_error_distribution(err, basis, 1, 0)
        with pytest.raises(ValidationError):
            haar_error_distribution(err, basis, 10, -1)
        with pytest.raises(ValidationError):
            haar_error_distribution(err, basis, 10, 1 << 64)
        with pytest.raises(ValidationError):
            haar_error_distribution(err, basis, 10, 0, ensemble="none")

    def test_dense_limit(self, set_dense_limit):
        err = synthetic_error(number_operator(10), 10)
        set_dense_limit(100)
        with pytest.raises(ResourceLimitError):
            haar_error_distribution(err, SectorBasis.full(10), 10, 0)


@pytest.fixture(scope="module")
def h2_error(fixture_dir):
    system = load_fcidump(fixture_dir / "h2_sto6g_local.fcidump")
    seq = build_trotter_sequence(system)
    return system, build_error_operator(seq, 1.0)


class TestFixtureStatistics:
    def test_mean_zero_over_haar(self, h2_error):
        system, err = h2_error
        basis = SectorBasis.sector(system.n_spin_orbitals, system.n_electrons)
        rep = haar_error_distribution(err, basis, 20000, 12345)
        assert rep.mean_is_unbiased()
        assert abs(rep.closed_form_mean) < 1e-12
        assert rep.within_bound_fraction > 0.9

    def test_spectrum_trace_vanishes(self, h2_error):
        system, err = h2_error
        for basis in (
            SectorBasis.sector(system.n_spin_orbitals, system.n_electrons),
            SectorBasis.full(system.n_spin_orbitals),
        ):
            lam = full_spectrum(err.op, basis)
            assert abs(lam.sum()) <= 1e-8 * np.abs(lam).sum()
