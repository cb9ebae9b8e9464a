"""Preparation cost model: exact formulas, bounds, and monotonicity."""

import math

import numpy as np
import pytest

from trotterr.ci import ci_ground_state
from trotterr.errors import ValidationError
from trotterr.hamiltonian import load_fcidump
from trotterr.stateprep import (
    StatePrepCost,
    cisd_support_dimension,
    prep_cost_report,
    qubit_count,
    select_k,
    synthesis_error_bound,
    t_count_cisd,
)


class TestSupportDimension:
    def test_small_cases(self):
        assert cisd_support_dimension(4, 2) == 6
        assert cisd_support_dimension(8, 2) == 28
        assert cisd_support_dimension(8, 4) == 1 + 16 + 36

    def test_no_electrons_is_just_the_reference(self):
        assert cisd_support_dimension(6, 0) == 1
        assert cisd_support_dimension(6, 6) == 1

    def test_two_electron_systems_span_their_sector(self):
        # doubles from a 2-electron reference reach every configuration
        assert cisd_support_dimension(4, 2) == math.comb(4, 2)

    def test_domain(self):
        with pytest.raises(ValidationError):
            cisd_support_dimension(4, 5)
        with pytest.raises(ValidationError):
            cisd_support_dimension(4, -1)


class TestSelectK:
    def test_worked_value(self):
        # sqrt(1.01) - 1 ~ 4.9876e-3, squared ~ 2.4876e-5,
        # 4 / that ~ 1.6079e5, log2 ~ 17.295, (1 + .)/4 ~ 4.57 -> 5
        assert select_k(2, 0.01) == 5

    def test_floor_at_one(self):
        assert select_k(1, 100.0) == 1

    def test_monotone_in_support_dim(self):
        ks = [select_k(d, 1e-3) for d in range(1, 2000, 7)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_monotone_in_delta(self):
        deltas = np.logspace(-8, 0, 60)
        ks = [select_k(64, float(d)) for d in deltas]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_doubling_delta_moves_k_by_at_most_one(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            d = int(rng.integers(1, 10**6))
            delta = float(10.0 ** rng.uniform(-9, 0))
            diff = select_k(d, delta) - select_k(d, 2 * delta)
            assert diff in (0, 1)

    def test_error_bound_holds_at_returned_k(self):
        # the acceptance sweep in full: ten thousand random pairs
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            d = int(rng.integers(1, 10**7))
            delta = float(10.0 ** rng.uniform(-10, 1))
            k = select_k(d, delta)
            assert synthesis_error_bound(d, k) <= delta

    def test_bound_is_tight_one_step_down(self):
        # k is minimal whenever the floor at 1 is not binding
        rng = np.random.default_rng(7)
        for _ in range(2000):
            d = int(rng.integers(1, 10**6))
            delta = float(10.0 ** rng.uniform(-9, -1))
            k = select_k(d, delta)
            if k > 1:
                assert synthesis_error_bound(d, k - 1) > delta

    @pytest.mark.parametrize("support_dim", [1, 10, 100, 10**4])
    def test_minimal_down_to_the_smallest_delta(self, support_dim):
        # sqrt(1 + delta) - 1 cancels to 0 below delta ~ 1.1e-16, and the
        # closed form could land one above the minimum near 1e-15
        def brute(delta):
            k = 1
            while synthesis_error_bound(support_dim, k) > delta:
                k += 1
            return k

        deltas = [float(d) for d in np.geomspace(1e-3, 1e-320, 120)]
        deltas += [1.17e-15, 1.1e-16, 1e-300, 5e-324]
        for delta in deltas:
            assert select_k(support_dim, delta) == brute(delta), delta

    def test_logarithmic_scaling_slope(self):
        # k grows like log2(D/delta)/4; measure the slope over ten decades
        xs, ys = [], []
        for exp in range(4, 44, 4):
            d_over_delta = 2.0**exp
            xs.append(exp)
            ys.append(select_k(int(d_over_delta), 1.0))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope <= 0.25 + 0.02

    def test_domain(self):
        with pytest.raises(ValidationError):
            select_k(0, 0.1)
        with pytest.raises(ValidationError):
            select_k(4, 0.0)
        with pytest.raises(ValidationError):
            select_k(4, -1.0)


class TestTCount:
    def test_worked_values(self):
        assert t_count_cisd(5, 2, 5) == (110 + 128) * 3 == 714
        assert t_count_cisd(5, 1, 1) == (22 + 128) * 2 == 300

    def test_monotone_in_each_argument(self):
        base = t_count_cisd(6, 10, 3)
        assert t_count_cisd(7, 10, 3) > base
        assert t_count_cisd(6, 11, 3) > base
        assert t_count_cisd(6, 10, 4) > base

    def test_construction_width_domain(self):
        with pytest.raises(ValidationError):
            t_count_cisd(4, 6, 3)
        with pytest.raises(ValidationError):
            t_count_cisd(5, 0, 3)
        with pytest.raises(ValidationError):
            t_count_cisd(5, 6, 0)

    def test_qubit_count(self):
        assert qubit_count(5) == 9
        assert qubit_count(20) == 24
        # narrow systems are padded to the construction minimum
        assert qubit_count(4) == 9
        with pytest.raises(ValidationError):
            qubit_count(0)


@pytest.fixture(scope="module")
def h2(fixture_dir):
    return load_fcidump(fixture_dir / "h2_sto6g_canonical.fcidump")


class TestPrepCostReport:
    def test_default_support_is_combinatorial(self, h2):
        report = prep_cost_report(h2, 1e-3)
        assert isinstance(report, StatePrepCost)
        assert report.support_dim == 6
        assert report.k == select_k(6, 1e-3)
        assert report.t_count == t_count_cisd(5, 6, report.k)
        assert report.qubit_count == 9
        assert report.spare_zero_components

    def test_cisd_vector_support(self, h2):
        _, vec = ci_ground_state(h2, 2)
        report = prep_cost_report(h2, 1e-3, vec)
        assert 1 <= report.support_dim <= 6
        # a closed-shell singlet leaves single excitations empty
        assert report.support_dim < 6
        assert report.delta == 1e-3

    def test_empty_support_rejected(self, h2):
        from trotterr.fock import CIVector, SectorBasis

        zero = CIVector(SectorBasis.sector(4, 2), np.zeros(6))
        with pytest.raises(ValidationError):
            prep_cost_report(h2, 1e-3, zero)

    def test_halving_delta_bumps_k_at_most_once(self, h2):
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            a = prep_cost_report(h2, delta).k
            b = prep_cost_report(h2, delta / 2).k
            assert b - a in (0, 1)

    def test_vacuum_reference_is_minimal(self):
        class Bare:
            n_spin_orbitals = 6
            n_electrons = 0

        report = prep_cost_report(Bare(), 1e-2)
        assert report.support_dim == 1
        assert report.t_count == (22 * report.k + 64 * 3) * 2
