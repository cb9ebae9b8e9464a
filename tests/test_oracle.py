"""Dense propagator construction and empirical shift measurement."""

import numpy as np
import pytest
import scipy.linalg

from trotterr.errors import NumericalError, ResourceLimitError, ValidationError
from trotterr.fermion import NormalOrderedOperator
from trotterr.fock import SectorBasis, expectation, ground_state, to_dense
from trotterr.hamiltonian import TrotterSequence, build_trotter_sequence, parse_fcidump
from trotterr.oracle import (
    measured_trotter_shift,
    richardson_shift_coefficient,
    trotter_propagator,
)
from trotterr.synthetic import random_system
from trotterr.trotter import build_error_operator


def _hop(p, q, c):
    lo, hi = min(p, q), max(p, q)
    return NormalOrderedOperator({((hi,), (lo,)): c, ((lo,), (hi,)): c})


def _seq(ops, n):
    return TrotterSequence(list(ops), "lexicographic", "term", n)


def test_single_fragment_is_plain_exponential():
    op = NormalOrderedOperator({((0,), (0,)): 0.9, ((1,), (1,)): -0.4})
    basis = SectorBasis.full(2)
    u = trotter_propagator(_seq([op], 2), 0.3, basis)
    ref = scipy.linalg.expm(-0.3j * to_dense(op, basis))
    assert np.max(np.abs(u - ref)) <= 1e-12


def test_commuting_fragments_exact():
    ops = [
        NormalOrderedOperator({((0,), (0,)): 0.5}),
        NormalOrderedOperator({((1,), (1,)): -0.25}),
        NormalOrderedOperator({((1, 0), (1, 0)): 0.75}),
    ]
    basis = SectorBasis.full(2)
    h = to_dense(sum(ops, NormalOrderedOperator.zero()), basis)
    u = trotter_propagator(_seq(ops, 2), 0.7, basis)
    assert np.max(np.abs(u - scipy.linalg.expm(-0.7j * h))) <= 1e-12


def test_unitarity_on_random_systems():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        syst = random_system(rng, 2)
        seq = build_trotter_sequence(syst)
        basis = SectorBasis.sector(4, 2)
        u = trotter_propagator(seq, 0.2, basis)
        defect = np.linalg.norm(u.conj().T @ u - np.eye(basis.dim), ord=2)
        assert defect <= 1e-10


def test_resource_limit(monkeypatch):
    # 32,768 states, above fock.DENSE_LIMIT, refused before any matrix is
    # built, also for a sequence with no fragment to pass to to_dense; were
    # it not, the 16 GiB identity would fail here instead of being allocated
    def unreachable(*args, **kwargs):
        raise AssertionError("dense identity built above the dense limit")

    monkeypatch.setattr(np, "eye", unreachable)
    op = NormalOrderedOperator({((0,), (0,)): 1.0})
    for ops in ([op], []):
        with pytest.raises(ResourceLimitError, match="dense matrix of dim 32768"):
            trotter_propagator(_seq(ops, 15), 0.1, SectorBasis.full(15))


def test_commuting_shift_is_zero():
    ops = [
        NormalOrderedOperator({((0,), (0,)): 0.5}),
        NormalOrderedOperator({((1,), (1,)): -0.25}),
    ]
    basis = SectorBasis.full(2)
    shift = measured_trotter_shift(_seq(ops, 2), 0.4, basis, 0)
    assert abs(shift) <= 1e-12


def test_shift_scales_second_order():
    rng = np.random.default_rng(12)
    syst = random_system(rng, 2)
    seq = build_trotter_sequence(syst)
    basis = SectorBasis.sector(4, 2)
    s1 = measured_trotter_shift(seq, 0.02, basis, 0)
    s2 = measured_trotter_shift(seq, 0.04, basis, 0)
    assert s2 / s1 == pytest.approx(4.0, abs=0.05)


def test_shift_matches_error_operator_prediction(fixture_dir):
    syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
    seq = build_trotter_sequence(syst)
    basis = SectorBasis.sector(4, 2)
    _, psi = ground_state(syst.hamiltonian(), basis)
    predicted = expectation(build_error_operator(seq, 1.0).op, psi)
    extrapolated = richardson_shift_coefficient(seq, basis, 0)
    assert extrapolated == pytest.approx(predicted, rel=1e-6)


def test_residual_is_fourth_order(fixture_dir):
    syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
    seq = build_trotter_sequence(syst)
    basis = SectorBasis.sector(4, 2)
    _, psi = ground_state(syst.hamiltonian(), basis)
    predicted = expectation(build_error_operator(seq, 1.0).op, psi)
    dts = np.array([0.2, 0.1, 0.05, 0.02])
    residuals = np.array([
        abs(measured_trotter_shift(seq, dt, basis, 0) - predicted * dt * dt)
        for dt in dts
    ])
    slope = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
    assert slope >= 3.7


def test_phase_wrap_rejected(fixture_dir):
    syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
    seq = build_trotter_sequence(syst)
    basis = SectorBasis.sector(4, 2)
    with pytest.raises(ValidationError, match="wrap"):
        measured_trotter_shift(seq, 2.0, basis, 0)


def test_degenerate_level_detected():
    # five uncoupled two-level blocks plus a cyclically coupled fragment that
    # cancels in the total: H stays 5-fold degenerate while the Trotter
    # perturbation spreads each eigenvector over Fourier modes (max overlap
    # 2/5), which must be reported instead of silently picking one
    zero = NormalOrderedOperator.zero()
    a = sum((_hop(2 * j, 2 * j + 1, 0.5) for j in range(5)), zero)
    b = sum((_hop(2 * j + 1, (2 * j + 2) % 10, 0.3) for j in range(5)), zero)
    seq = _seq([b, a, b.scaled(-1.0)], 10)
    basis = SectorBasis.sector(10, 1)
    with pytest.raises(NumericalError, match="degenerate"):
        measured_trotter_shift(seq, 0.5, basis, 0)
