"""Trotter step-error analysis for second-quantized molecular Hamiltonians.

The pipeline: parse integrals (:mod:`trotterr.hamiltonian`), split the
Hamiltonian into ordered Hermitian fragments, build the leading step-error
operator (:mod:`trotterr.trotter`) in a sparse normal-ordered algebra
(:mod:`trotterr.fermion`), then measure it on exact, truncated-CI, and
Haar-random states (:mod:`trotterr.fock`, :mod:`trotterr.ci`,
:mod:`trotterr.haar`, :mod:`trotterr.analysis`) and price the state
preparation (:mod:`trotterr.stateprep`).  :mod:`trotterr.oracle` holds the
dense brute-force cross-checks and :mod:`trotterr.cli` the command-line
front end.

The public names below are bound lazily (PEP 562): ``import trotterr``
loads no numerical library, and the first access to a name imports only
the module that defines it.  ``import trotterr.cli`` therefore loads
neither numpy nor scipy, so a ``--threads`` cap is in place before any
worker pool starts; scipy itself is imported only by the Lanczos branches
of :mod:`trotterr.fock` and by :mod:`trotterr.oracle`.
"""

import importlib
import sys
import types

from ._version import __version__

# Public names, by the module that defines them.
_EXPORTS = {
    "analysis": (
        "ErrorAnalysisReport", "PowerLawFit", "analyze", "fit_power_law",
        "orbital_marginals",
    ),
    "ci": ("ci_ground_state", "hartree_fock_state"),
    "errors": (
        "FcidumpError", "NumericalError", "ResourceLimitError", "TrotterrError",
        "ValidationError",
    ),
    "fermion": (
        "LadderOp", "LadderTerm", "NormalOrderedOperator", "ann", "commutator",
        "cre", "multiply", "normal_order", "number_operator", "operator_sum",
        "trace",
    ),
    "fock": (
        "CIVector", "SectorBasis", "apply", "expectation", "full_spectrum",
        "ground_state", "spectral_norm", "to_dense",
    ),
    "haar": ("HaarReport", "haar_error_distribution", "haar_quadratic_form_stats"),
    "hamiltonian": (
        "MolecularSystem", "TrotterSequence", "build_trotter_sequence",
        "load_fcidump", "parse_fcidump",
    ),
    "oracle": ("measured_trotter_shift", "trotter_propagator"),
    "stateprep": (
        "StatePrepCost", "cisd_support_dimension", "prep_cost_report",
        "qubit_count", "select_k", "t_count_cisd",
    ),
    "synthetic": ("random_system",),
    "trotter": ("ErrorOperator", "build_error_operator", "estimate_trotter_number"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Reading the namespace dict directly (``vars(trotterr)``, ``dir()``,
    or a patcher that saves ``trotterr.__dict__[name]`` to restore it later)
    bypasses ``__getattr__``, so it binds every public name first."""

    @property
    def __dict__(self):
        for name in _OWNER:
            getattr(self, name)
        return globals()


sys.modules[__name__].__class__ = _Package
