"""The lazy package namespace and the deferred scipy imports.

Most checks run in a fresh interpreter: inside the test session other
tests have long since imported every module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import trotterr

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SOURCE_DIR = Path(trotterr.__file__).resolve().parent


class TestNamespace:
    @pytest.mark.parametrize(
        "name", [n for n in trotterr.__all__ if n != "__version__"]
    )
    def test_name_is_the_defining_modules_object(self, name):
        module = importlib.import_module(f"trotterr.{trotterr._OWNER[name]}")
        assert getattr(trotterr, name) is getattr(module, name)

    def test_all_is_the_table_without_duplicates(self):
        assert len(set(trotterr.__all__)) == len(trotterr.__all__)
        assert set(trotterr.__all__) == {"__version__", *trotterr._OWNER}

    def test_dir_lists_every_public_name(self):
        assert set(trotterr.__all__) <= set(dir(trotterr))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            trotterr.no_such_name
        assert not hasattr(trotterr, "analysis_report")

    def test_star_import(self):
        namespace = {}
        exec("from trotterr import *", namespace)
        for name in trotterr.__all__:
            assert namespace[name] is getattr(trotterr, name)


def test_bare_import_loads_no_numerical_library(fresh_python):
    fresh_python(
        """
        import sys
        import trotterr, trotterr.cli
        assert "numpy" not in sys.modules and "scipy" not in sys.modules
        loaded = sorted(m for m in sys.modules if m.startswith("trotterr."))
        assert loaded == ["trotterr._version", "trotterr.cli", "trotterr.errors"], loaded
        trotterr.NormalOrderedOperator
        assert "numpy" in sys.modules and "scipy" not in sys.modules
        assert "trotterr.oracle" not in sys.modules
        """
    )


def test_namespace_dict_binds_every_name(fresh_python):
    fresh_python(
        """
        import trotterr
        namespace = vars(trotterr)
        for name in trotterr.__all__:
            assert namespace[name] is getattr(trotterr, name), name
        """
    )


def test_traced_wrappers_resolve_after_cli_import(fresh_python):
    # a traced cli-h2 run installs the benchmark's wrappers after importing
    # only trotterr.cli; each is looked up in its owner's __dict__
    fresh_python(
        f"""
        import sys
        sys.path.insert(0, {str(BENCH_DIR)!r})
        import trotterr, trotterr.cli
        import tracing

        with tracing.installed(tracing.Tracer()):
            wrapped = [
                (tracing._resolve(owner), attr, tracing._resolve(owner).__dict__[attr])
                for owner, attr, _, _ in tracing.WRAPPED
            ]
        for target, attr, wrapper in wrapped:
            assert target.__dict__[attr] is wrapper.__wrapped__, attr
        assert trotterr.analyze is trotterr.analysis.analyze
        """
    )


def test_h2_subcommands_never_load_scipy(fixture_dir, fresh_python):
    h2 = str(fixture_dir / "h2_sto6g_local.fcidump")
    fresh_python(
        f"""
        import contextlib, io, sys
        from trotterr.cli import main

        runs = [
            ["analyze"],
            ["spectrum"],
            ["spectrum", "--full-fock"],
            ["haar", "--samples", "1000"],
            ["marginals"],
            ["prep-cost", "--delta", "1e-3"],
            ["prep-cost", "--delta", "1e-3", "--ci-vector"],
        ]
        for sub in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*sub, "--fcidump", {h2!r}]) == 0, sub
            assert "scipy" not in sys.modules, sub
        """
    )


def test_lanczos_and_oracle_import_scipy_on_demand(fixture_dir, fresh_python):
    h2 = str(fixture_dir / "h2_sto6g_local.fcidump")
    fresh_python(
        f"""
        import sys
        import numpy as np
        import trotterr
        import trotterr.fock

        system = trotterr.load_fcidump({h2!r})
        h = system.hamiltonian()
        basis = trotterr.SectorBasis.sector(system.n_spin_orbitals, system.n_electrons)
        dense_energy, _ = trotterr.ground_state(h, basis)
        dense_norm = trotterr.spectral_norm(h, basis)
        assert "scipy" not in sys.modules

        default_limit = trotterr.fock.DENSE_LIMIT
        trotterr.fock.DENSE_LIMIT = basis.dim - 1
        energy, _ = trotterr.ground_state(h, basis)
        assert abs(energy - dense_energy) <= 1e-9
        norm = trotterr.spectral_norm(h, basis)
        assert abs(norm - dense_norm) <= 1e-8 * dense_norm
        assert "scipy.sparse.linalg" in sys.modules
        trotterr.fock.DENSE_LIMIT = default_limit

        seq = trotterr.build_trotter_sequence(system)
        u = trotterr.trotter_propagator(seq, 0.1, basis)
        assert np.allclose(u.conj().T @ u, np.eye(basis.dim), atol=1e-10)
        shift = trotterr.measured_trotter_shift(seq, 0.1, basis, 0)
        assert np.isfinite(shift)
        assert "scipy.linalg" in sys.modules
        """
    )


def _traced_names() -> set[tuple[str, str]]:
    """``(module, attr)`` of every module attribute the benchmark's tracer
    patches: such an import is read through the module's namespace."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH_DIR / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(owner, attr) for owner, attr, _, _ in tracing.WRAPPED if ":" not in owner}


def _unread_imports(path: Path, exempt: set[str]) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).partition(".")[0] for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read and name not in exempt]


def test_every_module_import_is_read():
    traced = _traced_names()
    unread = {}
    for path in sorted(SOURCE_DIR.glob("*.py")):
        module = "trotterr" if path.stem == "__init__" else f"trotterr.{path.stem}"
        exempt = set(getattr(importlib.import_module(module), "__all__", ()))
        exempt |= {attr for owner, attr in traced if owner == module}
        names = _unread_imports(path, exempt)
        if names:
            unread[path.name] = names
    assert not unread, unread
