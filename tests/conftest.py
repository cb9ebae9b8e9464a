import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import trotterr

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# the directory holding the package under test, for fresh interpreters
PACKAGE_ROOT = str(Path(trotterr.__file__).resolve().parent.parent)


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture()
def set_dense_limit(monkeypatch):
    """``set_dense_limit(k)`` makes ``fock.DENSE_LIMIT`` k for one test, so
    a small basis takes the Lanczos path or is refused."""
    import trotterr.fock

    def set_limit(k: int) -> None:
        monkeypatch.setattr(trotterr.fock, "DENSE_LIMIT", k)

    return set_limit


@pytest.fixture(scope="session")
def fresh_python():
    """Run a script in a new interpreter that imports the package under
    test; ``drop`` names environment variables to unset.  Fails the test
    with the child's stderr unless the script exits 0, else returns its
    stdout."""

    def run(script: str, drop: tuple[str, ...] = ()) -> str:
        env = {k: v for k, v in os.environ.items() if k not in drop}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
