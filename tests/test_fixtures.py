"""The shipped fixtures are what ``scripts/make_fixtures.py`` writes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from trotterr.hamiltonian import build_trotter_sequence, load_fcidump

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_fixtures.py"


def test_generator_rewrites_the_fixtures_byte_for_byte(fixture_dir, tmp_path):
    # the script imports trotterr, which need not be installed
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    # an overflow or invalid value in the integral engine fails the run, as
    # it would in the test process
    subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPT), str(tmp_path)],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    shipped = sorted(p.name for p in fixture_dir.glob("*.fcidump"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    assert len(shipped) == 4
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name


def test_generator_builds_the_h6_chain(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.build_chain(tmp_path, 6, ("local", "canonical"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "h6_sto6g_canonical.fcidump",
        "h6_sto6g_local.fcidump",
    ]
    fragments = {}
    for kind in ("local", "canonical"):
        path = tmp_path / f"h6_sto6g_{kind}.fcidump"
        assert path.read_text().startswith("&FCI NORB=6,NELEC=6,MS2=0,\n")
        fragments[kind] = len(build_trotter_sequence(load_fcidump(path)))
    assert len((tmp_path / "h6_sto6g_local.fcidump").read_text().splitlines()) == 257
    assert fragments == {"local": 252, "canonical": 135}
