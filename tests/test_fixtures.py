"""The shipped fixtures are what ``scripts/make_fixtures.py`` writes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_fixtures.py"


def test_generator_rewrites_the_fixtures_byte_for_byte(fixture_dir, tmp_path):
    # the script imports trotterr, which need not be installed
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    shipped = sorted(p.name for p in fixture_dir.glob("*.fcidump"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    assert len(shipped) == 4
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name
