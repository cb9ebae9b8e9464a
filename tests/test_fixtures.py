"""The shipped fixtures are what ``scripts/make_fixtures.py`` writes."""

import subprocess
import sys
from pathlib import Path


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def test_generator_rewrites_the_fixtures_byte_for_byte(fixture_dir, tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], check=True, capture_output=True
    )
    shipped = sorted(p.name for p in fixture_dir.glob("*.fcidump"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    assert len(shipped) == 4
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name
