"""Every file bundled in ``src/handguard`` ships in the wheel.

setuptools puts into the wheel only the non-Python files that a
``[tool.setuptools.package-data]`` glob in ``pyproject.toml`` names; any
other file is left out without an error, and the installed package then
misses it.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "handguard"


def test_every_bundled_file_matches_a_package_data_glob():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["handguard"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    bundled = {path for path in PACKAGE.rglob("*")
               if path.is_file() and path.suffix != ".py"
               and "__pycache__" not in path.relative_to(PACKAGE).parts}
    assert PACKAGE / "scenarios" / "default.json" in bundled
    assert sorted(str(path.relative_to(PACKAGE)) for path in bundled - shipped) == []
