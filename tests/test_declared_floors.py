"""The CI floor leg runs what pyproject.toml declares: numpy's lowest declared
release on the lowest Python of the matrix, which is the lowest Python declared.

Only that leg installs the floors, so a floor raised in one file and not the
other would go untested.  The files are read as text: ``tomllib`` is newer than
the lowest Python, and no YAML reader is a test dependency.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_the_floor_leg_pins_the_declared_floors():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (matrix,) = re.findall(r"^ +python-version: \[(.*)\]$", workflow, re.M)
    lowest = min(re.findall(r'"([\d.]+)"', matrix), key=_version)
    legs = re.findall(r'- python-version: "([\d.]+)"\n +numpy: "numpy==([\d.]+)\.\*"', workflow)
    (requires_python,) = re.findall(r'^requires-python = ">=([\d.]+)"$', project, re.M)
    (numpy_floor,) = re.findall(r'"numpy>=([\d.]+)"', project)
    assert legs == [(lowest, numpy_floor)]
    assert lowest == requires_python
