"""Every module of the package parses as Python 3.10, the declared floor
(`requires-python = ">=3.10"`). Best effort: `feature_version` rejects
most, not all, syntax that only later versions accept."""
import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "evanom")
             .glob("*.py"))


def test_package_modules_found():
    assert len(SRC) >= 10


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
