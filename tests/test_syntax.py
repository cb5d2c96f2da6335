"""Every Python file of the repository parses as Python 3.10, the oldest version CI runs.

``ast.parse(..., feature_version=(3, 10))`` rejects syntax newer than 3.10,
such as ``except*`` (3.11) and PEP 695 type parameters (3.12). It does not
catch a standard-library function or module that is newer than 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "scripts", "perfbench")


def test_sources_parse_as_python_3_10():
    with pytest.raises(SyntaxError):  # the guard itself: exception groups are 3.11 syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    files = sorted(p for d in DIRS for p in (ROOT / d).rglob("*.py"))
    assert {p.relative_to(ROOT).parts[0] for p in files} == set(DIRS)
    bad = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            bad.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not bad, "\n".join(bad)
