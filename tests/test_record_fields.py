"""Every record field of the package has a reader outside the tests.

A field is an annotated name in the body of a class in src/stableleaf/. It
has a reader where some module of src/, scripts/ or perfbench/ loads an
attribute of that name (``x.name`` in a load context). The match is by name
alone, so a field that shares its name with another attribute (such as ``n``
or ``z``) passes; the check catches a name that nothing outside the tests
reads at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stableleaf"
READERS = ("src", "scripts", "perfbench")

# paper-check records that only the tests build today: item 3 of ROADMAP.md wires them into
# the run report or removes them, and removes this list with them
UNWIRED_PAPER_CHECKS = {"SingularFrame", "AngleGapRecord", "GrowthReport"}


def record_fields():
    """(class, field) for every annotated name in a class body of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name not in UNWIRED_PAPER_CHECKS:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield node.name, stmt.target.id


def loaded_attributes():
    """Every attribute name loaded somewhere in src/, scripts/ or perfbench/."""
    names = set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def test_every_record_field_has_a_reader():
    fields = list(record_fields())
    assert len(fields) > 50  # the walk found the records
    read = loaded_attributes()
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert not unread, f"fields that nothing in {', '.join(READERS)} reads: {unread}"
