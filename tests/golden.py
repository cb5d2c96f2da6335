"""Golden word files: the words of each pinned value, one per line, under tests/golden/.

A sha256 pin says that a value moved, but not which part. Beside each pin a
golden file holds the value's words as ``report_words`` yields them: the name
of every dataclass field or dict key, ``float.hex`` of every float,
``array(shape)`` and ``[len`` before the entries of an array or a list, and
the repr of the rest. ``assert_golden`` compares the words one by one and
names the field path of each run of differing words, with its old and new
words. A re-pin changes the golden file with its digest constant, so the
diff of the file shows the words that moved:

    STABLELEAF_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest -q tests -k golden

rewrites every golden file from the code under test.
"""

import dataclasses
import difflib
import os
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden"
SHOWN_RUNS = 5   # an assertion names the first 5 runs of differing words
SHOWN_WORDS = 6  # and up to 6 words of each side of a run


def field_words(o, path=""):
    """(path, word) for every word of o, depth first; path names the field, key or index the word belongs to."""
    if dataclasses.is_dataclass(o):
        for f in dataclasses.fields(o):
            yield f"{path}.{f.name}", f.name
            yield from field_words(getattr(o, f.name), f"{path}.{f.name}")
    elif isinstance(o, dict):
        for k, v in o.items():
            yield f"{path}.{k}", str(k)
            yield from field_words(v, f"{path}.{k}")
    elif isinstance(o, np.ndarray):
        yield path, f"array{o.shape}"
        yield from field_words(o.tolist(), path)
    elif isinstance(o, (list, tuple)):
        yield path, f"[{len(o)}"
        for i, v in enumerate(o):
            yield from field_words(v, f"{path}[{i}]")
    elif isinstance(o, float):
        yield path, o.hex()
    else:
        assert o is None or isinstance(o, (bool, int, str)), type(o)
        yield path, repr(o)


def report_words(o):
    """Every word of a report, depth first (see field_words)."""
    return [w for _, w in field_words(o)]


def csv_columns(text: str) -> dict:
    """A report CSV as {column: values}, in header order; a cell is an int where it reads as one, else a float."""
    header, *rows = (line.split(",") for line in text.splitlines())

    def number(cell):
        try:
            return int(cell)
        except ValueError:
            return float(cell)

    return {name: [number(row[i]) for row in rows] for i, name in enumerate(header)}


def _shown(words) -> str:
    more = f" ... ({len(words)} in all)" if len(words) > SHOWN_WORDS else ""
    return " ".join(words[:SHOWN_WORDS]) + more if words else "(none)"


def assert_golden(name: str, o) -> None:
    """The words of o equal those of tests/golden/<name>.txt; else name the paths of the first runs that differ."""
    pairs = list(field_words(o))
    new = [w for _, w in pairs]
    path = GOLDEN / f"{name}.txt"
    if os.environ.get("STABLELEAF_WRITE_GOLDEN"):
        path.write_text("\n".join(new) + "\n")
    old = path.read_text().splitlines()
    if old == new:
        return
    runs = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, old, new, autojunk=False).get_opcodes():
        if tag == "equal":
            continue
        if j1 < j2:  # words replaced or added: their own paths
            where = _shown(list(dict.fromkeys(p for p, _ in pairs[j1:j2])))
        else:  # words removed: the place they were removed from
            where = f"before {pairs[j1][0]}" if j1 < len(pairs) else "at the end"
        runs.append(f"{where}: old {_shown(old[i1:i2])}, new {_shown(new[j1:j2])}")
    raise AssertionError(
        f"{path.name}: {len(runs)} differing run(s) of words, the first {min(len(runs), SHOWN_RUNS)}:\n  "
        + "\n  ".join(runs[:SHOWN_RUNS])
    )
