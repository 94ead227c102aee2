"""Golden reports: the campaigns of ``tests/golden/regenerate.py``, rerun and
compared byte for byte with the committed reports in ``tests/golden/``.

A report is a pure function of its config and seed, so any change in these
bytes is a change in results or in the report format.  A change that means
to move report bytes regenerates the goldens with
``PYTHONPATH=src python tests/golden/regenerate.py`` and says why.
"""

import importlib.util
import json
from itertools import zip_longest
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _field(name: str, header: str, line: str, pos: int) -> str:
    """The field of ``line`` that holds character ``pos``: a csv column
    (counting only the commas outside quotes) or a json key."""
    if name.endswith(".json"):
        key = line.strip().split(":")[0]
        return key.strip('"') or "(blank)"
    index, inside = 0, False
    for ch in line[:pos]:
        if ch == '"':
            inside = not inside
        elif ch == "," and not inside:
            index += 1
    columns = header.split(",")
    return columns[index] if index < len(columns) else f"#{index + 1}"


def first_difference(name: str, got: str, want: str) -> str:
    """Where ``got`` first departs from the golden ``want``."""
    want_lines = want.split("\n")
    for i, (g, w) in enumerate(zip_longest(got.split("\n"), want_lines)):
        if g == w:
            continue
        if g is None or w is None:
            return f"{name} line {i + 1}: got {g!r}, golden {w!r}"
        pos = next((j for j, (a, b) in enumerate(zip(g, w)) if a != b),
                   min(len(g), len(w)))
        return (f"{name} line {i + 1}, field "
                f"{_field(name, want_lines[0], w, pos)}: "
                f"got {g!r}, golden {w!r}")
    return f"{name}: equal"


def test_first_difference_names_file_line_and_field():
    header = "method,benchmark,d,N,init,rate"
    want = f'{header}\nescbo,rastrigin,2,20,"uniform[-3.0,3.0]",1.0\n'
    got = want.replace(",1.0\n", ",0.5\n")
    assert first_difference("a.csv", got, want).startswith(
        "a.csv line 2, field rate:")
    assert first_difference("a.csv", want.replace("escbo", '"escbo"'),
                            want).startswith("a.csv line 2, field method:")
    doc = '{\n "series": [\n  {\n   "run": 0,\n   "diameter": 1.5\n'
    assert first_difference("a.json", doc.replace("1.5", "1.25"),
                            doc).startswith("a.json line 5, field diameter:")
    assert first_difference("a.json", doc.replace("\n ", "\n  "),
                            doc).startswith("a.json line 2, field series:")


def test_reports_equal_the_goldens(tmp_path):
    written = sorted(p.name for p in regenerate.write_reports(tmp_path))
    goldens = sorted(p.name for p in GOLDEN.glob("*")
                     if p.suffix in (".csv", ".json")
                     and p.name != regenerate.ENVIRONMENT)
    assert written == goldens, "regenerate the goldens: the case list moved"
    recorded = json.loads((GOLDEN / regenerate.ENVIRONMENT).read_text())
    host = regenerate.environment()
    for name in written:
        got = (tmp_path / name).read_bytes().decode("ascii")
        want = (GOLDEN / name).read_bytes().decode("ascii")
        if got != want:
            pytest.fail(
                f"{first_difference(name, got, want)}\n"
                f"goldens written with {recorded}, this host has {host}. "
                "If only the host differs, report the mismatch (numpy's "
                "SIMD dispatch may round exp and cos differently); do not "
                "regenerate to hide it.", pytrace=False)
