"""Compact JSON in ``src/docgrain`` goes through ``json.dumps``.

``json.dump`` never takes CPython's C encoder: it calls ``iterencode``
without ``_one_shot``, so every value runs through the pure-Python
generators and the file gets one ``write`` per chunk. ``json.dumps`` with
no ``indent`` takes the C path. A ``json.dump`` call is allowed only for
an indented, human-read file, where the C encoder is not used either way.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "docgrain"


def json_dump_calls() -> list[tuple[str, bool]]:
    """(``file:line``, has an ``indent=`` keyword) of every ``json.dump``
    call in the package, whether spelled ``json.dump`` or an imported ``dump``."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dump_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "json"
            for alias in node.names
            if alias.name == "dump"
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "dump" and isinstance(func.value, ast.Name)
                    and func.value.id == "json") or (isinstance(func, ast.Name) and func.id in dump_names):
                calls.append((f"{path.name}:{node.lineno}", any(k.arg == "indent" for k in node.keywords)))
    return calls


def test_json_dump_only_writes_indented_files():
    calls = json_dump_calls()
    assert calls, "the scan found no json.dump call at all"
    assert [where for where, indented in calls if not indented] == []
