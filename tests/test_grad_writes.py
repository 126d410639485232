"""``.grad`` is written in one place per purpose in ``src/docgrain``.

A tensor's gradient is set only by ``Tensor.__init__`` and
``Tensor.zero_grad`` (to None), ``Tensor._accumulate`` (the one
accumulation rule: copy a first gradient, add later ones in place) and
``tensor._scatter_add`` (row scatter-adds into a zeroed or made-contiguous
gradient). The scan parses the package with ``ast`` and reports every other
``.grad`` attribute that is assigned, augmented or deleted, so a second
accumulation path cannot come back unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "docgrain"

ALLOWED = {
    "tensor.py:Tensor.__init__",
    "tensor.py:Tensor.zero_grad",
    "tensor.py:Tensor._accumulate",
    "tensor.py:_scatter_add",
}


def grad_writes() -> list[tuple[str, int]]:
    """(``file:scope``, line) of every ``.grad`` write in the package; the
    scope is the dotted path of enclosing classes and functions."""
    writes = []

    def scan(node: ast.AST, where: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, where, (*scope, child.name))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "grad" and not isinstance(child.ctx, ast.Load):
                writes.append((f"{where}:{'.'.join(scope)}", child.lineno))
            scan(child, where, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8")), path.name, ())
    return writes


def test_grad_is_written_only_by_the_tensor_core():
    writes = grad_writes()
    assert {where for where, _ in writes} >= ALLOWED, "the scan missed a known .grad write"
    assert [f"{where} (line {line})" for where, line in writes if where not in ALLOWED] == []
