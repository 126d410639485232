"""Every public name in ``src/docgrain`` has a caller outside the tests.

The scan parses the package with ``ast``. A public name is a top-level
function or class of a module other than ``__init__.py``, or a method of
such a class, whose name does not start with ``_``. It has a caller when
its name occurs in the package, in ``scripts/`` or in ``perfbench/``
outside its own definition: as a name, an attribute, an imported name or
a word in a string literal (the benchmark tracer names its targets as
``"docgrain.module:Class.method"`` strings). The re-exports in
``__init__.py`` are not callers. An occurrence inside the definition of a
name without a caller does not count either, so a helper that only dead
code uses is reported with it.

Names are matched by their last component, so a method counts as called
when any ``.name`` attribute of that spelling occurs; the scan can miss a
dead method that shares its name with a live one, never the reverse.
``CONTRACT`` names the functions that exist for the acceptance contract
and the scalar oracles the tests compare the vectorized code against.

The same holds for data: every annotated field of a class in
``src/docgrain`` (``name: type`` in the class body) is read in the caller
directories as a ``.name`` attribute. Writing a field is no read: neither
an assignment to it nor a method call on it whose value is dropped
(``bundle.counts.update(...)``). Fields are matched by name as methods are.
``FIELD_CONTRACT`` names the fields kept for in-process callers.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from docgrain.model import ModelConfig
from docgrain.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "docgrain"
CALLER_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

CONTRACT = {
    # Acceptance contract: criteria 5, 9 and 10.
    "labeling.entity_f1",
    "labeling.anls",
    "labeling.levenshtein",
    "render.render_page_svg",
    "render.count_region_rects",
    "model.finite_difference_check",
    # Scalar oracles of the whole-array geometry.
    "document.iou",
    "document.boundary_distance",
    "document.normalize_box",
}

FIELD_CONTRACT = {
    # The trained model, train()'s product for a library caller; the CLI
    # and the scripts read it back from the checkpoint instead.
    "training.TrainResult.model",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def public_definitions() -> dict[str, ast.AST]:
    """``module.name`` or ``module.Class.method`` -> its definition node."""
    found: dict[str, ast.AST] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{sub.name}"] = sub
    return found


def occurrences() -> list[tuple[str, Path, int]]:
    """(word, file, line) for every name, attribute, imported name and
    string-literal word in the caller directories."""
    out = []
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            if path.name == "__init__.py" and directory == PACKAGE:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    words = [node.id]
                elif isinstance(node, ast.Attribute):
                    words = [node.attr]
                elif isinstance(node, ast.alias):
                    words = [node.name.rsplit(".", 1)[-1]]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    words = _WORD.findall(node.value)
                else:
                    continue
                out.extend((word, path, node.lineno) for word in words)
    return out


def uncalled() -> list[str]:
    """Public names with no caller outside their own (or another uncalled)
    definition, repeated until no more names drop out."""
    defs = public_definitions()
    spans = {key: (PACKAGE / f"{key.split('.')[0]}.py", node.lineno, node.end_lineno) for key, node in defs.items()}
    occ = occurrences()
    dead: set[str] = set()
    while True:
        excluded = [spans[key] for key in dead]
        newly = set()
        for key in defs.keys() - dead:
            own = spans[key]
            leaf = key.rsplit(".", 1)[-1]
            if not any(
                word == leaf
                and not any(path == f and lo <= line <= hi for f, lo, hi in (own, *excluded))
                for word, path, line in occ
            ):
                newly.add(key)
        if not newly:
            return sorted(dead)
        dead |= newly


def annotated_fields() -> dict[str, str]:
    """``module.Class.field`` -> field name, for every annotated field."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        found[f"{path.stem}.{node.name}.{sub.target.id}"] = sub.target.id
    return found


def attribute_reads() -> set[str]:
    """Every ``.name`` read in the caller directories, writes excluded."""
    reads = set()
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # ``x.f.m(...)`` as a statement mutates ``x.f`` and reads nothing.
            mutated = {
                id(stmt.value.func.value)
                for stmt in ast.walk(tree)
                if isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
            }
            reads.update(
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in mutated
            )
    return reads


def test_every_public_name_has_a_caller_outside_tests():
    assert [key for key in uncalled() if key not in CONTRACT] == []


def test_contract_names_exist():
    assert CONTRACT <= public_definitions().keys()


def test_every_field_is_read_outside_tests():
    reads = attribute_reads()
    assert [key for key, name in annotated_fields().items() if name not in reads and key not in FIELD_CONTRACT] == []


def test_field_contract_names_exist():
    assert FIELD_CONTRACT <= annotated_fields().keys()


# Every settable config value doubles the configurations that tests and the
# benchmark must cover. A change that adds one updates this count and names
# the callers that need different values.
KNOBS = {ModelConfig: 11, TrainConfig: 7}


@pytest.mark.parametrize("config", list(KNOBS), ids=lambda c: c.__name__)
def test_settable_config_value_count(config):
    assert len([f for f in dataclasses.fields(config) if f.init]) == KNOBS[config]
