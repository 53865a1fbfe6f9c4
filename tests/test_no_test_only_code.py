"""Guard: no public function or method in ``src/repro`` lives for its tests alone.

A public module-level function or public method must be named somewhere in
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` besides its own
``def`` line. A name counts as used when it appears there as a variable, an
attribute, a keyword argument or an identifier-shaped string (``getattr``
and the perfbench tracer wrap methods by name). Imports and ``__all__``
entries do not count: re-exporting a helper is not calling it. Tests are not
read, so a helper only its unit test calls fails here and should be deleted
together with that test.

Names cannot show execution. A method passes whenever unrelated code uses
the same name, and a function named only in code that never runs passes
too. The CI job ``reach`` closes that gap: ``tools/reach.py`` records which
functions the examples, CLI steps and benchmarks actually run.

Names that stay on purpose are kept in ``tools/reach.py``'s ``KEPT`` table,
each with one of its named reasons; the reach audit and this guard share it.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench")

_spec = importlib.util.spec_from_file_location("reach_tool", ROOT / "tools" / "reach.py")
reach = sys.modules.setdefault("reach_tool", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(reach)


def _is_all_assignment(node: ast.AST) -> bool:
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _used_names(tree: ast.AST) -> set[str]:
    skip: set[int] = set()
    for node in ast.walk(tree):
        if _is_all_assignment(node):
            skip.update(id(child) for child in ast.walk(node))
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _definitions(tree: ast.Module) -> list[tuple[str, int, str]]:
    """Public module-level functions and public methods as (qualname, line, name)."""
    found: list[tuple[str, int, str]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                found.append((node.name, node.lineno, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        found.append((f"{node.name}.{item.name}", item.lineno, item.name))
    return found


def _collect_used() -> set[str]:
    used: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    return used


def test_every_public_function_has_a_non_test_caller():
    used = _collect_used()
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(PACKAGE).as_posix()
        for qualname, line, name in _definitions(tree):
            if name in used or f"{rel}:{qualname}" in reach.KEPT:
                continue
            unused.append(f"{path.relative_to(ROOT)}:{line} {qualname}")
    assert not unused, (
        "public names that only tests reach (delete them with their tests, "
        "or keep them in tools/reach.py KEPT with a reason):\n  " + "\n  ".join(unused)
    )


def test_allowlist_reasons_are_named():
    unnamed = sorted(key for key, reason in reach.KEPT.items() if reason not in reach.REASONS)
    assert not unnamed, f"kept without a named reason: {unnamed}"


def test_allowlist_entries_exist():
    defined = {f.key for f in reach.functions(PACKAGE)}
    stale = sorted(set(reach.KEPT) - defined)
    assert not stale, f"kept names no longer defined: {stale}"
