"""Guard: no public function or method in ``src/repro`` lives for its tests alone.

A public module-level function or public method must be named somewhere in
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` besides its own
``def`` line. A name counts as used when it appears there as a variable, an
attribute, a keyword argument or an identifier-shaped string (``getattr``
and the perfbench tracer wrap methods by name). Imports and ``__all__``
entries do not count: re-exporting a helper is not calling it. Tests are not
read, so a helper only its unit test calls fails here and should be deleted
together with that test.

Names that stay on purpose are listed in ``ALLOWLIST`` with the reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench")

_HARNESS = "test harness: suites in two or more test files check other code through it"
_DESIGN = "named in DESIGN.md as part of the model it documents"
_FIXTURE = "writes the on-disk inputs that the ingest tests and docs read"

ALLOWLIST: dict[str, str] = {
    "CalibratedPredictor.predict_total": _HARNESS,
    "CoRunCost.is_contention_free": _HARNESS,
    "CoRunPolicy.effective": _HARNESS,
    "GraphSet.consumers": _HARNESS,
    "GraphSet.graphs_for_consumer": _HARNESS,
    "MilpProblem.set_objective": _HARNESS,
    "OverlappingCapacityEstimator.measure": _HARNESS,
    "PreprocessingLatencyPredictor.predict_total": _HARNESS,
    "ResidualModel.samples_for": _DESIGN,
    "ResilienceReport.faults_by_epoch": _DESIGN,
    "TelemetrySession.prometheus_text": _HARNESS,
    "TelemetrySession.record_kernel_sample": _HARNESS,
    "mape": _HARNESS,
    "parse_prometheus_text": _DESIGN,
    "r2_score": _HARNESS,
    "resilience_from_json": _HARNESS,
    "segment_positions": _DESIGN,
    "write_csv": _FIXTURE,
    "write_jsonl": _FIXTURE,
    "write_replay_log": _FIXTURE,
}


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
        for qualname, line, name in _definitions(tree):
            if name in used or qualname in ALLOWLIST:
                continue
            unused.append(f"{path.relative_to(ROOT)}:{line} {qualname}")
    assert not unused, (
        "public names that only tests reach (delete them with their tests, "
        "or allowlist them with a reason):\n  " + "\n  ".join(unused)
    )


def test_allowlist_reasons_are_named():
    named = {_HARNESS, _DESIGN, _FIXTURE}
    unnamed = sorted(name for name, reason in ALLOWLIST.items() if reason not in named)
    assert not unnamed, f"allowlisted without a named reason: {unnamed}"


def test_allowlist_entries_exist():
    defined = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(qualname for qualname, _, _ in _definitions(tree))
    stale = sorted(set(ALLOWLIST) - defined)
    assert not stale, f"allowlisted names no longer defined: {stale}"
