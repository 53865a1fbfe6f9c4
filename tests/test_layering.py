"""Layering: RAP's core and runtime never import a comparison baseline.

``repro.baselines`` holds the §8.1 systems RAP is measured against. The
host-pool cost model that RAP's hybrid split and the runtime's CPU fallback
price with lives in ``repro.core.hybrid``; the baselines import it from
there, never the other way round.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported_modules(path: Path) -> list[str]:
    """Every module ``path`` imports, relative imports resolved."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.append(module)
            found.extend(f"{module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("layer", ["core", "runtime"])
def test_layer_imports_no_baseline(layer):
    files = sorted((SRC / "repro" / layer).rglob("*.py"))
    assert files
    hits = [
        f"{path.relative_to(SRC)}: {module}"
        for path in files
        for module in _imported_modules(path)
        if module == "repro.baselines" or module.startswith("repro.baselines.")
    ]
    assert hits == []


def test_relative_imports_resolve():
    """The resolver sees the baseline import it exists to catch."""
    modules = _imported_modules(SRC / "repro" / "baselines" / "torcharrow.py")
    assert "repro.core.hybrid.CpuWorkerPool" in modules
    assert "repro.baselines.common" in modules
