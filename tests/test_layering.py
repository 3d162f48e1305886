"""Import rules, checked over the source with :mod:`ast`: the engine
layer stands alone (``repro.core`` imports nothing from
``repro.analysis``), and no module under ``src/repro`` imports
``pickle``, ``marshal`` or ``shelve``.

The enumeration engine is the paper's procedure (§4) and nothing else;
static facts, the solver and the delay-set analyzer sit above it.  The
check parses every module under ``src/repro/core`` and looks at every
import statement, including ones nested in functions or behind
``TYPE_CHECKING``.
"""

from __future__ import annotations

import ast
from pathlib import Path

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
FORBIDDEN = "repro.analysis"


def _imported_modules(node: ast.AST) -> list[str]:
    """Absolute names of what ``node`` imports; a relative import is
    resolved from the ``repro.core`` package, and ``from M import N``
    also names ``M.N`` (N may be a submodule)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = ["repro", "core"][: 3 - node.level] if node.level else []
    base = ".".join(parts + ([node.module] if node.module else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _layer_violations() -> list[str]:
    paths = sorted(CORE.glob("*.py"))
    assert len(paths) > 5, f"no core modules under {CORE}"
    violations = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            for module in _imported_modules(node):
                if module == FORBIDDEN or module.startswith(FORBIDDEN + "."):
                    violations.append(f"{path.name}:{node.lineno} imports {module}")
                    break
    return sorted(violations)


def test_core_imports_nothing_from_analysis():
    assert _layer_violations() == []


SRC = CORE.parent
#: Modules that decode objects by running their constructors: nothing
#: read back from disk may execute code, so no module loads with them.
OBJECT_DECODERS = ("pickle", "marshal", "shelve")


def test_no_module_imports_an_object_decoder():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 50, f"no modules under {SRC}"
    violations = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            for module in _imported_modules(node):
                if module.split(".")[0] in OBJECT_DECODERS:
                    violations.append(f"{path.relative_to(SRC)}:{node.lineno} imports {module}")
    assert violations == []
