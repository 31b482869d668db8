"""The package has no runtime dependencies: every absolute import in
``src/fusemine/`` names a standard-library module or ``fusemine`` itself.
Private names stay in their package: outside ``learners/`` no module
imports an underscore name from another ``fusemine`` module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fusemine"
MODULES = sorted(PACKAGE.rglob("*.py"))


def test_imports_only_stdlib_and_fusemine():
    assert MODULES
    outside = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "fusemine" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert outside == []


def test_no_private_name_crosses_a_package():
    crossing = []
    for path in MODULES:
        if path.parent != PACKAGE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("fusemine"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    crossing.append(f"{path.name}:{node.lineno}: {alias.name}")
    assert crossing == []
