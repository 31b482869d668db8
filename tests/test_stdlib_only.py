"""The package has no runtime dependencies: every absolute import in
``src/fusemine/`` names a standard-library module or ``fusemine`` itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fusemine"


def test_imports_only_stdlib_and_fusemine():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
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
