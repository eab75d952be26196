"""Every name a module under src/ or tests/ imports is used in it."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# read through the package namespace by owfbench/run.py
EXEMPT = {("src/owflab/__init__.py", "backend_name")}


def unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    unused = [(path.relative_to(REPO).as_posix(), name)
              for top in ("src", "tests")
              for path in sorted((REPO / top).rglob("*.py"))
              for name in unused_imports(path)]
    assert [u for u in unused if u not in EXEMPT] == []
