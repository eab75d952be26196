"""Every name a module under src/ or tests/ imports is used in it, and
every top-level function and class of the library has a reader outside
the tests."""

import ast
from collections import Counter
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


def named(node):
    """How often node's subtree names each name: as a Name, an Attribute or
    a string constant (getattr and the benchmark's tracer name functions
    by string)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def test_every_library_name_has_a_reader_outside_the_tests():
    """Each top-level def and class in src/owflab is named in src/ or in
    owfbench/ (not its tests) outside its own definition."""
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "owfbench")
             for path in sorted((REPO / top).rglob("*.py"))
             if not path.name.startswith("test_")}
    everywhere = sum(map(named, trees.values()), Counter())
    unread = [f"{path.stem}.{node.name}"
              for path, tree in trees.items() if path.parent.name == "owflab"
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and everywhere[node.name] == named(node)[node.name]]
    assert unread == []
