"""Every module-level private name in the package is used somewhere in it.

A helper that nothing calls is dead code; so is a private constant that
nothing reads.  The scan is static (stdlib ``ast``): a name counts as used
when some statement of ``src/multivec`` other than its own definition loads
it, as a bare name or as an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "multivec"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> set[str]:
    """Private names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if _private(n)}


def _loaded(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def orphans(root: Path) -> list[str]:
    """`module:name` for every module-level private name of the package
    under root that no other statement of the package reads."""
    stmts = []  # (module, defined names, loaded names)
    for path in sorted(root.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            stmts.append((path.stem, _defined(stmt), _loaded(stmt)))
    return [
        f"{module}:{name}"
        for i, (module, defined, _) in enumerate(stmts)
        for name in sorted(defined)
        if not any(name in loaded for j, (_, _, loaded) in enumerate(stmts) if j != i)
    ]


def test_no_module_level_private_name_is_orphaned():
    assert orphans(SRC) == []


def test_the_scan_finds_an_orphaned_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n"
        "def _helper():\n    return _USED\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _orphan():\n    return 0\n"
        "def public():\n    return _helper()\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import _helper\n_helper()\n", encoding="utf-8")
    assert sorted(orphans(tmp_path)) == ["a:_orphan", "a:_recursive"]
