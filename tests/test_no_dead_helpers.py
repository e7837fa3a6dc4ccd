"""Every module-level private name in the package is used somewhere in it,
every public name it exports is read somewhere, and `multivec._EXPORTS` is
the one list of those names.

A helper that nothing calls is dead code; so is a private constant that
nothing reads.  The scan is static (stdlib ``ast``): a name counts as used
when some statement of ``src/multivec`` other than its own definition loads
it, as a bare name or as an attribute.  A name in ``multivec._EXPORTS`` also
counts as used when the benchmark, a demo or the README names it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "multivec"
READERS = [*sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "README.md"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _loaded(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _statements(root: Path) -> list[tuple[str, set[str], set[str]]]:
    """(module, bound names, loaded names) for each top-level statement of
    the package under root."""
    return [
        (path.stem, _bound(stmt), _loaded(stmt))
        for path in sorted(root.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def orphans(root: Path) -> list[str]:
    """`module:name` for every module-level private name of the package
    under root that no other statement of the package reads."""
    stmts = _statements(root)
    return [
        f"{module}:{name}"
        for i, (module, bound, _) in enumerate(stmts)
        for name in sorted(n for n in bound if _private(n))
        if not any(name in loaded for j, (_, _, loaded) in enumerate(stmts) if j != i)
    ]


def _exports(root: Path) -> dict[str, str]:
    """name -> defining module, from the `_EXPORTS` table of root/__init__.py."""
    for stmt in ast.parse((root / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and "_EXPORTS" in _bound(stmt):
            table = ast.literal_eval(stmt.value)
            return {name: module for module, names in table.items() for name in names}
    raise LookupError(f"{root / '__init__.py'} has no _EXPORTS table")


def unread_exports(root: Path, readers: list[Path]) -> list[str]:
    """`module:name` for every exported name of the package under root that
    no statement of the package but its definition reads and no reader file
    names.  `__all__` and `_EXPORTS` hold strings, so they read nothing."""
    stmts = _statements(root)
    text = "\n".join(path.read_text(encoding="utf-8") for path in readers)
    return [
        f"{module}:{name}"
        for name, module in _exports(root).items()
        if not any(name in loaded and not (m == module and name in bound)
                   for m, bound, loaded in stmts)
        and not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def literal_all(root: Path) -> list[str]:
    """Modules of the package under root, its `__init__` aside, that assign a
    literal list or tuple to `__all__` instead of deriving it from `_EXPORTS`."""
    return [
        path.stem
        for path in sorted(root.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if "__all__" in _bound(stmt) and isinstance(stmt.value, (ast.List, ast.Tuple))
    ]


def family_functions(root: Path) -> dict[str, tuple[str, str]]:
    """family name -> (density, sampler) function names of each `Family(...)`
    record in the `FAMILIES` table of root/families.py."""
    out = {}
    for stmt in ast.parse((root / "families.py").read_text(encoding="utf-8")).body:
        if "FAMILIES" not in _bound(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Family":
                fields = dict(zip(("name", "density", "sampler"), node.args))
                fields.update((kw.arg, kw.value) for kw in node.keywords)
                out[ast.literal_eval(fields["name"])] = tuple(
                    getattr(fields[f], "attr", getattr(fields[f], "id", None))
                    for f in ("density", "sampler")
                )
    return out


def unexported_family_functions(root: Path) -> list[str]:
    """`family:function` for every record whose density is not a `densities`
    export or whose sampler is not a `sampling` export."""
    exports = _exports(root)
    return [
        f"{family}:{fn}"
        for family, pair in family_functions(root).items()
        for fn, module in zip(pair, ("densities", "sampling"))
        if exports.get(fn) != module
    ]


def test_no_module_level_private_name_is_orphaned():
    assert orphans(SRC) == []


def test_every_exported_name_is_read():
    assert unread_exports(SRC, READERS) == []


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


def test_the_scan_finds_an_unread_export(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "_EXPORTS = {'a': ('inside', 'outside', 'recursive', 'listed', 'dead')}\n"
        "__all__ = ['listed']\n",
        encoding="utf-8",
    )
    (pkg / "a.py").write_text(
        "def inside():\n    return 0\n"
        "def outside():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def listed():\n    return 2\n"
        "def dead():\n    return 3\n",
        encoding="utf-8",
    )
    (pkg / "b.py").write_text("from .a import inside\nX = inside()\n", encoding="utf-8")
    (tmp_path / "README.md").write_text("Call `outside()`; `deadline` and `undead` differ.\n",
                                        encoding="utf-8")
    assert unread_exports(pkg, [tmp_path / "README.md"]) == ["a:recursive", "a:listed", "a:dead"]


def test_no_module_restates_its_public_names():
    assert literal_all(SRC) == []


def test_every_family_pair_is_exported():
    from multivec.families import FAMILIES

    assert sorted(family_functions(SRC)) == sorted(FAMILIES)
    assert unexported_family_functions(SRC) == []


def test_the_scan_finds_a_restated_list_and_an_unexported_family_function(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "_EXPORTS = {'densities': ('logpdf_a', 'sample_b'), 'sampling': ('sample_a',)}\n"
        "__all__ = ['logpdf_a']\n",
        encoding="utf-8",
    )
    (pkg / "densities.py").write_text("from . import _EXPORTS\n"
                                      "__all__ = list(_EXPORTS['densities'])\n",
                                      encoding="utf-8")
    (pkg / "sampling.py").write_text("__all__ = ('sample_a',)\n", encoding="utf-8")
    (pkg / "families.py").write_text(
        "FAMILIES = {f.name: f for f in (\n"
        "    Family('a', _d.logpdf_a, _s.sample_a),\n"
        "    Family('b', _d.logpdf_b, sampler=_s.sample_b),\n"
        "    Family('c', logpdf_a, sample_c),\n"
        ")}\n",
        encoding="utf-8",
    )
    assert literal_all(pkg) == ["sampling"]
    assert family_functions(pkg) == {"a": ("logpdf_a", "sample_a"),
                                     "b": ("logpdf_b", "sample_b"), "c": ("logpdf_a", "sample_c")}
    assert unexported_family_functions(pkg) == ["b:logpdf_b", "b:sample_b", "c:sample_c"]
