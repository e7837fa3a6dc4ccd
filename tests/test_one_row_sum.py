"""Every per-row sum of the package runs in `core._sum_last`, which adds each
row's terms in the order its own point would get, whatever the batch's
memory layout.  numpy's sum over the last axis picks its order from that
layout, so no other statement of ``src/multivec`` may call one.

The scan is static (stdlib ``ast``): it flags a call of a function or
method named ``sum`` (``np.sum``, ``x.sum``) whose axis is -1, given by
keyword or by position, anywhere outside the body of ``core._sum_last``.
``np.max`` and ``np.all`` are exact in any order, so they stay out of scope.

A second scan holds the block norm to its one owner, `core._block_sqnorms`,
which maps an overflowing or NaN norm to +inf for every density and
sampler: it flags a row's sum of squares, a call ``_sum_last(a, a)`` whose
two summed arrays are the same expression, anywhere outside that body.  A
sum of two different arrays (``block_quadform``'s ``_sum_last(sol, rows)``)
is no square and stays allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "multivec"
OWNER = ("core", "_sum_last")
NORM_OWNER = ("core", "_block_sqnorms")


def _is_last_axis(node: ast.expr) -> bool:
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant) and node.operand.value == 1)


def _sums_over_last_axis(tree: ast.AST) -> list[int]:
    """Line numbers of the calls of a `sum` over axis -1 under tree."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sum"):
            continue
        # np.sum(a, axis) takes its axis second, a.sum(axis) first
        on_module = isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
        position = 1 if on_module else 0
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        axes += node.args[position:position + 1]
        if any(map(_is_last_axis, axes)):
            lines.append(node.lineno)
    return lines


def _squared_norms(tree: ast.AST) -> list[int]:
    """Line numbers of the calls `_sum_last(a, a)` under tree, by name or as
    an attribute, with the array given by position or keyword."""
    lines = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if getattr(func, "id", getattr(func, "attr", None)) != "_sum_last":
            continue
        summed = node.args[:2] + [kw.value for kw in node.keywords if kw.arg in ("a", "c")]
        if len(summed) == 2 and ast.dump(summed[0]) == ast.dump(summed[1]):
            lines.append(node.lineno)
    return lines


def _strays(root: Path, find, owner: tuple[str, str]) -> list[str]:
    """`module:line` for every line find flags in the package under root
    outside the owner's body."""
    found = []
    for path in sorted(root.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.stem, getattr(stmt, "name", None)) == owner:
                continue
            found += [f"{path.stem}:{line}" for line in find(stmt)]
    return found


def stray_row_sums(root: Path) -> list[str]:
    return _strays(root, _sums_over_last_axis, OWNER)


def stray_squared_norms(root: Path) -> list[str]:
    return _strays(root, _squared_norms, NORM_OWNER)


def test_only_the_one_helper_sums_over_the_last_axis():
    assert stray_row_sums(SRC) == []


def test_only_the_one_block_norm_squares_a_row():
    assert stray_squared_norms(SRC) == []


def test_the_scan_finds_a_sum_over_the_last_axis(tmp_path):
    (tmp_path / "core.py").write_text(
        "import numpy as np\n"
        "def _sum_last(a):\n    return np.sum(a, axis=-1)\n"
        "def keep(a):\n    return np.max(a, axis=-1) + np.sum(a, axis=0) + a.sum(1)\n",
        encoding="utf-8",
    )
    (tmp_path / "other.py").write_text(
        "import numpy as np\n"
        "def f(a):\n    return np.sum(a, axis=-1)\n"
        "def g(a):\n    return np.sum(a, -1) + a.sum(-1) + a.sum(axis=-1)\n"
        "X = np.sum(np.ones((2, 2)), -1)\n",
        encoding="utf-8",
    )
    assert stray_row_sums(tmp_path) == ["other:3", "other:5", "other:5", "other:5", "other:6"]


def test_the_scan_finds_a_squared_norm(tmp_path):
    (tmp_path / "core.py").write_text(
        "def _block_sqnorms(blocks, out):\n    return _sum_last(blocks[0], blocks[0], out=out)\n"
        "def block_quadform(sol, rows):\n    return _sum_last(sol, rows)\n",
        encoding="utf-8",
    )
    (tmp_path / "other.py").write_text(
        "from . import core\n"
        "def f(z):\n    return _sum_last(z, z)\n"
        "def g(z, y):\n    return core._sum_last(z[1], c=z[1]) + _sum_last(a=y, c=y) + _sum_last(z, y)\n"
        "X = _sum_last(z, z[0]) + _sum_last(z)\n",
        encoding="utf-8",
    )
    assert stray_squared_norms(tmp_path) == ["other:3", "other:5", "other:5"]
