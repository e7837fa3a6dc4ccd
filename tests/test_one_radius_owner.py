"""Each generator class draws its own radius (``radii``), beside the radial
integral (``log_radial_integral``) whose shapes that draw uses, so
`sampling` asks the law's generator for its radii and never switches on
the generator's type.

The first check reads the classes: every member of
``generators.GeneratorSpec`` defines the four methods a law uses.  The
scan is static (stdlib ``ast``): it flags, in ``src/multivec/sampling.py``,
an import of a generator class, under any name, and every name or
attribute that names one, such as the class argument of an ``isinstance``
call, alone or in a tuple.  A type switch needs one of those.
"""

import ast
import typing
from pathlib import Path

from multivec import generators

SAMPLING = Path(__file__).resolve().parents[1] / "src" / "multivec" / "sampling.py"
CLASSES = typing.get_args(generators.GeneratorSpec)
METHODS = ("validate_at", "log_kernel", "log_radial_integral", "radii")


def generator_names(source: str) -> list[str]:
    """`name:line` for each import of a generator class in source, under
    its own name or another, and each name or attribute that names one."""
    names = {cls.__name__ for cls in CLASSES}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{a.name}:{node.lineno}" for a in node.names if a.name in names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in names:
                found.append(f"{name}:{node.lineno}")
    return sorted(found, key=lambda f: (int(f.split(":")[1]), f))


def test_every_generator_defines_what_a_law_uses():
    missing = [(cls.__name__, m) for cls in CLASSES for m in METHODS
               if not callable(getattr(cls, m, None))]
    assert len(CLASSES) == 4 and missing == []


def test_sampling_names_no_generator_class():
    assert generator_names(SAMPLING.read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_generator_class():
    source = (
        "from .generators import GeneratorSpec, Kotz, PearsonII as P2, RadialLaw\n"
        "from . import generators\n"
        "def f(spec):\n"
        "    if isinstance(spec, (generators.PearsonVII, P2)):\n"
        "        return 1\n"
        "    return isinstance(spec, Kotz) or type(spec) is generators.Bessel\n"
        "def g(law: RadialLaw, spec: GeneratorSpec):\n"
        "    return law.spec.radii(None, law.n, 1)\n"
    )
    assert generator_names(source) == ["Kotz:1", "PearsonII:1", "PearsonVII:4", "Bessel:6",
                                       "Kotz:6"]
