"""The package's import layers: gfproj <- groups <- {triples, mapgeom} <- verify <- cli.

A module may import only from a lower layer, so ``triples`` and ``mapgeom``
share a layer and import nothing from each other.  The imports are read off
the ``from .x import`` and ``from . import x`` statements of each module,
those inside functions included.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "revmaps"

LAYER = {"gfproj": 0, "groups": 1, "triples": 2, "mapgeom": 2, "verify": 3, "cli": 4}


def _relative_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == {"__init__", *LAYER}
    assert not _relative_imports(SRC / "__init__.py")


def test_modules_import_only_from_lower_layers():
    for module, layer in LAYER.items():
        for name in _relative_imports(SRC / f"{module}.py"):
            assert LAYER[name] < layer, f"{module} imports {name}"


def test_map_builder_does_not_import_the_triples():
    assert _relative_imports(SRC / "mapgeom.py") == {"groups"}
