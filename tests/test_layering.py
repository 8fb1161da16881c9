"""The package's import layers: gfproj <- groups <- {triples, mapgeom} <- verify <- cli.

A module may import only from a lower layer, so ``triples`` and ``mapgeom``
share a layer and import nothing from each other.  The imports are read off
the ``from .x import`` and ``from . import x`` statements of each module,
those inside functions included.  The names the benchmark's tracer patches
must exist, so that a rename fails here rather than in a benchmark run,
and a traced benchmark pass of each workload must fire every span it
expects and pass every gate.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_loads_no_dataclass_machinery():
    # every command pays its imports; the records are named tuples, so the
    # package needs neither dataclasses nor the inspect it pulls in.  Only
    # what the import adds counts, not what the interpreter's start loaded.
    code = (
        "import sys; before = set(sys.modules); import revmaps.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "revmaps.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def _bench_tracer_targets() -> set[tuple[str, str]]:
    """The (module, attribute) keys of SPANS and COUNTS in bench/tracer.py, read, not run."""
    tree = ast.parse((SRC.parents[1] / "bench" / "tracer.py").read_text())
    targets = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS") for t in node.targets
        ):
            targets |= set(ast.literal_eval(node.value))
    return targets


def test_bench_tracer_targets_exist():
    # the benchmark's tracer patches these names; a rename would break it only at run time
    targets = _bench_tracer_targets()
    assert ("triples", "make_triple") in targets and ("groups", "GroupHandle.mul") in targets
    for module, attr in sorted(targets):
        home = importlib.import_module(f"revmaps.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(home, attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("workload", ["matrix", "census", "construct"])
def test_bench_traced_pass_fires_every_span(workload):
    # the worker exits non-zero when a span in the tracer's EXPECTED never
    # fired, and lists each op that failed its gate in its last stdout line
    root = SRC.parents[1]
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", workload, "1", "0", "traced"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["failures"] == []
