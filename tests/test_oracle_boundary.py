"""Import boundary between production code and the equivalence oracles.

Production code holds one implementation of each behaviour; the slow
reference forms the equivalence suites compare against live in
``repro.oracles``.  This test parses ``src/repro`` and fails if:

* a module outside ``repro/oracles/`` (other than ``abl-allocator``,
  whose "greedy (reference loop)" row runs the oracle on purpose)
  imports ``repro.oracles``;
* a ``def *_reference`` exists outside ``repro/oracles/``;
* a production ``__init__`` imports or exports an oracle.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
ORACLES = PACKAGE / "oracles"
ALLOWED_IMPORTERS = {PACKAGE / "experiments" / "abl_allocator.py"}


def _modules() -> List[Path]:
    return sorted(PACKAGE.rglob("*.py"))


def _is_oracle(path: Path) -> bool:
    return ORACLES in path.parents


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(path: Path, tree: ast.Module) -> Iterator[str]:
    """Every module an import statement in ``tree`` names, resolved."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _imports_oracles(path: Path, tree: ast.Module) -> bool:
    return any(
        name == "repro.oracles" or name.startswith("repro.oracles.")
        for name in _imported_modules(path, tree)
    )


def _oracle_names() -> Set[str]:
    names: Set[str] = set()
    for path in sorted(ORACLES.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _exported_names(tree: ast.Module) -> Set[str]:
    """Names an ``__init__`` binds by import or lists in ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).rpartition(".")[2])
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            )
    return names


def test_oracles_package_is_populated():
    # Guards the checks below against passing vacuously.
    names = _oracle_names()
    assert "greedy_allocation_reference" in names
    assert "IndexedMaxHeap" in names
    assert sum(name.endswith("_reference") for name in names) >= 10


def test_only_abl_allocator_imports_the_oracles():
    offenders = [
        str(path.relative_to(SRC))
        for path in _modules()
        if not _is_oracle(path)
        and path not in ALLOWED_IMPORTERS
        and _imports_oracles(path, _parse(path))
    ]
    assert offenders == []
    for path in ALLOWED_IMPORTERS:
        assert _imports_oracles(path, _parse(path)), path


def test_reference_defs_live_only_in_the_oracles():
    offenders: List[Tuple[str, int, str]] = []
    for path in _modules():
        if _is_oracle(path):
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.endswith("_reference"):
                offenders.append(
                    (str(path.relative_to(SRC)), node.lineno, node.name)
                )
    assert offenders == []


@pytest.mark.parametrize(
    "init",
    [p for p in sorted(PACKAGE.rglob("__init__.py")) if not _is_oracle(p)],
    ids=lambda p: _module_name(p),
)
def test_production_init_exports_no_oracle(init):
    tree = _parse(init)
    assert not _imports_oracles(init, tree)
    exported = _exported_names(tree)
    leaked = sorted(
        name for name in exported
        if name in _oracle_names() or name.endswith("_reference")
    )
    assert leaked == []
