#!/usr/bin/env python
"""Unused-import check for the ``src/repro`` package (the CI docs job).

Flags every name imported into a ``src/repro`` module and never
referenced there, unless the module lists it in ``__all__`` or some
file under ``src``, ``tests``, ``examples``, ``benchmarks`` or
``perfbench`` imports it from that module (a re-export).  Standard
library only, so it runs wherever the package does:

    python scripts/check_imports.py

Exit status is non-zero when anything is flagged, printing one
``path:line: name`` line per unused import.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
#: trees whose ``from <module> import <name>`` lines make a re-export
IMPORTERS = ("src", "tests", "examples", "benchmarks", "perfbench")


def module_name(path: Path) -> str:
    """Dotted module name of a file under ``src``."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def resolve(path: Path, node: ast.ImportFrom) -> str | None:
    """The absolute module a ``from ... import`` in ``path`` names."""
    if not node.level:
        return node.module
    if not path.is_relative_to(SRC):
        return None
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    if node.level > 1:
        package = package[:len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append((alias.asname or alias.name.split(".")[0],
                              node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names.append((alias.asname or alias.name, node.lineno))
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module loads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return {elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)}
    return set()


def reexports(trees: dict[Path, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) for every ``from module import name`` anywhere."""
    pairs = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = resolve(path, node)
                if module:
                    pairs.update((module, alias.name) for alias in node.names)
    return pairs


def parse_all() -> dict[Path, ast.Module]:
    trees = {}
    for top in IMPORTERS:
        for path in sorted((REPO / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(encoding="utf-8"),
                                    str(path))
    return trees


def main() -> int:
    trees = parse_all()
    imported_from = reexports(trees)
    problems = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC / "repro"):
            continue
        module = module_name(path)
        used = referenced_names(tree) | exported_names(tree)
        for name, line in imported_names(tree):
            if name not in used and (module, name) not in imported_from:
                problems.append(f"{path.relative_to(REPO)}:{line}: {name}")
    for problem in problems:
        print(problem)
    print(f"{len(problems)} unused import(s) in src/repro", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
