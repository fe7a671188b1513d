#!/usr/bin/env python3
"""Lint: every public name in the package has a production caller.

Code that only tests call is weight the package carries for nothing: it
must be read, kept building and kept correct, yet no user path runs it.
This lint fails when, under ``src/repro``,

* a public top-level function,
* a public method (dunder methods are called by the language, so they
  are exempt), or
* a whole module (none of its public top-level names is used and no
  one imports it)

has no reference outside its own definition.  A reference is an
identifier, an attribute, an imported name, or a dotted-name string
(``"Class.method"``, as the benchmark's layer table spells its entry
points) in a production file: :data:`PRODUCTION_ROOTS` plus the frozen
``tests/reference_*.py`` copies, which are safety code in their own
right.  Re-exports in a package ``__init__`` do not count, nor do the
test suites.  Matching is by name, as ``grep -w`` would, so a name used
anywhere in production keeps every definition of it.

Exceptions go in :data:`KEPT`, each with the reason it stays.

Exits non-zero listing every unreferenced name.  Run from anywhere:
``python scripts/check_production_callers.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

PACKAGE = "src/repro"
"""The package whose public names are audited (relative to the root)."""

PRODUCTION_ROOTS = ["src/repro", "benchmarks", "examples", "perfbench",
                    "scripts"]
"""Directories whose ``*.py`` files count as production callers."""

REFERENCE_GLOB = "tests/reference_*.py"
"""Frozen reference implementations; their calls count too."""

KEPT = (
    ("QTable.visited_fraction",
     "the Fig. 2 diagnosis plans to report state coverage with it"),
    ("run_batch",
     "multi-seed paper benches and the lock-step stepper build on it"),
)
"""``(name, reason)`` for public names kept without a production caller:
a top-level function or a ``Class.method``."""

_DOTTED = re.compile(r"^[A-Za-z_][\w.:]*$")


def _module_name(path: Path, package_root: Path) -> str:
    parts = list(path.relative_to(package_root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def references(path: Path, is_init: bool) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every name ``path`` refers to.

    A package ``__init__`` re-exporting a name (its imports and its
    ``__all__``) is not a reference; its other code is.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    skip: Set[int] = set()
    if is_init:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                skip.add(id(node))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                skip.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield node.module, node.lineno
            for alias in node.names:
                yield alias.name, node.lineno
                yield f"{node.module}.{alias.name}", node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            yield node.value.replace(":", "."), node.lineno
            for part in re.split(r"[.:]", node.value):
                yield part, node.lineno


class Definition(NamedTuple):
    """One public function or method defined in the package."""

    kind: str
    name: str
    qualname: str
    span: Tuple[int, int]


def definitions(path: Path) -> Iterator[Definition]:
    """Public top-level functions and public methods of one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield Definition("function", node.name, node.name,
                                 (node.lineno, node.end_lineno))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield Definition(
                        "method", item.name, f"{node.name}.{item.name}",
                        (item.lineno, item.end_lineno))


def top_level_names(path: Path) -> List[str]:
    """Public functions and classes a module defines at top level.

    Constants count only in a module that defines neither: a constant's
    name is often shared (``FORMAT_VERSION``), so matching it by name
    would keep a module that nothing imports.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    defined, constants = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            constants.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in defined or constants if not name.startswith("_")]


def production_files(root: Path) -> List[Path]:
    """Every production file but this lint, whose :data:`KEPT` names
    would otherwise reference themselves."""
    files = []
    for rel in PRODUCTION_ROOTS:
        files.extend(sorted((root / rel).rglob("*.py")))
    files.extend(sorted(root.glob(REFERENCE_GLOB)))
    return [path for path in files if path != Path(__file__).resolve()]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    package_root = root / PACKAGE
    problems = []
    for rel in PRODUCTION_ROOTS:
        if not (root / rel).exists():
            problems.append(f"{rel}: declared production root does not exist")

    # name -> [(path, line)] over every production file.
    seen: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for path in production_files(root):
        is_init = path.name == "__init__.py" and package_root in path.parents
        for name, line in references(path, is_init):
            seen[name].append((path, line))

    def used(name: str, outside: Tuple[Path, Tuple[int, int]]) -> bool:
        path, (first, last) = outside
        return any(p != path or not first <= line <= last
                   for p, line in seen.get(name, ()))

    kept = {name for name, _ in KEPT}
    unmatched = set(kept)
    modules = sorted(p for p in package_root.rglob("*.py")
                     if p.name not in ("__init__.py", "__main__.py"))
    for path in modules:
        rel = path.relative_to(package_root).as_posix()
        whole = (path, (1, sys.maxsize))
        called = used(_module_name(path, package_root), whole) or any(
            used(name, whole) for name in top_level_names(path))
        if not called:
            problems.append(f"{PACKAGE}/{rel}: module has no production "
                            "caller")
            continue
        for definition in definitions(path):
            called = used(definition.name, (path, definition.span))
            where = f"{PACKAGE}/{rel}:{definition.span[0]}"
            if kept & {definition.qualname, definition.name}:
                unmatched -= {definition.qualname, definition.name}
                if called:
                    problems.append(
                        f"{where}: {definition.qualname} is in KEPT but "
                        "has a production caller now; drop the entry")
            elif not called:
                problems.append(
                    f"{where}: {definition.kind} {definition.qualname} "
                    "has no production caller")
    problems.extend(f"KEPT entry {name!r} matches no definition"
                    for name in sorted(unmatched))

    if problems:
        print("check_production_callers: FAIL", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"check_production_callers: OK ({len(modules)} modules, "
          f"{len(KEPT)} kept names)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
