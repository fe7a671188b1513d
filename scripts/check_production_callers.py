#!/usr/bin/env python3
"""Lint: every public name and every option has a production caller.

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

It also fails when, under :data:`KNOB_PACKAGES`, an *option* is never
set in a production file: a defaulted parameter of a public function, a
public method or a public class's ``__init__``, or a field of a
``*Config`` dataclass.  A value only one caller ever uses is a constant;
every option nobody sets is a configuration nobody tests.  A call sets
an option when it passes it by keyword or fills its position (a ``*``
or ``**`` argument fills them all); ``dataclasses.replace`` sets the
fields it names.  Calls match by name, like references: a constructor
call by its class's name, a method call by the method's name.

Exceptions go in :data:`KEPT`, each with the reason it stays: a name, or
an option spelled ``Qualname(param=)`` (a class's name for its
``__init__`` and its config fields).

Exits non-zero listing every unreferenced name.  Run from anywhere:
``python scripts/check_production_callers.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

PACKAGE = "src/repro"
"""The package whose public names are audited (relative to the root)."""

PRODUCTION_ROOTS = ["src/repro", "benchmarks", "examples", "perfbench",
                    "scripts"]
"""Directories whose ``*.py`` files count as production callers."""

REFERENCE_GLOB = "tests/reference_*.py"
"""Frozen reference implementations; their calls count too."""

KNOB_PACKAGES = ["src/repro/serve", "src/repro/learn", "src/repro/exec",
                 "src/repro/telemetry"]
"""Directories whose options must each be set by some production call."""

KEPT = (
    ("QTable.visited_fraction",
     "the Fig. 2 diagnosis plans to report state coverage with it"),
    ("run_batch",
     "multi-seed paper benches and the lock-step stepper build on it"),
    ("FleetConfig(dt=)",
     "tests vary it, and the frozen fleet references take it"),
    ("FleetConfig(cycles=)", "tests vary it"),
    ("FleetConfig(fault_fraction=)", "tests vary it"),
    ("FleetConfig(sensor_noise=)", "tests vary it"),
    ("FleetConfig(request_batch=)",
     "tests vary it to put the bounded queue under pressure"),
    ("FleetSimulator(record_trace=)",
     "the fleet goldens compare recorded action traces"),
    ("PolicyServer(clock=)", "the tests' fake-clock seam"),
    ("PolicyServer.submit(deadline_s=)",
     "the deadline-shedding tests set it; the fleet submits without one"),
)
"""``(name, reason)`` for public names kept without a production caller
(a top-level function or a ``Class.method``) and for options no
production call sets (``Qualname(param=)``)."""

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


class Knob(NamedTuple):
    """One option: a defaulted parameter or a ``*Config`` field."""

    call: str
    """The name a call uses: the function's, the method's or the
    class's (for ``__init__`` and config fields)."""
    qualname: str
    """``Qualname(param=)``, as :data:`KEPT` spells it."""
    param: str
    position: Optional[int]
    """Index among a call's positional arguments (``None``: keyword-only)."""
    field: bool
    """True for a config field, which ``dataclasses.replace`` can set."""
    line: int


def _decorated(node, name: str) -> bool:
    for decorator in node.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        if getattr(target, "id", getattr(target, "attr", None)) == name:
            return True
    return False


def _parameters(fn, skip_first: bool, call: str,
                qualname: str) -> Iterator[Knob]:
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield Knob(call, f"{qualname}({arg.arg}=)", arg.arg,
                       index - skip_first, False, arg.lineno)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Knob(call, f"{qualname}({arg.arg}=)", arg.arg, None,
                       False, arg.lineno)


def knobs(path: Path) -> Iterator[Knob]:
    """Options of one module's public functions, methods and classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield from _parameters(node, False, node.name, node.name)
        elif isinstance(node, ast.ClassDef) \
                and not node.name.startswith("_"):
            if node.name.endswith("Config") and _decorated(node,
                                                           "dataclass"):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                for index, item in enumerate(fields):
                    if item.value is not None:
                        yield Knob(node.name,
                                   f"{node.name}({item.target.id}=)",
                                   item.target.id, index, True, item.lineno)
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    yield from _parameters(item, True, node.name, node.name)
                elif not item.name.startswith("_"):
                    yield from _parameters(
                        item, not _decorated(item, "staticmethod"),
                        item.name, f"{node.name}.{item.name}")


class Call(NamedTuple):
    """What one call site passes: how many positions, which keywords."""

    positional: float
    """Positional arguments passed (infinite after a ``*`` argument)."""
    keywords: Set[str]
    every_keyword: bool
    """True when a ``**`` argument may pass any keyword."""


def calls(path: Path) -> Iterator[Tuple[str, Call]]:
    """``(name, call)`` for every call in ``path`` made by a bare or an
    attribute name; ``cls(...)`` is a call of its enclosing class."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, owner: Optional[str]) -> Iterator[Tuple[str, Call]]:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "cls" and owner is not None:
                name = owner
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            if name is not None:
                # dataclasses.replace(obj, **changes) sets by keyword
                # only; its positional argument is the object.
                yield name, Call(
                    float("inf") if starred
                    else 0 if name == "replace" else len(node.args),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(k.arg is None for k in node.keywords))
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def sets(knob: Knob, call: Call) -> bool:
    """True when ``call`` passes ``knob`` (by keyword or position)."""
    if call.every_keyword or knob.param in call.keywords:
        return True
    return knob.position is not None and call.positional > knob.position


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

    # call name -> [Call] over every production file.
    made: Dict[str, List[Call]] = defaultdict(list)
    for path in production_files(root):
        for name, call in calls(path):
            made[name].append(call)
    for rel in KNOB_PACKAGES:
        for path in sorted((root / rel).rglob("*.py")):
            for knob in knobs(path):
                where = f"{path.relative_to(root).as_posix()}:{knob.line}"
                candidates = made.get(knob.call, [])
                if knob.field:
                    candidates = candidates + made.get("replace", [])
                is_set = any(sets(knob, call) for call in candidates)
                if knob.qualname in kept:
                    unmatched.discard(knob.qualname)
                    if is_set:
                        problems.append(
                            f"{where}: {knob.qualname} is in KEPT but a "
                            "production call sets it now; drop the entry")
                elif not is_set:
                    problems.append(
                        f"{where}: option {knob.qualname} is never set by "
                        "a production call; make it a constant")
    problems.extend(f"KEPT entry {name!r} matches no definition"
                    for name in sorted(unmatched))

    if problems:
        print("check_production_callers: FAIL", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"check_production_callers: OK ({len(modules)} modules, "
          f"{len(KEPT)} kept names and options)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
