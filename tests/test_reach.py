"""Every top-level definition in ``crawler_service_ray/`` is reached by the
system, not only by its own tests.

The pass is name-based and needs no Ray. Its roots are the package's
module-level statements (``__main__`` included), the entry module
(``__ray_entry__.py``, whose ``QUERIES`` and ``ORACLE_SQL`` hold the 63
registered entries), ``bench.py``, ``scripts/`` and ``perfbench/``
(including its ``"module:attr"`` wrap targets). A definition is reached
when a reached body uses its name as a variable or attribute; reach then
grows to a fixpoint. Import lists, ``__all__`` and docstrings do not count
as uses. Matching by bare name over-counts reach, so the pass can miss
dead code but never flags live code.

Library code that predates this check and that only its own tests reach
is listed in ``tests/data/reach_backlog.txt``. The list only shrinks: a
definition that is unreached and not listed fails the test, and so does a
listed one that has been deleted or has gained a caller.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "crawler_service_ray"

# Reference implementations that tests compare reached code against.
REFERENCE_IMPLS = {
    "bpe_encode_reference":
        "text.py: test_bpe_encode_matches_reference checks bpe_encode_counts",
    "drive_expected":
        "stages/drive.py: the drive-source tests check a drive crawl against it",
    "walk_expected":
        "stages/posix.py: the posix-source tests check a posix crawl against it",
}

BACKLOG = ROOT / "tests" / "data" / "reach_backlog.txt"

_WRAP_TARGET = re.compile(r"^crawler_service_ray[\w.]*:([\w.]+)$")


def _root_files() -> list[Path]:
    files = [ROOT / "__ray_entry__.py", ROOT / "bench.py"]
    for d in ("scripts", "perfbench"):
        files += sorted((ROOT / d).rglob("*.py"))
    return files


def _names_used(node: ast.AST) -> set[str]:
    """Names a node's code uses: variables, attributes and wrap targets.
    Import aliases and other strings are not uses."""
    used: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            m = _WRAP_TARGET.match(n.value)
            if m:
                used.update(m.group(1).split("."))
    return used


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    names = []
    for t in targets:
        for n in ast.walk(t):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                names.append(n.id)
    # Dunder assignments (``__all__``) are module metadata, not code.
    if not names or any(n.startswith("__") for n in names):
        return []
    return names


def unreached() -> list[tuple[str, str, int]]:
    """(module path, name, line count) of each top-level definition in the
    package that nothing reaches, in file order."""
    defs = []   # (path, names, stmt)
    used: set[str] = set()
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = _defined_names(stmt)
            if names:
                defs.append((path, names, stmt))
            else:
                used |= _names_used(stmt)
    for path in _root_files():
        used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    used |= set(REFERENCE_IMPLS)

    pending = list(defs)
    while True:
        newly = [d for d in pending if used.intersection(d[1])]
        if not newly:
            break
        for d in newly:
            pending.remove(d)
            used |= _names_used(d[2])
    return [
        (str(p.relative_to(ROOT)), ",".join(names),
         s.end_lineno - min([s.lineno] + [d.lineno for d in
                                          getattr(s, "decorator_list", [])])
         + 1)
        for p, names, s in pending
    ]


def _backlog() -> set[tuple[str, str]]:
    """(module path, name) pairs of the listed library definitions."""
    pairs = set()
    for line in BACKLOG.read_text().splitlines():
        if line and not line.startswith("#"):
            path, name = line.split("\t")
            pairs.add((path, name))
    return pairs


def test_every_definition_is_reached():
    dead = unreached()
    backlog = _backlog()
    new = [(p, name, n) for p, name, n in dead if (p, name) not in backlog]
    assert not new, (
        f"{len(new)} top-level definitions only tests reach "
        f"({sum(n for *_, n in new)} lines):\n"
        + "\n".join(f"  {p}: {name} ({n} lines)" for p, name, n in new))
    stale = backlog - {(p, name) for p, name, _ in dead}
    assert not stale, (
        "backlog entries that are deleted or now reached; take them off "
        f"{BACKLOG.name}:\n"
        + "\n".join(f"  {p}: {name}" for p, name in sorted(stale)))


def test_reference_impls_exist():
    defined = set()
    for path in PKG.rglob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            defined.update(_defined_names(stmt))
    assert set(REFERENCE_IMPLS) <= defined

