"""Engine surface guard: every top-level function or class in
``pynomaly_ray/`` must be reached from a production path.

Production code is the package itself, ``perfbench/``, ``tools/``,
``bench.py`` and ``__ray_entry__.py``.  A definition counts as used when
its name appears there, outside its own definition, as a ``Name``, an
``Attribute`` or an import alias; strings and docstrings do not count.
Definitions that only tests reach belong in ``tests/``, or go.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "pynomaly_ray")
PRODUCTION = [
    PACKAGE,
    os.path.join(ROOT, "perfbench"),
    os.path.join(ROOT, "tools"),
    os.path.join(ROOT, "bench.py"),
    os.path.join(ROOT, "__ray_entry__.py"),
]

_REFERENCE = "reference a test compares the engine against"
_KEPT_STATE = (
    "persisted-state or layout operation kept until it is wired into "
    "the CLI or deleted"
)
ALLOWED = {
    "ngram_jaccard": _REFERENCE + " (exact Jaccard under MinHash)",
    "emit_duplicate_violations": _REFERENCE + " (the unique-key emitter)",
    "cosine_topk": _REFERENCE + " (brute-force top-k under the ANN paths)",
    "compact_exact_state": _KEPT_STATE,
    "compact_minhash_state": _KEPT_STATE,
    "append_zorder": _KEPT_STATE,
    "append_bucketed": _KEPT_STATE,
    "bucketed_aggregate": _KEPT_STATE,
    "bucketed_join_live": _KEPT_STATE,
    "pagerank_rounds_checkpointed": _KEPT_STATE,
    "hll_estimates": _KEPT_STATE,
    "kll_quantiles": _KEPT_STATE,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _py_files(path):
    if path.endswith(".py"):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith(".py"):
                yield os.path.join(dirpath, f)


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def _names(node):
    """Every name ``node`` uses: Name ids, Attribute attrs and both halves
    of import aliases (each dotted component of the imported name)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield from n.name.split(".")
            if n.asname:
                yield n.asname


def _used_names():
    used = set()
    for root in PRODUCTION:
        for path in _py_files(root):
            for stmt in _parse(path).body:
                names = set(_names(stmt))
                if isinstance(stmt, _DEFS):
                    names.discard(stmt.name)
                used |= names
    return used


def _definitions():
    for path in _py_files(PACKAGE):
        rel = os.path.relpath(path, ROOT)
        for stmt in _parse(path).body:
            if isinstance(stmt, _DEFS):
                yield rel, stmt.lineno, stmt.name


def test_every_engine_definition_has_a_production_caller():
    used = _used_names()
    unused = [
        f"{rel}:{line} {name}"
        for rel, line, name in _definitions()
        if name not in used and name not in ALLOWED
    ]
    assert not unused, (
        "top-level definitions that no production path uses (move them "
        "to tests/ or delete them):\n" + "\n".join(unused)
    )


def test_allowlist_entries_are_still_defined_and_unused():
    defined = {name for _rel, _line, name in _definitions()}
    used = _used_names()
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    assert not set(ALLOWED) & used, sorted(set(ALLOWED) & used)
