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


# ---------------------------------------------------------------------------
# Fan-out parameters.  Every exchange sizes its fan-out with
# ``functions/exchange.auto_num_partitions``; a ``num_partitions`` or
# ``num_buckets`` parameter survives only where a production caller pins
# a count that is part of the result.  Tests pin the fan-out with
# ``tests/conftest.pinned_fanout`` instead of a parameter.
# ---------------------------------------------------------------------------
_FANOUT_PARAMS = ("num_partitions", "num_buckets")
_LAYOUT_OP = "persisted layout op"
FANOUT_SURVIVORS = {
    "hash_aggregate": "sources/bucketed.py passes the layout's bucket count; "
    "queries_wave56/59 pass 32",
    "range_sort": "pipelines/queries.py passes 8",
    "write_sorted": "cli layout --partitions and the sorted-layout queries",
    "append_sorted": "pipelines/queries.py passes 3",
    "compact_sorted": "cli compact --partitions",
    "write_zorder": "cli layout --partitions and queries_wave27",
    "_cluster_and_write": "write_zorder forwards its count",
    "append_zorder": _LAYOUT_OP,
    "write_bucketed": "cli layout and the bucketed queries",
    "distributed_loop_scores": "cli loop --buckets and the LoOP queries",
}


def _fanout_definitions():
    """name -> (parameter, positional index or None) for every function
    under ``pynomaly_ray/`` with a fan-out parameter; a class's
    ``__init__`` is filed under the class name, ``self`` not counted."""
    defs = {}
    for path in _py_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                fns = [
                    (node.name, f, 1)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                ]
            elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
                fns = [(node.name, node, 0)]
            else:
                continue
            for name, fn, skip in fns:
                pos = [a.arg for a in fn.args.posonlyargs + fn.args.args]
                kw = [a.arg for a in fn.args.kwonlyargs]
                for prm in _FANOUT_PARAMS:
                    if prm in pos:
                        defs[name] = (prm, pos.index(prm) - skip)
                    elif prm in kw:
                        defs[name] = (prm, None)
    return defs


def _fanout_setters(defs):
    """Definitions some production call passes a count to.  A call that
    only forwards the caller's own fan-out parameter counts when the
    forwarding definition is itself set."""
    set_directly, forwards = set(), {}

    def own_params(fn):
        a = fn.args
        return {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}

    class Calls(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_FunctionDef(self, node):
            self.stack.append(node)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name in defs:
                prm, idx = defs[name]
                vals = [k.value for k in node.keywords if k.arg == prm]
                if idx is not None and len(node.args) > idx:
                    vals.append(node.args[idx])
                for v in vals:
                    if isinstance(v, ast.Constant) and v.value is None:
                        continue
                    if isinstance(v, ast.Name) and v.id in _FANOUT_PARAMS:
                        src = next(
                            (
                                fn.name
                                for fn in reversed(self.stack)
                                if v.id in own_params(fn)
                            ),
                            None,
                        )
                        forwards.setdefault(name, set()).add(src)
                    else:
                        set_directly.add(name)
            self.generic_visit(node)

    for root in PRODUCTION:
        for path in _py_files(root):
            Calls().visit(_parse(path))
    setters = set(set_directly)
    grew = True
    while grew:
        grew = False
        for callee, sources in forwards.items():
            if callee not in setters and sources & setters:
                setters.add(callee)
                grew = True
    return setters


def test_every_fanout_parameter_has_a_production_setter():
    defs = _fanout_definitions()
    setters = _fanout_setters(defs)
    unset = sorted(
        name
        for name in defs
        if name not in setters and FANOUT_SURVIVORS.get(name) != _LAYOUT_OP
    )
    assert not unset, (
        "num_partitions/num_buckets parameters that no production caller "
        "sets (delete them; tests pin the fan-out with "
        "tests/conftest.pinned_fanout):\n" + "\n".join(unset)
    )
    assert set(defs) == set(FANOUT_SURVIVORS), (
        "fan-out parameters must be listed in FANOUT_SURVIVORS with the "
        "reason they stay: " + str(sorted(set(defs) ^ set(FANOUT_SURVIVORS)))
    )
