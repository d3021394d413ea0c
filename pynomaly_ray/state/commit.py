"""The one commit protocol every persisted surface uses.

A surface (manifest, layout, checkpoint marker, state dir, model) is
written under a dot-prefixed temporary sibling name that no reader
matches (parquet directory scans skip hidden files), then published
with a single rename: a crash leaves either the old surface or the
complete new one.  Run-level commits are ``.commit-<name>`` markers in a
state root, written last.  No fsync: a rename is atomic against process
crashes; surviving power loss would also need fsync.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, BinaryIO, Callable

# every publish goes through this one name (crash tests substitute it)
_rename = os.replace

_MARKER = ".commit-"


def _tmp(path: str) -> str:
    d, name = os.path.split(os.path.normpath(path))
    return os.path.join(d, f".{name}.tmp")


def atomic_write(path: str, write: Callable[[BinaryIO], Any]) -> str:
    """Publish the file ``write(f)`` produces at ``path`` in one rename;
    ``f`` is a binary file opened on the hidden temp name."""
    tmp = _tmp(path)
    with open(tmp, "wb") as f:
        write(f)
    _rename(tmp, path)
    return path


def write_json(path: str, obj) -> str:
    return atomic_write(path, lambda f: f.write(json.dumps(obj).encode()))


def read_manifest(path: str, unfinished: str) -> dict:
    """The JSON manifest a surface commits LAST; without it the surface
    is unfinished and refuses to serve (``unfinished`` says how)."""
    if not os.path.exists(path):
        d, name = os.path.split(path)
        raise FileNotFoundError(
            f"{d} has no {name} commit marker — {unfinished}"
        )
    with open(path) as f:
        return json.load(f)


def publish_dir(path: str, write: Callable[[str], Any]) -> str:
    """Publish the directory ``write(tmp_dir)`` builds at ``path``.

    A directory already at ``path`` keeps serving while the new one is
    built; it is then renamed aside and the new one renamed in, so a
    crash between the two renames leaves ``path`` absent (unfinished,
    refused by readers), never a mix of old and new files."""
    tmp = _tmp(path)
    shutil.rmtree(tmp, ignore_errors=True)  # a crashed attempt's leftovers
    write(tmp)
    os.makedirs(tmp, exist_ok=True)  # a writer with no rows made no dir
    old = None
    if os.path.exists(path):
        old = _tmp(path) + "-old"
        shutil.rmtree(old, ignore_errors=True)
        _rename(path, old)
    _rename(tmp, path)
    if old:
        shutil.rmtree(old, ignore_errors=True)
    return path


def mark_committed(root: str, name: str) -> None:
    """Commit run ``name`` under ``root``: its ``.commit-<name>`` marker."""
    atomic_write(
        os.path.join(root, _MARKER + name), lambda f: f.write(b"committed\n")
    )


def committed(root: str) -> set[str]:
    """Names of the runs committed under ``root``."""
    if not os.path.isdir(root):
        return set()
    return {
        f[len(_MARKER):] for f in os.listdir(root) if f.startswith(_MARKER)
    }
