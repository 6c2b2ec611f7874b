"""Atomic manifest checkpointing for the persistent catalog.

The whole durable state of a database is described by one JSON
manifest, ``CATALOG.json``, at the storage root.  Checkpointing writes
table data into fresh generation directories *first* and only then
swaps the manifest with write-to-temp + ``os.replace`` — the POSIX
atomic-rename durability idiom.  A crash at any point leaves either the
old manifest (pointing at the old, complete generation directories) or
the new one (pointing at the new, complete ones); a torn state is not
reachable, which the crash-safety test asserts by killing between the
temp write and the rename.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ExecutionError

MANIFEST_NAME = "CATALOG.json"
FORMAT_VERSION = 1


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Durably replace *path* with *payload* (write temp, fsync, rename)."""
    atomic_write_text(path, json.dumps(payload, separators=(",", ":")))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Durably replace *path* with *text* (write temp, fsync, rename)."""
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    # Persist the rename itself (directory entry) where possible.
    try:
        directory = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_manifest(root: str | Path, manifest: dict) -> Path:
    path = Path(root) / MANIFEST_NAME
    atomic_write_json(path, manifest)
    return path


def load_manifest(root: str | Path) -> dict | None:
    """The current manifest, or None for a fresh directory.

    A leftover ``CATALOG.json.tmp`` (crash between checkpoint and
    rename) is ignored — the committed manifest is the truth.
    """
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ExecutionError(
            f"{path}: unsupported storage format version {version!r}"
        )
    return manifest
