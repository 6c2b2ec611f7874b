"""Snapshot capture does no filesystem work (repro.db.snapshot).

``Database.snapshot()`` runs under ``catalog_lock`` for every served
read, so it must not stat, resolve or open anything: generation keys
are recorded when a manifest is published and footers are loaded then
too.  These tests make every such call raise while a snapshot is
captured — memory tables, checkpointed ones, reopened disk tables,
disk tables with an in-memory overlay and a re-checkpointed disk
table — and check that pinning still garbage-collects a superseded
generation when the database path is relative or goes through a
symlink.
"""

from __future__ import annotations

import builtins
import os
import pathlib

import pytest

from repro.db.column import BLOCK_SIZE
from repro.db.engine import Database
from repro.db.operators import QueryContext
from repro.db.sql.parser import parse_statement

# runs again under `python -X dev` with ResourceWarnings as errors
pytestmark = pytest.mark.leak_guard

#: one full block and a partial one per table
ROWS = BLOCK_SIZE + 904
SUM_SQL = "SELECT grp, COUNT(*), SUM(val) FROM events GROUP BY grp"

#: every call that would touch the filesystem during capture
FILESYSTEM_CALLS = (
    (os, "stat"),
    (os, "lstat"),
    (os, "open"),
    (os, "listdir"),
    (os, "scandir"),
    (pathlib.Path, "resolve"),
    (builtins, "open"),
)


def populate(database: Database, first: int = 0, rows: int = ROWS):
    if first == 0:
        database.execute(
            "CREATE TABLE events (id INTEGER, grp INTEGER, val DOUBLE)"
        )
    database.table("events").append_rows(
        [(i, 1, i * 0.25) for i in range(first, first + rows)]
    )


def capture(database: Database, monkeypatch):
    """``database.snapshot()`` with every filesystem call raising."""
    calls: list[str] = []

    def forbidden(name):
        def call(*_args, **_kwargs):
            calls.append(name)
            raise AssertionError(f"snapshot capture called {name}")

        return call

    with monkeypatch.context() as patch:
        for owner, name in FILESYSTEM_CALLS:
            patch.setattr(owner, name, forbidden(name))
        snapshot = database.snapshot()
    assert calls == []
    return snapshot


def in_memory(tmp_path):
    database = Database()
    populate(database)
    return database, ROWS


def checkpointed(tmp_path):
    database = Database(path=str(tmp_path))
    populate(database)
    database.checkpoint()
    return database, ROWS


def reopened(tmp_path):
    database, rows = checkpointed(tmp_path)
    database.close()
    return Database(path=str(tmp_path)), rows


def with_overlay(tmp_path):
    database, rows = reopened(tmp_path)
    populate(database, first=rows, rows=100)
    return database, rows + 100


def recheckpointed(tmp_path):
    database, rows = with_overlay(tmp_path)
    database.checkpoint()
    return database, rows


@pytest.mark.parametrize(
    "setup",
    [in_memory, checkpointed, reopened, with_overlay, recheckpointed],
    ids=lambda setup: setup.__name__,
)
def test_capture_makes_no_filesystem_call(setup, tmp_path, monkeypatch):
    database, rows = setup(tmp_path)
    expected = [(1, rows, sum(i * 0.25 for i in range(rows)))]
    assert database.execute(SUM_SQL).rows == expected
    snapshot = capture(database, monkeypatch)
    try:
        # a write after capture stays invisible to the snapshot
        populate(database, first=rows, rows=10)
        result = database.execute_statement(
            parse_statement(SUM_SQL),
            QueryContext(sql=SUM_SQL, catalog=snapshot.catalog),
        )
        assert result.rows == expected
        if database.storage is not None:
            pinned = 0 if setup is in_memory else 1
            assert database.storage.pinned_generations() == pinned
    finally:
        snapshot.release()
        database.close()
    if database.storage is not None:
        assert database.storage.pinned_generations() == 0


def _pin_survives_checkpoint_then_gcs(path: str, data_root: pathlib.Path):
    database = Database(path=path)
    populate(database)
    database.checkpoint()
    table_dir = data_root / "tables" / "events"
    first = {entry.name for entry in table_dir.iterdir()}
    snapshot = database.snapshot()
    populate(database, first=ROWS, rows=10)
    database.checkpoint()
    assert first <= {entry.name for entry in table_dir.iterdir()}, (
        "pinned generation dir was deleted"
    )
    assert database.storage.pinned_generations() == 1
    assert database.storage.retired_generations() == 1
    assert snapshot.catalog.tables["events"].row_count == ROWS
    snapshot.release()
    assert first.isdisjoint(entry.name for entry in table_dir.iterdir()), (
        "stale generation not GC'd"
    )
    assert database.storage.pinned_generations() == 0
    assert database.storage.retired_generations() == 0
    database.close()


def test_pin_gc_under_relative_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _pin_survives_checkpoint_then_gcs("db", tmp_path / "db")


def test_pin_gc_through_symlink(tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    _pin_survives_checkpoint_then_gcs(str(link), real)
