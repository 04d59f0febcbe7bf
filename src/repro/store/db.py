"""Connection, pragma, and transaction plumbing for the measurement store.

Everything else in ``repro.store`` talks to SQLite through this module:
:func:`connect` hands out autocommit connections with the store's
pragma set applied and the schema migrated forward, and
:func:`transaction` is the one way multi-statement work is grouped —
an explicit ``BEGIN IMMEDIATE`` so writer transactions take the write
lock up front instead of deadlocking on lock upgrade mid-batch.

Path conventions: a store is a single SQLite file.  CLI surfaces accept
either the file itself or a directory containing the default
``store.sqlite`` (:func:`resolve_store_path`), and artifact-consuming
commands use :func:`is_store_path` to tell a store apart from a
telemetry directory.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
from typing import Iterator, Optional

from repro.store.schema import (
    SCHEMA_VERSION, MigrationError, SchemaError, apply_migrations)

__all__ = [
    "DEFAULT_STORE_FILENAME",
    "StoreError",
    "connect",
    "is_store_path",
    "resolve_store_path",
    "transaction",
]

#: Filename used when a directory (not a file) is named as the store.
DEFAULT_STORE_FILENAME = "store.sqlite"

#: First bytes of every SQLite database file (the format magic).
_SQLITE_MAGIC = b"SQLite format 3\x00"


class StoreError(Exception):
    """A store-level operational failure (bad path, bad state, bad run)."""


def _apply_pragmas(conn: sqlite3.Connection) -> None:
    """The store's pragma set: durability vs ingest-rate posture.

    WAL journaling + ``synchronous=NORMAL`` is the standard embedded
    posture: readers never block the writer, commits survive process
    death (crash-safety is transaction-level), and fsync cost is paid
    per checkpoint instead of per commit.  Foreign keys are enforced so
    ``ON DELETE CASCADE`` actually cascades when a run is dropped.
    """
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA foreign_keys=ON")


def connect(path: str, create: bool = True,
            target_version: int = SCHEMA_VERSION) -> sqlite3.Connection:
    """Open (and, by default, create + migrate) the store at ``path``.

    Returns an autocommit connection (``isolation_level=None``): nothing
    here commits behind your back, and :func:`transaction` owns every
    multi-statement group.  With ``create=False`` a missing file is a
    :class:`StoreError` instead of a silently created empty database —
    the right behavior for read-side commands pointed at a typo.  A
    migration that fails is a :class:`StoreError` naming the migration
    and the schema version the file was left at; a file newer than
    ``target_version`` raises :class:`~repro.store.schema.SchemaError`
    naming the file.
    """
    path = os.fspath(path)
    if not create and not os.path.exists(path):
        raise StoreError(f"no such store: {path}")
    if os.path.isdir(path):
        raise StoreError(
            f"{path} is a directory, not a store file "
            f"(did you mean {os.path.join(path, DEFAULT_STORE_FILENAME)}?)"
        )
    try:
        conn = sqlite3.connect(path, isolation_level=None)
    except sqlite3.Error as exc:  # pragma: no cover - OS-dependent
        raise StoreError(f"cannot open store {path}: {exc}") from exc
    try:
        _apply_pragmas(conn)
        apply_migrations(conn, target=target_version)
    except MigrationError as exc:
        conn.close()
        raise StoreError(f"{path}: {exc}") from exc
    except SchemaError as exc:
        conn.close()
        raise SchemaError(f"{path}: {exc}") from exc
    except sqlite3.DatabaseError as exc:
        conn.close()
        raise StoreError(f"{path} is not a measurement store: {exc}") from exc
    except Exception:
        conn.close()
        raise
    return conn


@contextlib.contextmanager
def transaction(conn: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    """``BEGIN IMMEDIATE`` ... ``COMMIT`` (or ``ROLLBACK`` on error).

    The store's only transaction primitive: writers wrap each ingest
    batch in one of these, which is what makes the samples-vs-rollups
    consistency invariant crash-safe — both sides of an upsert land in
    the same commit or neither does.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


def is_store_path(path: str) -> bool:
    """True when ``path`` names a store file (or a dir holding one).

    Detection is by content, not extension: an existing file counts if
    it starts with the SQLite format magic; an empty existing file
    counts only with a ``.sqlite``/``.db`` suffix (a store being
    created); a directory counts if it contains ``store.sqlite``.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        return os.path.isfile(os.path.join(path, DEFAULT_STORE_FILENAME))
    if not os.path.isfile(path):
        return False
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_SQLITE_MAGIC))
    except OSError:
        return False
    if head == _SQLITE_MAGIC:
        return True
    return not head and os.path.splitext(path)[1] in (".sqlite", ".db")


def resolve_store_path(path: str) -> str:
    """Map a store argument to the actual database file path.

    Directories resolve to their ``store.sqlite``; files pass through
    unchanged.  Purely lexical — existence is checked by
    :func:`connect`, which knows whether creation is allowed.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        return os.path.join(path, DEFAULT_STORE_FILENAME)
    return path


def file_size(path: str) -> int:
    """Size in bytes of the store's main file (0 when absent).

    The WAL/SHM sidecar files are excluded on purpose: compaction
    measures the durable footprint, and sidecars come and go with
    checkpoints.
    """
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def database_path(conn: sqlite3.Connection) -> Optional[str]:
    """Filesystem path behind ``conn``'s main database (None in-memory)."""
    for _seq, name, filename in conn.execute("PRAGMA database_list"):
        if name == "main":
            return filename or None
    return None
